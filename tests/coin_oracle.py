"""Reference restart coins: one draw per stopped agent per step.

``use_one_coin_per_step`` swaps the engine's drawn-ahead coins for the plain
rule they replace: at every step each stopped agent, in row order, draws one
uniform coin from its own stream and is lucky when it lands below
``p_restart``; nothing is ever drawn ahead, and ``next_lucky`` is not read.
Every step then has coin work, so the coin step it returns is always the
next step.
"""

import numpy as np

from grmsim import dynamics


def one_coin_per_step(t, moving, next_lucky, params, rngs):
    lucky = np.zeros_like(moving)
    for i in np.flatnonzero(~moving):
        lucky[i] = rngs[i].random() < params.p_restart
    return lucky, next_lucky, t + 1


def use_one_coin_per_step(monkeypatch) -> None:
    monkeypatch.setattr(dynamics, "restart_coins", one_coin_per_step)
