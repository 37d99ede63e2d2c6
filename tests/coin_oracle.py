"""Reference restart coins: one draw per stopped agent per step.

``use_one_coin_per_step`` swaps the engine's drawn-ahead coins for the plain
rule they replace: at each step from t on, each stopped agent, in row order,
draws one uniform coin from its own stream and is lucky when it lands below
``p_restart``; the first step with a lucky agent is returned with its lucky
agents, or ``until`` when the stretch has none.  Nothing is ever drawn ahead,
and ``next_lucky`` is not read.  It flips the coins of every step up to the
one it returns, so it stands in for the engine's coins in one-step calls, or
where the walk flags hold through that step.
"""

import numpy as np

from grmsim import dynamics


def one_coin_per_step(t, until, moving, next_lucky, params, rngs):
    stopped = np.flatnonzero(~moving)
    for step in range(t, until):
        lucky = np.zeros_like(moving)
        for i in stopped:
            lucky[i] = rngs[i].random() < params.p_restart
        if lucky.any():
            return step, lucky, next_lucky
    return until, np.zeros_like(moving), next_lucky


def use_one_coin_per_step(monkeypatch) -> None:
    monkeypatch.setattr(dynamics, "restart_coins", one_coin_per_step)
