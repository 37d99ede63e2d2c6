"""The benchmark's span hooks still wrap functions that the package calls,
and its workloads still give the outputs its reference table records.

``benchmarks/tests`` is not collected by this suite, so without these tests a
signature change that breaks ``benchmarks/run.py --trace 1``, or a behaviour
change that fails the benchmark's reference gate, would pass here.  The
benchmark modules are imported as they are, without writing bytecode next to
them.
"""

import pathlib
import sys

import pytest

from grmsim import engine
from grmsim.dynamics import SimParams
from grmsim.harness import sweep

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))


def test_every_wrapped_function_records_a_span(bench, tmp_path):
    import layers
    from spans import SpanRecorder

    params = SimParams(horizon_steps=30)
    grid = sweep.SweepGrid((30.0,), (4.0,), (32.0,), trials_per_cell=1)
    with SpanRecorder() as recorder:
        layers.install(recorder)
        engine.run_trial(params, seed=0)
        sweep.emit_csv(sweep.run_sweep(grid, params, workers=1), tmp_path / "sweep.csv")
    for name in recorder.names:
        assert recorder.mask(name).any(), name
    # observers x (two eyes + body centre) x sources x body points, per call:
    # a percept hook counting from another first argument would miss this
    calls = int(recorder.mask("perception.world_summaries").sum())
    elements = sum(v for (_, key), v in recorder.counts.items() if key == "elements")
    assert calls > 0 and elements == calls * 3 * 10 ** 2 * 14
    assert engine.step.__module__ == "grmsim.engine"  # the wrappers are gone


@pytest.mark.parametrize("name", ["desk_cell", "crowd_alarm", "fullscale_sample"])
def test_first_trial_matches_reference(bench, name):
    import layers
    import reference
    import workloads

    params, seed = workloads.make(BENCH.parent, name, 0).trials()[0]
    result = engine.run_trial(params, seed)
    assert layers.trial_record(result) == reference.expected(name, 0)["trials"][0]
