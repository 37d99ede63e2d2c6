"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps a public grmsim function at its module attribute, which
is the name callers such as ``engine.run_trial`` look up at call time, so
every call through the package is timed without touching ``src/grmsim``.
Each call becomes one span: name, start, end, parent span and trial id.
Spans live in flat typed arrays (a traced 10 000-step trial makes ~220k of
them) and are written out once, when the run ends.  Leaving the ``with``
block puts every original attribute back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class SpanRecorder:
    """Records one span per call of each wrapped function.

    A function wrapped with ``new_trial=True`` opens a new trial: it and every
    span nested in it carry that trial's id.  Spans outside any trial carry
    -1.  A ``count`` callable receives ``(args, kwargs, result)`` after the
    call and returns counters to add to the current trial's totals, so counts
    are taken at the same boundary as the time.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._trial = -1
        self._trials_opened = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, module, attr: str, name: str, *, new_trial: bool = False,
             count=None) -> None:
        original = getattr(module, attr)
        name_id = len(self.names)
        self.names.append(name)
        starts, ends, names = self.start, self.end, self.name
        parents, trials, stack = self.parent, self.trial, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer_trial = self._trial
            if new_trial:
                self._trial = self._trials_opened
                self._trials_opened += 1
            trial = self._trial
            index = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            trials.append(trial)
            stack.append(index)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                self._trial = outer_trial
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[(trial, key)] = self.counts.get((trial, key), 0) + value
            return result

        traced.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = _copy(self.start, np.float64)
        end = _copy(self.end, np.float64)
        parent = _copy(self.parent, np.intc)
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(duration))
        return {
            "start": start, "end": end, "duration": duration,
            "self": duration - child_time, "parent": parent,
            "name": _copy(self.name, np.intc),
            "trial": _copy(self.trial, np.intc),
        }

    def mask(self, name: str) -> np.ndarray:
        """Boolean mask of the spans recorded under ``name``."""
        names = _copy(self.name, np.intc)
        if name not in self.names:
            return np.zeros(len(names), dtype=bool)
        return names == self.names.index(name)

    def trial_counts(self, trial: int) -> dict[str, float]:
        return {key: value for (t, key), value in self.counts.items() if t == trial}

    def dump(self, path: Path) -> Path:
        """Write every span (and its self time) as a compressed ``.npz``."""
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)
        return path


def _copy(values: array, dtype) -> np.ndarray:
    # a copy, so the recorder's arrays are not locked against further appends
    return np.frombuffer(values, dtype=dtype).copy()
