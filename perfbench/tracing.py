"""Spans around estlab's layers, installed at run time from outside the package.

``Tracer.install`` replaces every estlab module attribute that is bound to a
public estlab function with one timing wrapper per function, so a name
imported with ``from .x import f`` is traced wherever it is bound.  It also
wraps ``SymMatrix.__init__``, ``Dataset.__post_init__`` and
``scipy.linalg.cho_solve`` where estlab modules bound it.  Nothing under
``src/`` changes, and ``uninstall`` restores every binding.

Each span records (function, start, end, parent span); spans stay in memory
and are written when the run ends.  Self time is a span's duration minus the
durations of its child spans.  Work counts that the wrappers compute from
arguments (bytes of a covariance as 8n^2, Cholesky flops as n^3/3) are
labelled as computed, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Functions that report as one layer metric; every other function reports
# under its own "module.name".
GROUPS = {
    "experiments.table1": "experiments.study",
    "experiments.fig2_surface": "experiments.study",
    "experiments.fig345_curves": "experiments.study",
    "experiments.fig6_decomposition": "experiments.study",
    "experiments.fig7_sweep": "experiments.study",
    "matkernel.solve_spd": "matkernel.solve",
    "scipy.linalg.cho_solve": "matkernel.solve",
    "estimators.Dataset": "estimators",
}
WHOLE_MODULE_GROUPS = ("cli", "fisher", "estimators")


def _group(name: str) -> str:
    module = name.split(".", 1)[0]
    return GROUPS.get(name, module if module in WHOLE_MODULE_GROUPS else name)


def _fingerprint(entries: np.ndarray) -> bytes:
    # A strided sample of the entries tells distinct matrices apart without
    # hashing all n^2 of them inside the traced call.
    flat = entries.ravel()
    sample = flat[:: max(1, flat.size // 4096)]
    digest = hashlib.blake2b(sample.tobytes(), digest_size=16).digest()
    return digest + str(entries.shape).encode()


def _count_build(counts, args, kwargs, result):
    counts["covmodel.build.bytes"] += 8.0 * result.dim**2


def _count_factor(counts, args, kwargs, result):
    n = result.shape[0]
    counts["matkernel.factor_spd.gflop"] += n**3 / 3.0 / 1e9
    counts.fingerprints.add(_fingerprint(args[0].entries))


def _count_write(counts, args, kwargs, result):
    counts["experiments.write_csv.rows"] += len(args[0].rows)
    counts["experiments.write_csv.bytes"] += args[1].tell()


def _count_design(counts, args, kwargs, result):
    counts["partition.make_design.useful"] += bool((result.assignment == 0).any())


def _count_trials(counts, args, kwargs, result):
    counts["montecarlo.trials"] += result.trials


EXTRAS = {
    "covmodel.build": _count_build,
    "matkernel.factor_spd": _count_factor,
    "experiments.write_csv": _count_write,
    "partition.make_design": _count_design,
    "montecarlo.run_trials": _count_trials,
}


class Counts(Counter):
    """Work counts of one round, plus fingerprints of the matrices it factored."""

    def __init__(self) -> None:
        super().__init__()
        self.fingerprints: set[bytes] = set()


class Tracer:
    """Spans of the wrapped functions, kept in growable arrays until written."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 if no enclosing span has the same group
        self.counts = Counts()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        group = _group(name)
        self.names.append(name)
        self.groups.append(group)
        extra = EXTRAS.get(name)
        # Local names keep the per-call path of the wrapper short.
        fids, parent, start, end, outer = self.fid, self.parent, self.start, self.end, self.outer
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parent.append(stack[-1] if stack else -1)
            outer.append(active[group] == 0)
            end.append(0.0)
            active[group] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[group] -= 1
            if extra is not None:
                extra(self.counts, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import scipy.linalg

        from estlab.estimators import Dataset
        from estlab.matkernel import SymMatrix

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "estlab" or key.startswith("estlab.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    short = module.__name__.removeprefix("estlab.")
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
        wrappers[id(scipy.linalg.cho_solve)] = self._wrap(
            scipy.linalg.cho_solve, "scipy.linalg.cho_solve")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    self._replace(module, attr, wrappers[id(obj)])
        self._replace(SymMatrix, "__init__",
                      self._wrap(SymMatrix.__init__, "matkernel.SymMatrix"))
        self._replace(Dataset, "__post_init__",
                      self._wrap(Dataset.__post_init__, "estimators.Dataset"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take_counts(self) -> Counts:
        counts, self.counts = self.counts, Counts()
        return counts

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(function id, duration, self time, outer flag) of spans [lo, hi).

        Spans of one round never have a parent outside the round, because
        each round's spans nest under its cli.main calls.
        """
        hi = len(self.fid) if hi is None else hi
        # Copies, not views: a live view would stop the arrays from growing.
        fid = np.frombuffer(self.fid, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=fid.size)
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi].astype(bool)
        return fid, dur, dur - child_time, outer

    def write(self, path: Path) -> None:
        """Write all spans as arrays plus the function-name table."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, kind, group): kind "s" is time inside the group counted once
# where its spans nest, "self_s" is self time, "calls" counts spans.
SPAN_METRICS = (
    ("cli.main.self_s", "s/round", "self_s", "cli"),
    ("experiments.write_csv.s", "s/round", "s", "experiments.write_csv"),
    ("experiments.study.self_s", "s/round", "self_s", "experiments.study"),
    ("covmodel.build.self_s", "s/round", "self_s", "covmodel.build"),
    ("covmodel.build.calls", "calls/round", "calls", "covmodel.build"),
    ("covmodel.spectrum_from_matrix.self_s", "s/round", "self_s", "covmodel.spectrum_from_matrix"),
    ("matkernel.SymMatrix.s", "s/round", "s", "matkernel.SymMatrix"),
    ("matkernel.SymMatrix.calls", "calls/round", "calls", "matkernel.SymMatrix"),
    ("matkernel.factor_spd.s", "s/round", "s", "matkernel.factor_spd"),
    ("matkernel.factor_spd.calls", "calls/round", "calls", "matkernel.factor_spd"),
    ("matkernel.solve.s", "s/round", "s", "matkernel.solve"),
    ("matkernel.solve.calls", "calls/round", "calls", "matkernel.solve"),
    ("matkernel.eigendecompose.s", "s/round", "s", "matkernel.eigendecompose"),
    ("matkernel.eigendecompose.calls", "calls/round", "calls", "matkernel.eigendecompose"),
    ("fisher.self_s", "s/round", "self_s", "fisher"),
    ("fisher.calls", "calls/round", "calls", "fisher"),
    ("partition.make_design.s", "s/round", "s", "partition.make_design"),
    ("partition.make_design.calls", "calls/round", "calls", "partition.make_design"),
    ("partition.submatrix.s", "s/round", "s", "partition.submatrix"),
    ("partition.submatrix.calls", "calls/round", "calls", "partition.submatrix"),
    ("estimators.s", "s/round", "s", "estimators"),
    ("estimators.calls", "calls/round", "calls", "estimators"),
    ("montecarlo.run_trials.self_s", "s/round", "self_s", "montecarlo.run_trials"),
    ("montecarlo.standard_normal.s", "s/round", "s", "montecarlo.standard_normal"),
    ("montecarlo.standard_normal.calls", "calls/round", "calls", "montecarlo.standard_normal"),
)
COUNT_METRICS = (
    ("experiments.write_csv.rows", "rows/round"),
    ("experiments.write_csv.bytes", "B/round"),
    ("covmodel.build.bytes", "B/round"),
    ("matkernel.factor_spd.gflop", "GFLOP/round"),
    ("montecarlo.trials", "trials/round"),
)
UNITS = {name: unit for name, unit, *_ in SPAN_METRICS + COUNT_METRICS}
# Counts derived from argument sizes rather than measured.
COMPUTED = {"covmodel.build.bytes", "matkernel.factor_spd.gflop",
            "matkernel.factor_spd.gflop_per_s"}
UNITS.update({
    "matkernel.factor_spd.gflop_per_s": "GFLOP/s",
    "matkernel.factor_spd.unique_ratio": "ratio",
    "partition.make_design.useful_ratio": "ratio",
    "trace.overhead_s": "s/round",
})


def round_metrics(tracer: Tracer, lo: int, hi: int, counts: Counts) -> dict[str, float]:
    """Per-layer metrics of the round whose spans are [lo, hi)."""
    fid, dur, self_time, outer = tracer.arrays(lo, hi)
    names = sorted(set(tracer.groups))
    group_of = np.array([names.index(g) for g in tracer.groups], dtype=np.intp)[fid]
    values: dict[str, float] = {}
    for metric, _unit, kind, group in SPAN_METRICS:
        mine = group_of == (names.index(group) if group in names else -1)
        if kind == "calls":
            values[metric] = float(mine.sum())
        elif kind == "self_s":
            values[metric] = float(self_time[mine].sum())
        else:
            values[metric] = float(dur[mine & outer].sum())
    for metric, _unit in COUNT_METRICS:
        values[metric] = float(counts[metric])
    values["matkernel.factor_spd.gflop_per_s"] = _ratio(
        values["matkernel.factor_spd.gflop"], values["matkernel.factor_spd.s"])
    values["matkernel.factor_spd.unique_ratio"] = _ratio(
        len(counts.fingerprints), values["matkernel.factor_spd.calls"])
    values["partition.make_design.useful_ratio"] = _ratio(
        counts["partition.make_design.useful"], values["partition.make_design.calls"])
    return values
