"""In-memory span tracing of geodescent's layers, installed from outside.

`instrument(tracer)` swaps the public functions and manifold/objective methods
of `geodescent` for wrappers that record one span per call: name, start, end,
parent span and run id.  Spans stay in flat arrays while the benchmark runs
and are written out once at the end.  Nothing in the package is edited; every
patch is undone when the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array
from dataclasses import dataclass

MAPS = ("exp", "log", "dist", "transport", "project_tangent", "sample_tangent_ball")
MANIFOLDS = ("oblique", "grassmann", "sphere")
VERIFY_CHECKS = {
    "two_step": "check_two_step",
    "log_bilipschitz": "check_log_bilipschitz",
    "transport_contraction": "check_transport_contraction",
    "holonomy": "check_holonomy",
    "linearization": "check_linearization",
    "gradient_taylor": "check_gradient_taylor",
    "descent": "check_descent",
    "coupling_probe": "coupling_probe",
}


class Tracer:
    """Flat span store.  A span's parent is the innermost span open when it
    started; spans are appended in start order, so a parent's index is always
    below its children's."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self._stack: list[int] = []
        self.run_id = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        name_id, start, end, parent, run = self.name_id, self.start, self.end, self.parent, self.run
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        return traced

    def __len__(self):
        return len(self.name_id)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def inside(self, ancestor: str) -> list[bool]:
        """Per span: is it, or is one of its ancestors, named `ancestor`?"""
        aid = self._ids.get(ancestor, -1)
        flags = [False] * len(self)
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            flags[i] = nid == aid or (p >= 0 and flags[p])
        return flags

    def write_csv_gz(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,run\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.run[i]}\n")


@dataclass
class LayerStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


def aggregate(tracer: Tracer) -> dict[str, LayerStats]:
    """Calls, inclusive seconds and self seconds per span name."""
    stats = {name: LayerStats() for name in tracer.names}
    selfs = tracer.self_times()
    for i, nid in enumerate(tracer.name_id):
        st = stats[tracer.names[nid]]
        st.calls += 1
        st.incl_s += tracer.end[i] - tracer.start[i]
        st.self_s += selfs[i]
    return stats


def count_inside(tracer: Tracer, match, ancestor: str) -> tuple[int, float]:
    """Calls and self seconds of spans whose name satisfies `match`, counting
    only those under a span named `ancestor`."""
    flags = tracer.inside(ancestor)
    selfs = tracer.self_times()
    calls, secs = 0, 0.0
    for i, nid in enumerate(tracer.name_id):
        if flags[i] and match(tracer.names[nid]):
            calls += 1
            secs += selfs[i]
    return calls, secs


def _patch_everywhere(modules, original, replacement, undo):
    """Rebind every module-level name that refers to `original`."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original, True))


def _patch_method(cls, meth, replacement, undo):
    own = meth in cls.__dict__
    undo.append((cls, meth, cls.__dict__.get(meth), own))
    setattr(cls, meth, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap geodescent's layers with spans for the duration of the block."""
    import geodescent
    from geodescent import cli, harness, manifolds, objectives, optimizer, verify

    modules = (geodescent, cli, harness, manifolds, objectives, optimizer, verify)
    undo: list = []
    try:
        classes = {"oblique": manifolds.Oblique, "grassmann": manifolds.Grassmann,
                   "sphere": manifolds.Sphere}
        for tag in MANIFOLDS:
            cls = classes[tag]
            for meth in MAPS:
                _patch_method(cls, meth, tracer.wrap(f"manifolds.{tag}.{meth}",
                                                     getattr(cls, meth)), undo)
        for cls in (objectives.DiagonalQuadratic, objectives.KPCA, objectives.BurerMonteiro):
            _patch_method(cls, "value", tracer.wrap("objectives.value", cls.value), undo)
        _patch_method(objectives.Objective, "rgrad",
                      tracer.wrap("objectives.rgrad", objectives.Objective.rgrad), undo)
        _patch_method(objectives.DiagonalQuadratic, "exact_hess",
                      tracer.wrap("objectives.hvp", objectives.DiagonalQuadratic.exact_hess),
                      undo)
        functions = [
            (objectives.hess_vec, "objectives.hvp"),
            (objectives.estimate_smoothness, "objectives.estimate_smoothness"),
            (objectives.min_hess_eig, "objectives.min_hess_eig"),
            (optimizer.run, "optimizer.run"),
            (optimizer.prgd_step, "optimizer.prgd_step"),
            (harness.run_experiment, "harness.run_experiment"),
            (harness.write_trace_csv, "harness.write_trace_csv"),
        ]
        functions += [(getattr(verify, fn), f"verify.{short}")
                      for short, fn in VERIFY_CHECKS.items()]
        for fn, name in functions:
            _patch_everywhere(modules, fn, tracer.wrap(name, fn), undo)
        yield tracer
    finally:
        _undo(undo)


def _undo(undo):
    for owner, attr, original, own in reversed(undo):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class StepClock:
    """Timestamps for the bounded `us_per_iter`, cheap enough for plain runs.

    `installed()` wraps `optimizer.prgd_step` to take one timestamp per step,
    and each lemma check and the coupling probe of `verify` to time the call.
    `end_run()` turns a run's step timestamps into blocks of `block` steps.
    Both give segments `(kind, seconds, units)`: a block is `block` steps, a
    check call is its `n_samples` and the probe is its number of steps.  The
    k-th check call of a run has kind `verify.<function>#k`, because the
    harness calls `check_descent` twice with different step sizes.
    """

    def __init__(self, block: int):
        self.block = block
        self.stamps: list[float] = []
        self.segments: list[tuple[str, float, int]] = []
        self._checks = 0

    def end_run(self):
        s, b = self.stamps, self.block
        self.segments += [("optimizer.prgd_step", s[i + b] - s[i], b)
                          for i in range(0, len(s) - b, b)]
        self.stamps = []
        self._checks = 0

    def _step(self, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.stamps.append(perf())
            return fn(*args, **kwargs)

        return timed

    def _check(self, name, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf()
            rep = fn(*args, **kwargs)
            seconds = perf() - t0
            units = len(rep.psi) if hasattr(rep, "psi") else rep.n_samples
            self.segments.append((f"verify.{name}#{self._checks}", seconds, units))
            self._checks += 1
            return rep

        return timed

    @contextlib.contextmanager
    def installed(self):
        import geodescent
        from geodescent import cli, harness, manifolds, objectives, optimizer, verify

        modules = (geodescent, cli, harness, manifolds, objectives, optimizer, verify)
        undo: list = []
        try:
            _patch_everywhere(modules, optimizer.prgd_step, self._step(optimizer.prgd_step),
                              undo)
            for fn in VERIFY_CHECKS.values():
                original = getattr(verify, fn)
                _patch_everywhere(modules, original, self._check(fn, original), undo)
            yield self
        finally:
            _undo(undo)
