"""Spans and counters recorded from outside the program.

The traced run replaces public functions of the deepbayes modules with
wrappers that record a span (name, start, end, parent, phase) around each
call, and counts a few things at the same boundaries. Wrappers only call
through, so every result and every check inside the program is unchanged.
Spans stay in flat in-memory arrays until the run ends.
"""
from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import speed

# Phases: a training step's index (>= 0), or one of these.
SETUP, EVAL, AFTER = -1, -2, -3

# (module, attribute, span name). Every deepbayes module namespace that
# binds the same function object gets the wrapper too.
DENSE_OPS = ("matmul", "add", "sub", "mul", "div", "neg", "transpose", "tsum",
             "elementwise", "reshape", "getitem", "concat", "diag_part",
             "diag_embed")
WRAPPED = [("diff_engine", "lift", "diff_engine.lift")]
WRAPPED += [("diff_engine", op, "diff_engine.dense_ops") for op in DENSE_OPS]
WRAPPED += [(mod, fn, f"{mod}.{fn}") for mod, fn in [
    ("diff_engine", "cholesky_factor"), ("diff_engine", "triangular_solve"),
    ("diff_engine", "backward_pass"),
    ("rand_dist", "gwish_sample_and_logpdf"),
    ("rand_dist", "wishart_log_density"), ("rand_dist", "mvn_log_density"),
    ("rand_dist", "normal_log_density"),
    ("kernels", "se_ard_features"), ("kernels", "se_from_gram"),
    ("gp_models", "gp_predict_lml"),
    ("deep_models", "gi_dgp_layer_sample"),
    ("dwp", "dwp_elbo_batch"), ("dwp", "dwp_posterior_layer"),
    ("dwp", "dwp_conditional_testpoints"), ("dwp", "gram_kernel_blocks"),
    ("train", "adam_step"), ("train", "train_loop"),
]]

EVAL_CALS = 3    # kernel runs after an evaluation, which is longer than a step

GC_SPAN = "runtime.gc"
BOOKKEEPING = "bench.bookkeeping"   # the tracer's own counting, kept out of self times


class Recorder:
    """In-memory spans plus per-phase counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.phase = SETUP
        # counter name -> phase -> count; int keys allocate nothing the
        # collector tracks, so counting does not itself trigger collections
        self.counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.chol_attempts = 0
        self._restore: list[tuple[object, str, object]] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.nid(name))
        try:
            yield
        finally:
            self.close(i)

    def bump(self, name: str, n=1):
        self.counts[name][self.phase] += n

    # -- installing the wrappers -------------------------------------------

    def install(self):
        """Wrap the functions in WRAPPED, DiffTensor.__init__, the numpy
        Cholesky the jitter ladder calls, and hook the garbage collector."""
        import numpy.linalg
        from deepbayes import diff_engine

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "deepbayes" or k.startswith("deepbayes."))]
        for mod_name, attr, span in WRAPPED:
            owner = sys.modules.get(f"deepbayes.{mod_name}")
            fn = getattr(owner, attr, None)
            if fn is None:
                continue        # removed from the program: its metrics read 0
            wrapper = self._wrapper(fn, span)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        self._set(m, k, wrapper)

        cls = diff_engine.DiffTensor
        init = cls.__init__
        created = self.counts["diff_engine.tensors_created"]

        def counted_init(t, *args, **kwargs):
            created[self.phase] += 1
            init(t, *args, **kwargs)

        self._set(cls, "__init__", counted_init)

        chol = numpy.linalg.cholesky

        def counted_cholesky(*args, **kwargs):
            self.chol_attempts += 1
            return chol(*args, **kwargs)

        self._set(numpy.linalg, "cholesky", counted_cholesky)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, fn, span):
        nid = self.nid(span)
        after = {"diff_engine.backward_pass": self._count_tape,
                 "diff_engine.cholesky_factor": self._count_jitter,
                 "kernels.se_ard_features": self._count_kernel_bytes}.get(span)
        book = self.nid(BOOKKEEPING)
        rec = self

        if after is None:
            def wrapper(*args, **kwargs):
                i = rec.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(i)
        else:
            def wrapper(*args, **kwargs):
                attempts = rec.chol_attempts
                i = rec.open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.close(i)
                j = rec.open(book)
                after(out, args, rec.chol_attempts - attempts)
                rec.close(j)
                return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_tape(self, grads, args, _):
        tape = args[0]._tape
        if tape is None:
            return
        nodes = tape._nodes
        self.bump("diff_engine.tape_nodes", len(nodes))
        self.bump("diff_engine.tape_edges", sum(len(n._parents) for n in nodes))

    def _count_jitter(self, L, args, attempts):
        # more than one numpy Cholesky in one factorisation: the jitter
        # ladder was climbed
        if attempts > 1:
            self.bump("diff_engine.cholesky_factor.jitter_retries")

    def _count_kernel_bytes(self, K, args, _):
        self.bump("kernels.se_ard_features.out_mb", K.value.nbytes / 1e6)

    def _on_gc(self, event, info):
        # a collection is a span of its own, so it leaves the self time of
        # the span it interrupted
        if event == "start":
            self._gc_span = self.open(self.nid(GC_SPAN))
        else:
            self.close(self._gc_span)

    # -- reading the spans ---------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "phase": np.frombuffer(self.phase_of, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}


class GcLog:
    """Start, end and generation of every collection while entered."""

    def __init__(self):
        self.events: list[tuple[float, float, int]] = []

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        return False

    def _on_gc(self, event, info):
        if event == "start":
            self._t0 = time.perf_counter()
        else:
            self.events.append((self._t0, time.perf_counter(), info["generation"]))


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of its interval."""
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


class ModelProbe:
    """Forwards the model API train_loop uses and timestamps the boundaries
    between steps: each call to `objective` starts a step, and evaluations
    are cut out. With `calibrate` it runs the speed kernel after each step
    and each evaluation, outside both. With a Recorder it also opens the
    bench_cli spans and moves the recorder's phase."""

    def __init__(self, model, rec: Recorder | None = None, calibrate: bool = False):
        self.model = model
        self.rec = rec
        self.calibrate = calibrate
        self.step_starts: list[float] = []
        self.evals: list[tuple[float, float]] = []   # (start, end)
        self.cals: list[tuple[float, float, float]] = []   # (start, end, kernel ms)

    def _calibrate(self, runs: int = 1):
        t0 = time.perf_counter()
        ms = float(np.median([speed.kernel_ms() for _ in range(runs)]))
        self.cals.append((t0, time.perf_counter(), ms))

    def init_params(self):
        if self.rec is None:
            return self.model.init_params()
        with self.rec.span("bench_cli.init_params"):
            return self.model.init_params()

    def objective(self, *args, **kwargs):
        if self.calibrate and self.step_starts:
            self._calibrate()     # right after the step that just ended
        self.step_starts.append(time.perf_counter())
        if self.rec is None:
            return self.model.objective(*args, **kwargs)
        self.rec.phase = len(self.step_starts) - 1
        with self.rec.span("bench_cli.objective"):
            return self.model.objective(*args, **kwargs)

    def evaluate(self, *args, **kwargs):
        t0 = time.perf_counter()
        if self.rec is None:
            out = self.model.evaluate(*args, **kwargs)
        else:
            step, self.rec.phase = self.rec.phase, EVAL
            try:
                with self.rec.span("bench_cli.evaluate"):
                    out = self.model.evaluate(*args, **kwargs)
            finally:
                self.rec.phase = step
        self.evals.append((t0, time.perf_counter()))
        if self.calibrate:
            self._calibrate(EVAL_CALS)
        return out

    def step_seconds(self, end: float) -> list[float]:
        """Wall seconds of each step, evaluations and calibrations excluded.
        Step i runs from its objective call to the next one and so includes
        the next step's batching and parameter wrapping; the last step ends
        at `end` (the start of the final evaluation)."""
        bounds = self.step_starts + [end]
        cut = np.asarray(self.evals + [c[:2] for c in self.cals]).reshape(-1, 2)
        out = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            inside = (cut[:, 0] >= a) & (cut[:, 1] <= b)
            out.append(b - a - float(np.sum(cut[inside, 1] - cut[inside, 0])))
        return out

    def scales(self) -> tuple[np.ndarray, np.ndarray]:
        """speed.scales of the calibration run right after each step but the
        last, and right after each evaluation."""
        starts = np.asarray([c[0] for c in self.cals])
        sc = speed.scales([c[2] for c in self.cals])
        steps = np.searchsorted(starts, self.step_starts[1:]) - 1
        evals = np.searchsorted(starts, [b for _, b in self.evals])
        return sc[steps], sc[evals]
