"""One line per (configuration, counter) of what one objective or training
step records and calls, read from the tape and from one wrapper of the
engine's LAPACK and BLAS handles:

    PYTHONPATH=src python tests/counts.py > tests/counts.txt

tests/test_counts.py diffs the output against the committed
tests/counts.txt, so a change that moves a count shows as a diff of lines
that name the configuration and the counter. Each line reads
`<data> <kind> [prior=<prior>] M=<M> S=<S> <phase> <counter> <value>`.

Phases, all at the model's init parameters with RngStream(0), the first two
on one tape at kl_scale 1: `objective` runs the objective over the whole
training set and its backward; `step` runs a training step as
train._loss_and_grads does (the objective, its negation and the backward);
`evaluate` runs the model's evaluate as training does, at the benchmark's
50 evaluation samples, off the tape. Counters:
- `nodes`: tape nodes, and `nodes.<op>` per op tag (`nodes.param` for the
  parameters);
- `reached`: op nodes the loss reaches, each of whose VJPs the backward runs
  once;
- `factorised`: matrices factorised by diff_engine._chol_in_place (a stack
  of S counts S), and `factorised.<op>` per op;
- `climbs`: matrices that go up the jitter ladder, and `climbs.<op>` per op;
- `potrf`, `trtrs`, `trtri`, `dtrtri`, `dtrmm`, `dlauum`: calls of each
  LAPACK or BLAS routine;
- `peak_kb` (evaluate only): the tracemalloc peak of one evaluation in KB,
  after a first evaluation that pays the one-time costs.

The configurations are fingerprint.py's at S=3 (every kind on cubic-toy at
M=10, every kind but blr on criterion 14's data at M=20, bnn-gi under prior:
scale on both), the kinds that solve against stacks of factors (bnn-gi,
dgp-gi, dwp) on both datasets at the benchmark's S=10, and the three
benchmark workloads' steps: dwp-s10, dgp-gi-mb200 (the first 200 rows of
deep-linear as the batch) and gp-exact-n1000, and the evaluations of dwp-s10
and dgp-gi-mb200 (all 1000 rows of deep-linear).

What the counts should read: each matrix is factorised once per layer per
sample, and the first layer's, which sees only the parameters and the batch,
once per objective (bnn-gi 1 + 2S, dgp-gi 2 + 2S, dwp 2 + 4S). A stack of
factors is inverted on its first solve, one trtri per member, and solved
against by matmul from then on; a single factor, or a stack that fails the
condition check (the K_uu stacks on cubic-toy), is solved by trtrs."""
import contextlib
import gc
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.bench_cli import ExperimentConfig, _make_model, gen_deep_linear

from fingerprint import configurations, synthetic_200

ROUTINES = ("potrf", "trtrs", "trtri", "dtrtri", "dtrmm", "dlauum")


@contextlib.contextmanager
def engine_calls():
    """Count, while open, the calls of diff_engine's handles on each routine
    of ROUTINES (key: the routine), the matrices _chol_in_place factorises
    (key: 'factorised.<op>'; a stack of S counts S) and the matrices that go
    up the jitter ladder (key: 'climbs.<op>'). Yields the Counter."""
    calls = Counter()
    keys = {f"_{r.upper()}": lambda *a, r=r: (r, 1) for r in ROUTINES}
    keys["_chol_in_place"] = lambda sym, op: (f"factorised.{op}", int(np.prod(sym.shape[:-2])))
    keys["_jitter_ladder"] = lambda m, diag, op: (f"climbs.{op}", 1)
    saved = {name: getattr(de, name) for name in keys}

    def counted(fn, key):
        def call(*args, **kwargs):
            k, n = key(*args)
            calls[k] += n
            return fn(*args, **kwargs)
        return call

    for name, key in keys.items():
        setattr(de, name, counted(saved[name], key))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(de, name, fn)


def reached(loss) -> set:
    """The ids of the op nodes whose VJPs a backward pass from loss runs."""
    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if node._vjp is not None and id(node) not in seen:
            seen.add(id(node))
            todo.extend(q for q, _ in node._parents)
    return seen


def count(model, X, y, n, S, phase) -> dict:
    """The counters of one objective or step (see the module docstring)."""
    with engine_calls() as calls, de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in model.init_params().items()}
        loss = model.objective(p, X, y, n, S, rd.RngStream(0), 1.0)
        if phase == "step":
            loss = de.elementwise("affine", loss, a=-1.0)
        de.backward_pass(loss)
        ops = Counter("param" if t.op is None else t.op for t in tape._nodes)
        out = {"nodes": len(tape._nodes)}
        out.update((f"nodes.{op}", c) for op, c in sorted(ops.items()))
        out["reached"] = len(reached(loss))
    for kind in ("factorised", "climbs"):
        mine = sorted((k, c) for k, c in calls.items() if k.startswith(kind + "."))
        out[kind] = sum(c for _, c in mine)
        out.update(mine)
    out.update((r, calls[r]) for r in ROUTINES)
    return out


def eval_peak(model, ds, S) -> dict:
    """The `peak_kb` of one evaluation (see the module docstring)."""
    params = model.init_params()
    model.evaluate(params, ds, rd.RngStream(0), S)
    gc.collect()
    tracemalloc.start()
    try:
        model.evaluate(params, ds, rd.RngStream(0), S)
        return {"peak_kb": round(tracemalloc.get_traced_memory()[1] / 1024)}
    finally:
        tracemalloc.stop()


def cases():
    """(label, counters) for each configuration, counters() its dict."""
    def label(data, cfg, S, phase):
        prior = "" if cfg.prior == "neal" else f" prior={cfg.prior}"
        return f"{data} {cfg.model}{prior} M={cfg.M} S={S} {phase}"

    fingerprinted = list(configurations())
    for S in (3, 10):
        for data, ds, cfg in fingerprinted:
            if S == 3 or (cfg.model in ("bnn-gi", "dgp-gi", "dwp") and cfg.prior == "neal"):
                yield label(data, cfg, S, "objective"), partial(
                    count, _make_model(cfg, ds), ds.X_train, ds.y_train, len(ds.y_train), S,
                    "objective")
    c14, dl = synthetic_200(0), gen_deep_linear(0)
    for data, ds, cfg, rows, S in [
            ("criterion-14", c14, ExperimentConfig(model="dwp", depth=3, M=20), 200, 10),
            ("deep-linear[:200]", dl, ExperimentConfig(model="dgp-gi", depth=2, M=20), 200, 10),
            ("deep-linear", dl, ExperimentConfig(model="gp"), 1000, 1)]:
        yield label(data, cfg, S, "step"), partial(
            count, _make_model(cfg, ds), ds.X_train[:rows], ds.y_train[:rows], len(ds.y_train),
            S, "step")
    for data, ds, cfg in [("criterion-14", c14, ExperimentConfig(model="dwp", depth=3, M=20)),
                          ("deep-linear", dl, ExperimentConfig(model="dgp-gi", depth=2, M=20))]:
        yield label(data, cfg, 50, "evaluate"), partial(eval_peak, _make_model(cfg, ds), ds, 50)


def main():
    for label, counters in cases():
        for counter, value in counters().items():
            print(label, counter, value)


if __name__ == "__main__":
    main()
