"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload dwp-s10 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The untraced run (--trace 0) trains the
workload's model through ``train.train_loop`` in one closed loop (one caller,
each step starting when the last ends), timestamping only step boundaries,
and prints every end-to-end metric. The traced run (--trace 1) trains once
untraced and once with spans around the public functions of each layer, and
prints the per-layer metrics and the tracing overhead. Both check the
program's outputs; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. Records and spans go to
.bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3          # setup_s is the median of this many fresh processes
SETUP_CALS = 3             # kernel runs after each set-up, for its speed
TRACED_TIMED_STEPS = 40    # timed steps in each phase of a traced run
TRACED_EVALS = 2           # evaluations after step 0 in each phase of a traced run
GP_LML_RTOL = 1e-8


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build data, model and initial parameters, print "
                         "'ready' and exit (used to time setup)")
    return ap.parse_args(argv)


class Checks:
    """Operations attempted and failed: training steps, evaluations and
    output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = ""):
        self.ops(1, 0 if ok else 1)
        self.lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            **{v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def build(workload, seed):
    ds = workload.make_data(seed)
    return ds, workload.make_model(ds, seed)


def setup_only(args) -> int:
    import speed
    from workloads import WORKLOADS
    _, model = build(WORKLOADS[args.workload], args.seed)
    model.init_params()
    print("ready", flush=True)
    speed.kernel_ms()      # first run: makes the kernel's arrays
    print(statistics.median(speed.kernel_ms() for _ in range(SETUP_CALS)), flush=True)
    return 0


def time_setups(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to the first training step (imports, data,
    model, init_params), in fresh processes, and the speed kernel's median
    milliseconds in each process right after."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    wall, cal = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            try:
                line = p.stdout.readline()
                t = time.perf_counter() - t0
                rest = p.stdout.read().split()
                ok = p.wait(timeout=60) == 0 and line.strip() == "ready"
            finally:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        if not ok or len(rest) != 1:
            raise RuntimeError("setup process failed")
        wall.append(t)
        cal.append(float(rest[0]))
    return wall, cal


def train(workload, seed, steps, evals, rec=None, calibrate=False):
    """One closed-loop training run through train.train_loop."""
    from deepbayes import train as tr
    from tracing import ModelProbe
    ds, model = build(workload, seed)
    probe = ModelProbe(model, rec, calibrate)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    res = tr.train_loop(probe, ds, workload.train_config(seed, steps, evals))
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    res["rusage"] = {"user_s": r1.ru_utime - r0.ru_utime,
                     "sys_s": r1.ru_stime - r0.ru_stime,
                     "minor_faults": r1.ru_minflt - r0.ru_minflt}
    return ds, model, probe, res


def summarize(label, probe, res, checks: Checks, timed_from: int) -> dict:
    """Step and evaluation times of one training run, plus its output checks.
    With calibrations they are scaled to the reference speed (speed.py)."""
    import numpy as np
    n_run = len(probe.step_starts)
    aborted = res["aborted"]
    checks.ops(n_run, 1 if aborted else 0)
    checks.ops(len(probe.evals), 0)
    checks.check(f"{label}: no abort (loss and gradients finite)", aborted is None,
                 "" if aborted is None else json.dumps(aborted))
    end = probe.evals[-1][0] if aborted is None else time.perf_counter()
    wall = np.asarray(probe.step_seconds(end))[timed_from:n_run - 1]
    eval_wall = np.asarray([b - a for a, b in probe.evals])
    if probe.cals:
        step_scale, eval_scale = probe.scales()
        timed, evals = wall * step_scale[timed_from:n_run - 1], eval_wall * eval_scale
    else:
        timed, evals = wall, eval_wall
    # The step-0 evaluation runs on a near-empty heap; like step 0 it pays
    # first-call costs, so neither is in the medians.
    evals_timed = evals[1:]
    trace = res["trace"]
    first, last = trace[0], trace[-1]
    improved = (np.isfinite(last["elbo_per_point"])
                and last["elbo_per_point"] >= first["elbo_per_point"])
    checks.check(f"{label}: final ELBO >= step-0 ELBO", bool(improved),
                 f"{first['elbo_per_point']:.6g} -> {last['elbo_per_point']:.6g}")
    return {"steps_run": n_run, "timed_steps": int(timed.size), "rusage": res["rusage"],
            "step_ms": (timed * 1e3).tolist(), "eval_s": evals.tolist(),
            "step_ms_wall": (wall * 1e3).tolist(), "eval_s_wall": eval_wall.tolist(),
            "cal_ms": [c[2] for c in probe.cals],
            "step_ms.p50": float(np.median(timed)) * 1e3,
            "step_ms.p90": float(np.percentile(timed, 90)) * 1e3,
            "steps_per_s": timed.size / float(np.sum(timed)),
            "eval_s.p50": float(np.median(evals_timed)),
            "quality": {k: last[k] for k in ("elbo_per_point",
                                             "test_ll_per_point", "rmse")},
            "quality_step0": {k: first[k] for k in ("elbo_per_point",
                                                    "test_ll_per_point")}}


def gp_lml_check(model, params, ds, checks: Checks):
    """The taped LML at the final parameters against scipy's cho_factor."""
    import numpy as np
    import scipy.linalg as sla
    from deepbayes import diff_engine as de
    from deepbayes import rand_dist as rd
    n = ds.X_train.shape[0]
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in params.items()}
        taped = float(model.objective(p, ds.X_train, ds.y_train, n, 1,
                                      rd.RngStream(0), 1.0).value)
    X = ds.X_train / np.exp(params["log_ls"])
    sq = np.sum(X * X, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0)
    K = np.exp(params["log_sf2"]) * np.exp(-0.5 * d2)
    K[np.diag_indices(n)] += np.exp(params["log_noise"])
    c = sla.cho_factor(K, lower=True)
    y = ds.y_train
    ref = float(-0.5 * y @ sla.cho_solve(c, y) - np.sum(np.log(np.diag(c[0])))
                - 0.5 * n * np.log(2 * np.pi))
    rel = abs(taped - ref) / abs(ref)
    checks.check("taped LML matches scipy cho_factor", rel <= GP_LML_RTOL,
                 f"rel err {rel:.2e}")


def source_hash() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "deepbayes").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def per_step_counts(rec, n_run) -> dict:
    """tape_nodes, tensors_created and cholesky_factor calls of steps
    0..n_run-2 (the last step does not wrap the next step's parameters)."""
    import numpy as np
    a = rec.arrays()
    out = {k: [rec.counts[f"diff_engine.{k}"].get(s, 0) for s in range(n_run - 1)]
           for k in ("tape_nodes", "tensors_created")}
    ph = a["phase"][a["name_id"] == rec.nid("diff_engine.cholesky_factor")]
    ph = ph[(ph >= 0) & (ph < n_run - 1)]
    out["cholesky_factor.calls"] = np.bincount(ph, minlength=n_run - 1).tolist()
    return out


def gc_metrics(events, probe, lo: int, hi: int) -> dict:
    """Collector pauses per timed step (lo..hi-1, evaluations cut out) and
    collections per generation over the whole run."""
    import numpy as np
    ev = np.asarray(events, dtype=np.float64).reshape(-1, 3)
    evals = np.asarray(probe.evals).reshape(-1, 2)
    t0 = ev[:, 0]
    timed = (t0 >= probe.step_starts[lo]) & (t0 < probe.step_starts[hi])
    timed &= ~np.any((t0[:, None] >= evals[:, 0]) & (t0[:, None] < evals[:, 1]), axis=1)
    gens = np.bincount(ev[:, 2].astype(int), minlength=3)
    m = {"runtime.gc.pause_ms": float(np.sum(ev[timed, 1] - t0[timed])) * 1e3 / (hi - lo)}
    m.update({f"runtime.gc.gen{g}_collections": int(gens[g]) for g in range(3)})
    return m


def layer_metrics(rec, n_run, aborted) -> dict:
    """Layer metrics of the traced phase: per timed step unless the name says
    per call (evaluate, init_params) or per run (aborts)."""
    import numpy as np
    from tracing import self_times
    from workloads import WARMUP_STEPS
    a = rec.arrays()
    selft = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    lo, hi = WARMUP_STEPS, n_run - 1
    n = hi - lo
    timed = (a["phase"] >= lo) & (a["phase"] < hi)

    def of(span):
        return a["name_id"] == rec.nid(span)

    m = {}
    for span, kinds in spec.SPAN_METRICS.items():
        sel = of(span) & timed
        vals = {"calls": sel.sum() / n, "self_ms": selft[sel].sum() * 1e3 / n,
                "ms": dur[sel].sum() * 1e3 / n}
        for k in kinds:
            m[f"{span}.{k}"] = float(vals[k])
    for name in ("diff_engine.tape_nodes", "diff_engine.tape_edges",
                 "diff_engine.tensors_created",
                 "diff_engine.cholesky_factor.jitter_retries",
                 "kernels.se_ard_features.out_mb"):
        m[name] = sum(rec.counts[name].get(s, 0) for s in range(lo, hi)) / n
    # train_loop's own work is spread over every step it ran
    m["train.train_loop.self_ms"] = float(selft[of("train.train_loop")].sum()) * 1e3 / n_run
    m["train.aborts"] = 0 if aborted is None else 1
    m["bench_cli.evaluate.ms"] = float(np.mean(dur[of("bench_cli.evaluate")])) * 1e3
    m["bench_cli.init_params.ms"] = float(dur[of("bench_cli.init_params")].sum()) * 1e3
    return m


def run_untraced(args, workload, checks: Checks, record: dict) -> dict:
    import speed
    from workloads import WARMUP_STEPS
    wall, cal = time_setups(args)
    setups = [t * speed.REFERENCE_MS / c for t, c in zip(wall, cal)]
    checks.ops(len(setups), 0)
    steps = workload.plan_steps(args.seconds)
    ds, model, probe, res = train(workload, args.seed, steps, workload.evals,
                                  calibrate=True)
    s = summarize("untraced", probe, res, checks, WARMUP_STEPS)
    if args.workload == "gp-exact-n1000":
        gp_lml_check(model, res["params"], ds, checks)
    record.update(run=s, setup_s=setups, setup_s_wall=wall, setup_cal_ms=cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": statistics.median(setups),
            "step_ms.p50": s["step_ms.p50"], "step_ms.p90": s["step_ms.p90"],
            "steps_per_s": s["steps_per_s"], "eval_s.p50": s["eval_s.p50"],
            "peak_rss_mb": rss_mb}


def run_traced(args, workload, checks: Checks, record: dict) -> dict:
    """An untraced phase (the overhead baseline, and the collector's metrics
    undisturbed by wrappers), then the same training traced."""
    import gc

    import numpy as np
    from tracing import AFTER, GcLog, Recorder
    from workloads import WARMUP_STEPS
    steps = WARMUP_STEPS + TRACED_TIMED_STEPS + 1
    with GcLog() as gclog:
        _, _, probe, res = train(workload, args.seed, steps, TRACED_EVALS)
    plain = summarize("untraced", probe, res, checks, WARMUP_STEPS)
    runtime = gc_metrics(gclog.events, probe, WARMUP_STEPS, len(probe.step_starts) - 1)
    del probe, res
    gc.collect()   # the traced phase starts from a collected heap

    rec = Recorder()
    rec.install()
    try:
        ds, model, probe, res = train(workload, args.seed, steps, TRACED_EVALS, rec)
    finally:
        rec.phase = AFTER
        rec.uninstall()
    traced = summarize("traced", probe, res, checks, WARMUP_STEPS)
    if args.workload == "gp-exact-n1000":
        gp_lml_check(model, res["params"], ds, checks)

    n_run = len(probe.step_starts)
    counts = per_step_counts(rec, n_run)
    if workload.full_batch:
        for k, v in counts.items():
            checks.check(f"{k} equal on every step", len(set(v)) == 1,
                         f"{min(v)}..{max(v)}")
    # The same program and seed must count the same in every run.
    first = {k: v[0] for k, v in counts.items()}
    OUT.mkdir(exist_ok=True)
    store = OUT / f"counts-{args.workload}-seed{args.seed}-{source_hash()}.json"
    if store.exists():
        before = json.loads(store.read_text())
        checks.check("step counts equal to an earlier run on this seed",
                     before == first, f"{before} vs {first}")
    else:
        store.write_text(json.dumps(first))

    np.savez(OUT / f"spans-{args.workload}-seed{args.seed}.npz", **rec.arrays())
    record.update(untraced_phase=plain, traced_phase=traced, counts=counts)
    m = layer_metrics(rec, n_run, res["aborted"])
    m.update(runtime)
    m["bench.tracing_overhead"] = traced["step_ms.p50"] / plain["step_ms.p50"]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads these once, when numpy loads, so they must be set first.
    for v in THREAD_VARS:
        os.environ[v] = "1"
    if not (SRC / "deepbayes" / "__init__.py").is_file():
        print(f"bench: no deepbayes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    checks = Checks()
    try:
        metrics = (run_traced if args.trace else run_untraced)(
            args, workload, checks, record)
    except Exception:
        traceback.print_exc()
        print(f"bench: {args.workload} seed {args.seed} failed", file=sys.stderr)
        return 1

    units = dict(spec.per_layer() if args.trace else
                 [(n, u) for n, u, _, _ in spec.END_TO_END])
    record.update(checks=checks.lines, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    env = record["environment"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for line in checks.lines:
        print(line)
    run = record.get("run") or record["traced_phase"]
    print(f"steps run {run['steps_run']}, timed {run['timed_steps']}, "
          f"evaluations {len(run['eval_s'])}; final elbo/pt "
          f"{run['quality']['elbo_per_point']:.6f}, test ll/pt "
          f"{run['quality']['test_ll_per_point']:.6f}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
