"""What the benchmark measures: workloads, metrics and bounds.

This module is the single source of BENCHMARK.json; regenerate it with
``python3 bench/spec.py`` after editing anything here.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 30

# name -> why (one line each); the recipes live in workloads.py.
WORKLOADS = {
    "dwp-s10": "DWP base, 2 Gram layers, M=20, n=200, S=10: dispatch-bound tape "
               "(4,135 nodes/step on <=20x20 matrices), Bartlett sampler, "
               "Wishart densities, GC",
    "dgp-gi-mb200": "GI deep GP, depth 2, M=20, batch 200 of 1000, S=10: builds "
                    "200x200 SE kernels for their diagonal, so kernels and memory "
                    "traffic dominate; only minibatch workload",
    "gp-exact-n1000": "exact ARD GP, n=1000: 37 nodes around one 1000x1000 "
                      "kernel and Cholesky; LAPACK-bound control, largest tapes "
                      "so the tape-cycle memory shows most",
}

# name, unit, better, bound (share of the parent's median). The timing
# bounds are the widest allowed: even scaled to the reference speed
# (speed.py), gp-exact-n1000's times follow its varying page-fault count
# (bench/README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("step_ms.p50", "ms", "lower", 0.25),
    ("step_ms.p90", "ms", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("eval_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Spans the traced run records, by metric prefix.
SPAN_METRICS = {
    "diff_engine.lift": ("calls", "self_ms"),
    "diff_engine.dense_ops": ("calls", "self_ms"),
    "diff_engine.backward_pass": ("ms", "self_ms"),
    "diff_engine.cholesky_factor": ("calls", "self_ms"),
    "diff_engine.triangular_solve": ("calls", "self_ms"),
    "rand_dist.gwish_sample_and_logpdf": ("calls", "self_ms"),
    "rand_dist.wishart_log_density": ("calls", "self_ms"),
    "rand_dist.mvn_log_density": ("self_ms",),
    "rand_dist.normal_log_density": ("self_ms",),
    "kernels.se_ard_features": ("calls", "self_ms"),
    "kernels.se_from_gram": ("calls", "self_ms"),
    "gp_models.gp_predict_lml": ("calls", "self_ms"),
    "deep_models.gi_dgp_layer_sample": ("calls", "self_ms"),
    "dwp.dwp_elbo_batch": ("self_ms",),
    "dwp.dwp_posterior_layer": ("self_ms",),
    "dwp.dwp_conditional_testpoints": ("self_ms",),
    "dwp.gram_kernel_blocks": ("self_ms",),
    "train.adam_step": ("self_ms",),
    "bench_cli.objective": ("ms",),
}

# Metrics the traced run derives from counters rather than span arithmetic.
COUNTER_METRICS = [
    ("diff_engine.tape_nodes", "count"),
    ("diff_engine.tape_edges", "count"),
    ("diff_engine.tensors_created", "count"),
    ("diff_engine.cholesky_factor.jitter_retries", "count"),
    ("kernels.se_ard_features.out_mb", "MB"),
    ("train.train_loop.self_ms", "ms"),
    ("train.aborts", "count"),
    ("bench_cli.evaluate.ms", "ms"),
    ("bench_cli.init_params.ms", "ms"),
    ("runtime.gc.pause_ms", "ms"),
    ("runtime.gc.gen0_collections", "count"),
    ("runtime.gc.gen1_collections", "count"),
    ("runtime.gc.gen2_collections", "count"),
    ("bench.tracing_overhead", "ratio"),
]

_UNITS = {"calls": "count", "self_ms": "ms", "ms": "ms"}


def per_layer():
    """[(name, unit)] of every metric the traced run reports."""
    out = [(f"{span}.{kind}", _UNITS[kind])
           for span, kinds in SPAN_METRICS.items() for kind in kinds]
    return out + COUNTER_METRICS


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer()],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
