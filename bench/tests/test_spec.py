import json
import re

import numpy as np

import run
import spec
from tracing import Recorder

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_metric_and_workload_names_are_well_formed():
    bj = spec.benchmark_json()
    names = [w["name"] for w in bj["workloads"]]
    names += [m["name"] for m in bj["end_to_end"] + bj["per_layer"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for m in bj["end_to_end"] + bj["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    for w in bj["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert all(0 < m["bound"] <= 0.25 for m in bj["end_to_end"])
    setup = next(m for m in bj["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bj["end_to_end"])


def test_traced_run_reports_exactly_the_per_layer_metrics():
    # a recorder with one step of spans; every metric must be present
    rec = Recorder()
    for step in range(3):
        rec.phase = step
        with rec.span("bench_cli.objective"):
            with rec.span("diff_engine.lift"):
                pass
    rec.phase = -2
    with rec.span("bench_cli.evaluate"):
        pass
    m = run.layer_metrics(rec, n_run=3, aborted=None)

    class Probe:
        step_starts = [0.0, 1.0, 2.0]
        evals = [(2.5, 2.6)]

    m.update(run.gc_metrics([(0.5, 0.6, 0), (1.5, 1.7, 2)], Probe, 1, 2))
    m["bench.tracing_overhead"] = 1.0
    assert set(m) == {n for n, _ in spec.per_layer()}
    assert m["diff_engine.lift.calls"] == 1.0
    assert np.isclose(m["runtime.gc.pause_ms"], 200.0)
    assert m["runtime.gc.gen2_collections"] == 1
