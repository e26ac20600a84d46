import json

import compare


def _write(path, workload, values):
    with open(path, "w") as fh:
        for v in values:
            metrics = {name: {"value": x, "unit": "u"} for name, x in v.items()}
            fh.write(json.dumps({"workload": workload, "seed": 0, "trace": 0,
                                 "result": {"metrics": metrics}}) + "\n")


def test_spread_is_quartile_distance_over_median():
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (4.5 - 1.5) / 3.0
    assert compare.spread([7.0]) == 0.0


def test_compare_lines_and_verdicts(tmp_path):
    base = [{"step_ms.p50": 100.0, "steps_per_s": 10.0, "eval_s.p50": 1.0,
             "diff_engine.tape_nodes": 37.0}] * 5
    new = [{"step_ms.p50": 150.0, "steps_per_s": 20.0, "eval_s.p50": 1.01,
            "diff_engine.tape_nodes": 30.0}] * 5
    # a noisy metric: spread above its bound whatever the medians do
    for i, run in enumerate(new):
        new[i] = dict(run, **{"peak_rss_mb": [100.0, 200.0, 300.0, 400.0, 500.0][i]})
    for i, run in enumerate(base):
        base[i] = dict(run, **{"peak_rss_mb": 300.0})
    _write(tmp_path / "a.jsonl", "w1", base)
    _write(tmp_path / "b.jsonl", "w1", new)
    lines = compare.compare(compare.load(tmp_path / "a.jsonl"),
                            compare.load(tmp_path / "b.jsonl"))
    by_metric = {line.split()[1]: line for line in lines}
    assert len(lines) == 5 and all(line.startswith("w1") for line in lines)
    assert by_metric["step_ms.p50"].endswith("worse")
    assert "new/base  1.5000" in by_metric["step_ms.p50"]
    assert by_metric["steps_per_s"].endswith("better")      # higher is better
    assert by_metric["eval_s.p50"].endswith("same")
    assert by_metric["peak_rss_mb"].endswith("unresolved")
    assert by_metric["diff_engine.tape_nodes"].endswith("0.8108")   # no bound, no verdict
