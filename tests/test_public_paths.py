"""Every public function is on a path the program runs.

The documented commands run under sys.setprofile, which records the code
object of every Python function entered: `check`, `toy` on both synthetic
datasets, a 2-step run of every model kind on cubic-toy (and of the BNNs
under their other priors), and a run on a small CSV file. Each function
that a module lists in `__all__` must have been entered; one that is not is
a wrapper or a reference computation that only tests call, and belongs in
tests/oracles.py or nowhere. The layer kinds keep their work in methods, so
for the classes that deep_models and dwp list, each method written in the
package (inherited ones included, dataclass-made ones not) must have been
entered too.
"""
import importlib
import inspect
import os
import pkgutil
import sys

import numpy as np

import deepbayes
from deepbayes.bench_cli import _MODEL_KEYS_READ, ExperimentConfig, main, run_experiment


LAYER_MODULES = ("deep_models", "dwp")


def _public_functions():
    package = os.path.dirname(deepbayes.__file__)
    for info in pkgutil.iter_modules(deepbayes.__path__):
        mod = importlib.import_module(f"deepbayes.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj.__code__
            elif inspect.isclass(obj) and info.name in LAYER_MODULES:
                for meth, fn in inspect.getmembers(obj, inspect.isfunction):
                    if os.path.dirname(fn.__code__.co_filename) == package:
                        yield f"{info.name}.{name}.{meth}", fn.__code__


def _documented_runs(tmp_path):
    assert main(["check"]) == 0
    for name in ("cubic-toy", "deep-linear"):
        assert main(["--out", str(tmp_path), "toy", name]) == 0
    train = {"steps": 2, "anneal_steps": 0, "eval_every": 1, "train_samples": 2,
             "eval_samples": 2}
    runs = [{"model": kind} for kind in _MODEL_KEYS_READ]
    runs += [{"model": "bnn-gi", "prior": "scale"}, {"model": "bnn-fac", "prior": "standard"}]
    for run in runs:
        small = {k: v for k, v in {"M": 10, "widths": [5, 5]}.items()
                 if k in _MODEL_KEYS_READ[run["model"]]}
        cfg = ExperimentConfig.from_dict({**run, **small, "out": str(tmp_path),
                                          "train": train})
        assert run_experiment(cfg).aborted is None, run
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.standard_normal((30, 2)), rng.standard_normal(30)])
    csv = tmp_path / "small.csv"
    np.savetxt(csv, data, delimiter=",", header="x0,x1,y", comments="")
    (tmp_path / "csv.yaml").write_text(
        f"model: dgp-gi\ndataset: {csv}\nM: 10\ntrain:\n  steps: 2\n  anneal_steps: 0\n"
        "  eval_every: 1\n  train_samples: 2\n  eval_samples: 2\n")
    assert main(["--out", str(tmp_path), "run", str(tmp_path / "csv.yaml")]) == 0


def test_every_public_function_is_entered_by_the_documented_commands(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _documented_runs(tmp_path)
    finally:
        sys.setprofile(None)
    public = dict(_public_functions())
    assert len(public) > 50
    missing = sorted(name for name, code in public.items() if code not in entered)
    assert not missing, f"public functions that no documented command enters: {missing}"
