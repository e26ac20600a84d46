"""Datasets, experiment configs and orchestration, results, and the CLI;
the models themselves live in deepbayes.models."""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import scipy.linalg as sla

from . import deep_models as dm
from . import diff_engine as de
from . import gp_models as gm
from . import rand_dist as rd
from .kernels import KernelParams, se_ard_features
from .models import (BlrViModel, BnnModel, DgpModel, DwpModel, GpLmlModel, SvgpModel,
                     _MonteCarloModel)
from .train import TrainConfig, _is_int, check_count, train_loop

__all__ = ["Dataset", "ExperimentConfig", "ExperimentResult",
           "gen_cubic_toy", "gen_deep_linear", "load_csv", "run_experiment",
           "main"]


# -- datasets -----------------------------------------------------------------

@dataclass
class Dataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    x_mean: np.ndarray = None
    x_std: np.ndarray = None
    y_mean: float = 0.0
    y_std: float = 1.0
    extra: dict = field(default_factory=dict)

    def denormalize_y(self, y):
        return np.asarray(y) * self.y_std + self.y_mean


def _normalize(X_tr, y_tr, X_te, y_te):
    """Normalization constants come from the training split only."""
    xm = X_tr.mean(axis=0)
    xs = X_tr.std(axis=0)
    xs = np.where(xs == 0, 1.0, xs)
    ym = float(y_tr.mean())
    ys = float(y_tr.std()) or 1.0
    return Dataset(
        X_train=(X_tr - xm) / xs, y_train=(y_tr - ym) / ys,
        X_test=(X_te - xm) / xs, y_test=(y_te - ym) / ys,
        x_mean=xm, x_std=xs, y_mean=ym, y_std=ys)


def gen_cubic_toy(seed=0) -> Dataset:
    """40 points, x ~ Uniform([-4,-2] u [2,4]), y = x^3 + N(0, 3^2); inputs
    and targets normalized by their own statistics."""
    rng = np.random.default_rng(seed)
    sign = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    x = sign * rng.uniform(2.0, 4.0, size=40)
    y = x ** 3 + rng.normal(0.0, 3.0, size=40)
    X = x[:, None]
    ds = _normalize(X, y, X.copy(), y.copy())
    ds.extra["raw_x"] = x
    ds.extra["raw_y"] = y
    return ds


def gen_deep_linear(seed=0) -> Dataset:
    """1000 train / 100 test points, 5 standard-normal inputs, targets from a
    linear model with weight prior N(0, I/5) and noise variance 0.1. The exact
    LML of the generating model is stored in extra['analytic_lml']."""
    rng = np.random.default_rng(seed)
    D, n_tr, n_te = 5, 1000, 100
    X = rng.standard_normal((n_tr + n_te, D))
    w = rng.normal(0.0, np.sqrt(1.0 / D), size=D)
    y = X @ w + rng.normal(0.0, np.sqrt(0.1), size=n_tr + n_te)
    X_tr, y_tr = X[:n_tr], y[:n_tr]
    X_te, y_te = X[n_tr:], y[n_tr:]
    cov = X_tr @ X_tr.T / D + 0.1 * np.eye(n_tr)
    L = np.linalg.cholesky(cov)
    half = np.linalg.solve(L, y_tr)
    lml = (-0.5 * n_tr * np.log(2 * np.pi) - np.sum(np.log(np.diag(L)))
           - 0.5 * half @ half)
    ds = Dataset(X_train=X_tr, y_train=y_tr, X_test=X_te, y_test=y_te,
                 x_mean=np.zeros(D), x_std=np.ones(D))
    ds.extra["analytic_lml"] = float(lml)
    return ds


def load_csv(path, seed=0) -> Dataset:
    """Comma-separated numeric file with a header row and at least two data
    rows of finite numbers; last column is the target. 90/10 train/test split
    by seeded shuffle, with at least one test row; normalization from the
    training rows only."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    ncol = len(header)
    if ncol < 2:
        raise ValueError(f"{path}: need at least 2 columns, got {ncol}")
    rows = []
    for r, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != ncol:
            raise ValueError(f"{path}: row {r} has {len(cells)} cells, expected {ncol}")
        vals = []
        for c, cell in enumerate(cells, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}")
            if not np.isfinite(vals[-1]):
                raise ValueError(f"{path}: non-finite cell at row {r}, column {c}: {cell!r}")
        rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows (one to train, one to test), "
                         f"got {len(rows)}")
    data = np.asarray(rows, dtype=np.float64)
    n = data.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    n_te = max(1, int(round(n * 0.1)))
    te, tr = perm[:n_te], perm[n_te:]
    return _normalize(data[tr, :-1], data[tr, -1], data[te, :-1], data[te, -1])


# -- experiment orchestration ------------------------------------------------------

@dataclass
class ExperimentConfig:
    model: str = "bnn-gi"
    dataset: str = "cubic-toy"       # cubic-toy | deep-linear | path to CSV
    depth: int = 2
    widths: tuple = (50, 50)
    M: int = 40
    prior: str = "neal"
    seed: int = 0
    out: str = "results"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        """A ValueError names the key of an unknown model or prior, a dataset
        that is not a non-empty string, a seed that is not an integer >= 0, a
        depth or M that is not an integer (or is below 1 for a model that
        reads it), and a widths that is not a list of integers >= 1."""
        _check_choice("model", self.model, _MODEL_KEYS_READ)
        if not (isinstance(self.dataset, str) and self.dataset):
            raise ValueError("config key 'dataset' must be one of ['cubic-toy', 'deep-linear'] "
                             f"or the path of a CSV file, got {self.dataset!r}")
        check_seed("config key 'seed'", self.seed)
        _check_choice("prior", self.prior, dm.PRIOR_VARIANTS)
        for key in ("depth", "M"):
            check_count(f"config key {key!r}", getattr(self, key))
            if key in _MODEL_KEYS_READ[self.model] and getattr(self, key) < 1:
                raise ValueError(f"config key {key!r} must be at least 1 for model "
                                 f"{self.model!r}, got {getattr(self, key)}")
        if not (isinstance(self.widths, (list, tuple))
                and all(_is_int(w) and w >= 1 for w in self.widths)):
            raise ValueError(f"config key 'widths' must be a list of integers >= 1, "
                             f"got {self.widths!r}")
        self.widths = tuple(self.widths)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Build from a parsed config, with the checks of __post_init__;
        unknown keys, top-level or under `train`, raise a ValueError that
        lists the valid ones, and so does a model key (depth, widths, M,
        prior) that the chosen model ignores."""
        d = dict(d)
        train = d.pop("train", None) or {}
        if "seed" in train:
            raise ValueError("train.seed is not a config key: the top-level "
                             "`seed` seeds the data, the model and training")
        d["train"] = _from_keys(TrainConfig, train, "train")
        cfg = _from_keys(ExperimentConfig, d, "config")
        reads = _MODEL_KEYS_READ[cfg.model]
        ignored = [k for k in _MODEL_KEYS if k in d and k not in reads]
        if ignored:
            raise ValueError(f"model {cfg.model!r} does not read config key(s) {ignored}; "
                             f"it reads {list(reads)}")
        return cfg


def check_seed(key: str, v):
    """Raise a ValueError naming `key` unless v is an integer >= 0."""
    if not (_is_int(v) and v >= 0):
        raise ValueError(f"{key} must be an integer >= 0, got {v!r}")


def _check_choice(key: str, value, valid):
    if not (isinstance(value, str) and value in valid):
        raise ValueError(f"unknown {key} {value!r}: config key {key!r} must be one of "
                         f"{list(valid)}")


def _from_keys(cls, d: dict, where: str):
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(valid))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; valid keys: {valid}")
    return cls(**d)


@dataclass
class ExperimentResult:
    config: dict
    trace: list
    final: dict
    wall_clock: float
    seed: int
    aborted: dict = None


def _make_dataset(name, seed):
    if name == "cubic-toy":
        return gen_cubic_toy(seed)
    if name == "deep-linear":
        return gen_deep_linear(seed)
    return load_csv(name, seed=seed)


# the model keys of ExperimentConfig that each model kind reads
_MODEL_KEYS = ("depth", "widths", "M", "prior")
_MODEL_KEYS_READ = {
    "blr": (), "gp": (), "dkl": (),
    "svgp": ("M",),
    "bnn-gi": ("widths", "M", "prior"),
    "bnn-fac": ("widths", "prior"),
    **dict.fromkeys(("dgp-gi", "dgp-dsvi", "dwp", "dwp-a", "dwp-ab"), ("depth", "M")),
}


def _make_model(cfg: ExperimentConfig, ds: Dataset):
    kind = cfg.model
    if kind == "blr":
        return BlrViModel(ds)
    if kind == "gp":
        return GpLmlModel(ds)
    if kind == "dkl":
        return GpLmlModel(ds, dkl_widths=(100, 50, 2), seed=cfg.seed)
    if kind == "svgp":
        return SvgpModel(ds, M=cfg.M)
    if kind in ("bnn-gi", "bnn-fac"):
        return BnnModel(ds, posterior=kind.split("-")[1], widths=cfg.widths,
                        M=cfg.M, prior_variant=cfg.prior, seed=cfg.seed)
    if kind in ("dgp-gi", "dgp-dsvi"):
        return DgpModel(ds, posterior=kind.split("-")[1], depth=cfg.depth,
                        M=cfg.M, seed=cfg.seed)
    if kind in ("dwp", "dwp-a", "dwp-ab"):
        variant = {"dwp": "base", "dwp-a": "A", "dwp-ab": "AB"}[kind]
        return DwpModel(ds, n_gram_layers=max(cfg.depth - 1, 0), M=cfg.M,
                        variant=variant, seed=cfg.seed)
    raise ValueError(f"unknown model kind {cfg.model!r}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    ds = _make_dataset(cfg.dataset, cfg.seed)
    model = _make_model(cfg, ds)
    run_cfg = replace(cfg, train=replace(cfg.train, seed=cfg.seed))
    res = train_loop(model, ds, run_cfg.train)
    result = ExperimentResult(
        config=asdict(run_cfg), trace=res["trace"],
        final=res.get("final", {}), wall_clock=res["wall_clock"],
        seed=cfg.seed, aborted=res["aborted"])
    os.makedirs(cfg.out, exist_ok=True)
    stem = f"{cfg.model}_{os.path.basename(str(cfg.dataset))}_{cfg.seed}"
    with open(os.path.join(cfg.out, stem + ".json"), "w") as fh:
        json.dump(asdict(result), fh, indent=2, default=_json_default)
    if ds.X_train.shape[1] == 1:
        _write_plot_data(model, res["params"], ds, os.path.join(cfg.out, stem + ".bands"))
    return result


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    raise TypeError(type(o))


def _write_plot_data(model, params, ds: Dataset, path):
    """x-grid, latent predictive mean, and +-1/+-2 std bands for 1-D inputs:
    from predictive samples for the Monte-Carlo models, from the closed-form
    `predictive` for the others."""
    grid = np.linspace(ds.X_train[:, 0].min() - 1, ds.X_train[:, 0].max() + 1,
                       200)[:, None]
    if isinstance(model, _MonteCarloModel):
        outs = model.predictive_samples(params, grid, rd.RngStream(0), 50)
        mean, std = outs.mean(axis=0), outs.std(axis=0)
    else:
        mean, var, _ = model.predictive(params, ds, grid)
        std = np.sqrt(np.maximum(var, 0.0))
    cols = np.column_stack([grid[:, 0], mean, mean - std, mean + std,
                            mean - 2 * std, mean + 2 * std])
    np.savetxt(path, cols, header="x mean lo1 hi1 lo2 hi2")


# -- CLI ---------------------------------------------------------------------------

# the gamma shapes' gradient is the implicit one by design, which central
# differences through one fixed draw do not see; check holds them fixed
_GAMMA_SHAPES = re.compile(r"la\d+|log_a_s\d+")


def _objective_check(kind: str, prior: str) -> dict:
    """finite_diff_check's report on the whole objective of one model kind
    under one prior, at tiny shapes: 12 rows, 2 input columns (1 for blr),
    M=4, widths (3, 3), a (3, 2) extractor for dkl, 2 samples of a fixed
    stream, and parameters at init + 0.05 N(0, 1)."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 1 if kind == "blr" else 2))
    y = rng.standard_normal(12)
    ds = Dataset(X_train=X, y_train=y, X_test=X, y_test=y)
    if kind == "dkl":
        model = GpLmlModel(ds, dkl_widths=(3, 2))
    else:
        model = _make_model(ExperimentConfig(model=kind, widths=(3, 3), M=4, prior=prior), ds)
    init = {k: v + 0.05 * rng.standard_normal(np.shape(v))
            for k, v in model.init_params().items()}
    fixed = {k: de.as_tensor(v) for k, v in init.items() if _GAMMA_SHAPES.fullmatch(k)}
    free = {k: v for k, v in init.items() if k not in fixed}
    return de.finite_diff_check(lambda ps: model.objective(
        {**fixed, **ps}, X, y, len(y), 2, rd.RngStream(0), 1.0), free)


def _quick_checks() -> int:
    """Gradient checks of the code the models run; returns a process exit
    code. Each model kind's objective (and the BNN's under prior: scale) is
    checked against finite differences, the exact-GP likelihood node against
    scipy's Cholesky and, at 300 rows, its gradient against finite
    differences, and the SE kernel's gradient in all four operands."""
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    for kind, prior in [(k, "neal") for k in _MODEL_KEYS_READ] + [("bnn-gi", "scale")]:
        rep = _objective_check(kind, prior)
        label = kind if prior == "neal" else f"{kind} (prior: {prior})"
        check(f"{label} objective gradient vs finite differences "
              f"(max relative error {rep['max_rel_error']:.1e})", rep["passed"])

    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    st = gm.GpState(kernel_params=KernelParams(log_lengthscales=np.zeros(2)),
                    log_noise=np.log(0.1))
    _, _, lml = gm.gp_predict_lml(st, X, y)
    C = np.exp(-0.5 * np.sum((X[:, None] - X[None]) ** 2, axis=-1)) + 0.1 * np.eye(8)
    c = sla.cho_factor(C, lower=True)
    ref = (-0.5 * y @ sla.cho_solve(c, y) - np.sum(np.log(np.diag(c[0])))
           - 0.5 * len(y) * np.log(2.0 * np.pi))
    check("exact-GP log marginal likelihood vs scipy cho_factor",
          abs(lml.value - ref) <= 1e-10 * abs(ref))

    # above 128 rows the node's backward inverts its factor by blocks
    r3 = np.random.default_rng(1)
    X3, y3 = r3.standard_normal((300, 2)), r3.standard_normal(300)
    rep = de.finite_diff_check(lambda ps: gm.gp_predict_lml(gm.GpState(
        kernel_params=KernelParams(log_sf2=ps[0], log_lengthscales=ps[1]), log_noise=ps[2]),
        X3, y3)[2], [np.asarray(0.2), np.array([0.1, -0.3]), np.asarray(np.log(0.1))])
    check("exact-GP LML at 300 rows gradient (sf2, two lengthscales, noise) vs finite "
          f"differences (max relative error {rep['max_rel_error']:.1e})", rep["passed"])

    # one kernel node over four operands, whose VJP returns all their cotangents
    wts = rng.standard_normal((4, 3))
    rep = de.finite_diff_check(
        lambda ps: de.tsum(de.mul(se_ard_features(
            KernelParams(log_sf2=ps[0], log_lengthscales=ps[1]), ps[2], ps[3]), wts)),
        [np.asarray(0.3), np.array([0.1, -0.2]), rng.standard_normal((4, 2)),
         rng.standard_normal((3, 2))])
    check("SE kernel gradient (sf2, lengthscales, both inputs) vs finite differences",
          rep["passed"])
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="deepbayes")
    # a given flag wins over the config's key, which wins over 0 and results
    ap.add_argument("--out")
    ap.add_argument("--seed", type=int)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_toy = sub.add_parser("toy", help="generate a synthetic dataset")
    p_toy.add_argument("name", choices=["cubic-toy", "deep-linear"])
    sub.add_parser("check", help="check each model kind's objective gradient by finite "
                   "differences, the exact-GP likelihood and the SE kernel's gradient")
    args = ap.parse_args(argv)

    if args.cmd == "check":
        return _quick_checks()

    if args.cmd == "toy":
        seed = 0 if args.seed is None else args.seed
        check_seed("--seed", seed)
        out = "results" if args.out is None else args.out
        ds = _make_dataset(args.name, seed)
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{args.name}_{seed}.npz")
        np.savez(path, X_train=ds.X_train, y_train=ds.y_train,
                 X_test=ds.X_test, y_test=ds.y_test)
        print(f"wrote {path}")
        return 0

    # run
    import yaml
    with open(args.config, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    for key in ("seed", "out"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    cfg = ExperimentConfig.from_dict(raw)
    t0 = time.time()
    result = run_experiment(cfg)
    final = result.final or {}
    print(f"model={cfg.model} dataset={cfg.dataset} seed={cfg.seed} "
          f"elbo/pt={final.get('elbo_per_point')} "
          f"test_ll/pt={final.get('test_ll_per_point')} "
          f"rmse={final.get('rmse')} "
          f"({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
