"""Datasets, model wrappers, experiment orchestration, and the CLI."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import deep_models as dm
from . import diff_engine as de
from . import dwp as dwp_mod
from . import gp_models as gm
from . import rand_dist as rd
from .diff_engine import as_tensor
from .dwp import _chol_from_raw
from .kernels import KernelParams, se_ard_features
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


# -- parameter helpers ----------------------------------------------------------

def _se_params(p, sfx) -> KernelParams:
    """SE kernel with the parameters log_sf2{sfx} and log_ls{sfx} of p."""
    return KernelParams(log_sf2=p[f"log_sf2{sfx}"], log_lengthscales=p[f"log_ls{sfx}"])


def _log_mean_exp(a, axis=0):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.mean(np.exp(a - m), axis=axis))


def _gaussian_metrics(dataset: Dataset, objective: float, mean, var) -> dict:
    """Per-point objective, and the test log-likelihood and RMSE of the
    Gaussian predictive N(mean, var) at the test inputs."""
    resid = dataset.y_test - mean
    ll = -0.5 * np.log(2 * np.pi * var) - 0.5 * resid ** 2 / var
    return {"elbo_per_point": objective / dataset.X_train.shape[0],
            "test_ll_per_point": float(np.mean(ll)),
            "rmse": float(np.sqrt(np.mean(resid ** 2))),
            "elbo_samples": 0, "pred_samples": 0}     # closed form


# -- models -----------------------------------------------------------------------

class BlrViModel:
    """Full-covariance Gaussian VI over the weights of Gaussian-bump linear
    regression. The ELBO is closed form (no MC), so at convergence it equals
    the exact log marginal likelihood."""

    k, alpha, sigma = 12, 1.0, 0.3      # bump features, prior weight std, noise std

    def __init__(self, dataset: Dataset):
        if dataset.X_train.shape[1] != 1:
            raise ValueError(f"model 'blr' takes one input column (bump features of x), "
                             f"got input dimension {dataset.X_train.shape[1]}")
        self.centers, self.width = gm.make_bump_centers(dataset.X_train[:, 0], self.k)

    def _phi(self, X):
        return gm.gaussian_bump_features(np.ravel(np.asarray(as_tensor(X).value)),
                                         self.centers, self.width)

    def init_params(self):
        return {"mean": np.zeros(self.k),
                "chol_raw": np.eye(self.k) * np.log(self.alpha)}

    def objective(self, p, Xb, yb, total_n, n_samples, rng, kl_scale):
        phi = self._phi(Xb)
        nb = phi.value.shape[0]
        m = p["mean"]
        Lq = _chol_from_raw(p["chol_raw"])
        s2 = self.sigma ** 2
        pred = de.matmul(phi, m)
        quad_extra = de.tsum(de.elementwise("square", de.matmul(phi, Lq)))  # tr(phi S phi^T)
        ll = de.sub(rd.normal_log_density(as_tensor(yb), pred, as_tensor(np.asarray(s2))),
                    de.elementwise("affine", quad_extra, a=0.5 / s2))
        kl = rd._kl_gaussian_chol(m, Lq, np.zeros(self.k), self.alpha * np.eye(self.k))
        return de.sub(de.elementwise("affine", ll, a=float(total_n) / nb),
                      de.elementwise("affine", kl, a=float(kl_scale)))

    def predictive(self, params, dataset, X):
        """Latent predictive mean and variance at X, and the objective on the
        whole training set; the gp and svgp models share this interface."""
        p = {k: as_tensor(v) for k, v in params.items()}
        n = dataset.X_train.shape[0]
        elbo = self.objective(p, dataset.X_train, dataset.y_train, n, 1, None, 1.0)
        phi = self._phi(X).value
        var = np.sum((phi @ _chol_from_raw(params["chol_raw"]).value) ** 2, axis=1)
        return phi @ params["mean"], var, float(elbo.value)

    def evaluate(self, params, dataset, rng, n_samples):
        mean, var, elbo = self.predictive(params, dataset, dataset.X_test)
        return _gaussian_metrics(dataset, elbo, mean, var + self.sigma ** 2)


class GpLmlModel:
    """Exact GP regression; 'training' is hyperparameter optimization of the
    log marginal likelihood. Optional deep-kernel feature extractor."""

    def __init__(self, dataset: Dataset, ard=True, dkl_widths=None, seed=0):
        self.D = dataset.X_train.shape[1]
        self.ard = ard
        self.dkl_widths = dkl_widths
        self.seed = seed

    def init_params(self):
        p = {"log_sf2": np.asarray(0.0),
             "log_ls": np.zeros(self.D if self.ard and not self.dkl_widths else 1),
             "log_noise": np.asarray(-2.0)}
        if self.dkl_widths:
            rng = np.random.default_rng(self.seed)
            dims = [self.D] + list(self.dkl_widths)
            for i in range(len(dims) - 1):
                p[f"W{i}"] = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
                p[f"b{i}"] = np.zeros(dims[i + 1])
            p["log_ls"] = np.zeros(1)
        return p

    def _state_and_features(self, p, X):
        st = gm.GpState(kernel_params=_se_params(p, ""), log_noise=p["log_noise"])
        if self.dkl_widths:
            X = gm.dkl_forward([(p[f"W{i}"], p[f"b{i}"])
                                for i in range(len(self.dkl_widths))], X)
        return st, X

    def objective(self, p, Xb, yb, total_n, n_samples, rng, kl_scale):
        st, feats = self._state_and_features(p, Xb)
        _, _, lml = gm.gp_predict_lml(st, feats, yb)
        return lml

    def predictive(self, params, dataset, X):
        p = {k: as_tensor(v) for k, v in params.items()}
        st, feats = self._state_and_features(p, dataset.X_train)
        _, x_feats = self._state_and_features(p, X)
        mean, cov, lml = gm.gp_predict_lml(st, feats, dataset.y_train, x_feats)
        return mean.value, np.diag(cov.value), float(lml.value)

    def evaluate(self, params, dataset, rng, n_samples):
        mean, var, lml = self.predictive(params, dataset, dataset.X_test)
        return _gaussian_metrics(dataset, lml, mean, var + float(np.exp(params["log_noise"])))


class SvgpModel:
    def __init__(self, dataset: Dataset, M=20):
        self.D = dataset.X_train.shape[1]
        self.M = min(M, dataset.X_train.shape[0])
        self.X0 = dataset.X_train[:self.M].copy()

    def init_params(self):
        return {"Z": self.X0.copy(), "m": np.zeros(self.M),
                "S_raw": np.eye(self.M) * -1.0,
                "log_sf2": np.asarray(0.0), "log_ls": np.zeros(self.D),
                "log_noise": np.asarray(-2.0)}

    def _state(self, p):
        return gm.SvgpState(Z=p["Z"], m=p["m"], S_chol=_chol_from_raw(p["S_raw"]),
                            kernel_params=_se_params(p, ""), log_noise=p["log_noise"])

    def objective(self, p, Xb, yb, total_n, n_samples, rng, kl_scale):
        return gm.svgp_elbo(self._state(p), Xb, yb, total_n, kl_scale)

    def predictive(self, params, dataset, X):
        st = self._state({k: as_tensor(v) for k, v in params.items()})
        mean, var, _ = gm._svgp_marginals(st, X)
        elbo = gm.svgp_elbo(st, dataset.X_train, dataset.y_train, dataset.X_train.shape[0])
        return mean.value, var.value, float(elbo.value)

    def evaluate(self, params, dataset, rng, n_samples):
        mean, var, elbo = self.predictive(params, dataset, dataset.X_test)
        return _gaussian_metrics(dataset, elbo, mean, var + float(np.exp(params["log_noise"])))


class _MonteCarloModel:
    """Shared objective and evaluation for models whose ELBO and predictive
    samples both come from one batched
    `forward(params, X, streams) -> (outputs, increment)` at inputs X, sample
    s drawn from stream s of the rand_dist.StreamBatch. Evaluation uses up to
    `max_elbo_samples` samples for the ELBO and up to `max_pred_samples`
    (None: no cap) for the predictive, and records the counts it used."""

    max_elbo_samples = 20
    max_pred_samples = 50

    def __init__(self, dataset: Dataset, M):
        """The first M training rows start the inducing inputs and outputs."""
        self.D = dataset.X_train.shape[1]
        self.M = min(M, dataset.X_train.shape[0])
        self.X0, self.y0 = dataset.X_train[:self.M].copy(), dataset.y_train[:self.M].copy()

    def objective(self, p, Xb, yb, total_n, n_samples, rng, kl_scale):
        log_noise = de.elementwise("affine", as_tensor(p["log_noise_s"]), a=10.0)
        return dm.mc_elbo(lambda st: self.forward(p, Xb, st), yb, total_n,
                          n_samples, rng, log_noise, kl_scale)

    def predictive_samples(self, params, X, rng, n_samples):
        """(n_samples, n) predictive draws of the first output."""
        p = {k: as_tensor(v) for k, v in params.items()}
        return self.forward(p, X, rng.split_batch(n_samples))[0].value[..., 0]

    def evaluate(self, params, dataset, rng, n_samples):
        n = dataset.X_train.shape[0]
        sub = rng.split(2)
        p = {k: as_tensor(v) for k, v in params.items()}
        n_elbo = min(n_samples, self.max_elbo_samples)
        elbo = self.objective(p, dataset.X_train, dataset.y_train, n, n_elbo, sub[0], 1.0)
        n_pred = (n_samples if self.max_pred_samples is None
                  else min(n_samples, self.max_pred_samples))
        preds = self.predictive_samples(params, dataset.X_test, sub[1], n_pred)
        s2 = float(np.exp(10.0 * params["log_noise_s"]))
        ll = (-0.5 * np.log(2 * np.pi * s2)
              - 0.5 * (dataset.y_test[None, :] - preds) ** 2 / s2)
        mean_pred = preds.mean(axis=0)
        return {"elbo_per_point": float(elbo.value) / n,
                "test_ll_per_point": float(np.mean(_log_mean_exp(ll, axis=0))),
                "rmse": float(np.sqrt(np.mean((dataset.y_test - mean_pred) ** 2))),
                "elbo_samples": n_elbo, "pred_samples": n_pred}


class BnnModel(_MonteCarloModel):
    """BNN with Gaussian likelihood; posterior is 'gi' (global inducing) or
    'fac' (mean field). Hidden activations are relu; a bias column is
    appended at every layer."""

    max_pred_samples = None

    def __init__(self, dataset: Dataset, posterior="gi", widths=(50, 50), M=40,
                 prior_variant="neal", seed=0):
        super().__init__(dataset, M)
        self.posterior = posterior
        self.widths = list(widths) + [1]
        self.prior_variant = prior_variant
        self.seed = seed

    def _fanins(self):
        dims = [self.D] + self.widths
        return [dims[i] + 1 for i in range(len(self.widths))]  # +1 for the bias

    def init_params(self):
        rng = np.random.default_rng(self.seed)
        p = {"log_noise_s": np.asarray(-0.3)}   # effective log noise = -3
        n_layers = len(self.widths)
        if self.posterior == "gi":
            p["U0"] = self.X0.copy()
            for i, w in enumerate(self.widths):
                last = i == n_layers - 1
                p[f"V{i}"] = (self.y0[:, None].copy() if last
                              else rng.standard_normal((self.M, w)))
                p[f"lam{i}"] = np.full(self.M, 0.0 if last else -4.0)
        else:
            for i, (w, fi) in enumerate(zip(self.widths, self._fanins())):
                p[f"mean{i}"] = rng.standard_normal((fi, w))
                p[f"lstd{i}"] = np.full((fi, w), 0.5 * np.log(1e-3 / np.sqrt(fi)))
        if self.prior_variant == "scale":   # log q(s) offsets: q(s) starts near p(s)
            p.update({f"log_{ab}_s{i}": np.asarray(np.log(1e-3))
                      for i in range(n_layers) for ab in "ab"})
        return p

    def forward(self, p, X, rng):
        layers = []
        for i in range(len(self.widths)):
            prior = (dm.PriorSpec("scale", de.elementwise("exp", p[f"log_a_s{i}"]),
                                  de.elementwise("exp", p[f"log_b_s{i}"]))
                     if self.prior_variant == "scale" else dm.PriorSpec(self.prior_variant))
            if self.posterior == "gi":
                layers.append(dm.GiBnnLayer(V=p[f"V{i}"], log_lambda=p[f"lam{i}"],
                                            prior=prior))
            else:
                fi = self._fanins()[i]
                layers.append(dm.FacBnnLayer(mean_scaled=p[f"mean{i}"],
                                             log_std=p[f"lstd{i}"],
                                             scale=1.0 / np.sqrt(fi), prior=prior))
        return dm.bnn_forward(layers, X, rng, inducing_inputs=p.get("U0"))


class DgpModel(_MonteCarloModel):
    """Deep GP with 'gi' (global inducing) or 'dsvi' (local inducing)
    posterior; intermediate layers use identity mean functions when the
    widths allow it and the final layer is zero-mean."""

    def __init__(self, dataset: Dataset, posterior="gi", depth=2, M=20, seed=0):
        super().__init__(dataset, M)
        self.posterior = posterior
        self.widths = [self.D] * (depth - 1) + [1]
        self.seed = seed

    def init_params(self):
        rng = np.random.default_rng(self.seed)
        p = {"log_noise_s": np.asarray(-0.3), "Z0": self.X0.copy()}
        n_layers = len(self.widths)
        if self.posterior == "dsvi":
            rng2 = np.random.default_rng(self.seed + 1)
            for i in range(1, n_layers):
                p[f"Z{i}"] = rng2.standard_normal((self.M, self.widths[i - 1]))
        for i, w in enumerate(self.widths):
            last = i == n_layers - 1
            p[f"log_sf2_{i}"] = np.asarray(0.0)
            d_in = self.D if i == 0 else self.widths[i - 1]
            p[f"log_ls_{i}"] = np.zeros(d_in if i == 0 else 1)
            if self.posterior == "gi":
                p[f"V{i}"] = (self.y0[:, None].copy() if last
                              else rng.standard_normal((self.M, w)) * 0.1)
                p[f"lam{i}"] = np.full(self.M, 0.0 if last else -4.0)
            else:
                p[f"m{i}"] = np.zeros((self.M, w))
                # start q(u) at the prior: S = K_ZZ, so the KL starts at zero
                Z = p["Z0"] if i == 0 else p[f"Z{i}"]
                K = se_ard_features(_se_params(p, f"_{i}"), Z).value
                L = np.linalg.cholesky(K + 1e-6 * np.eye(self.M))
                raw = np.tril(L, k=-1) + np.diag(np.log(np.diag(L)))
                p[f"S_raw{i}"] = np.tile(raw[None], (w, 1, 1))
        return p

    def forward(self, p, X, rng):
        F, U = as_tensor(X), as_tensor(p["Z0"])
        inc_sum = as_tensor(np.asarray(0.0))
        d_in = self.D
        for i, w in enumerate(self.widths):
            last = i == len(self.widths) - 1
            mean_fn = "identity" if (not last and d_in == w) else "zero"
            d_in = w
            if self.posterior == "gi":
                layer = dm.GiDgpLayer(V=p[f"V{i}"], log_lambda=p[f"lam{i}"],
                                      kernel_params=_se_params(p, f"_{i}"),
                                      mean_function=mean_fn)
                U, F, inc = dm.gi_dgp_layer_sample(F, U, layer, rng)
                inc_sum = de.add(inc_sum, inc)
            else:
                layer = dm.DsviDgpLayer(Z=p["Z0"] if i == 0 else p[f"Z{i}"], m=p[f"m{i}"],
                                        S_chol=_chol_from_raw(p[f"S_raw{i}"]),
                                        kernel_params=_se_params(p, f"_{i}"),
                                        mean_function=mean_fn)
                F, kl = dm.dsvi_dgp_layer_sample(F, layer, rng)
                inc_sum = de.sub(inc_sum, kl)
        return F, inc_sum


class DwpModel(_MonteCarloModel):
    """Deep Wishart process with `n_gram_layers` Gram layers and a
    global-inducing GP output layer; variant in {base, A, AB}."""

    def __init__(self, dataset: Dataset, n_gram_layers=2, M=20, variant="base",
                 seed=0):
        if variant not in ("base", "A", "AB"):
            raise ValueError(f"unknown variant {variant!r}")
        super().__init__(dataset, M)
        self.nu = max(self.D, 2)
        self.n_layers = n_gram_layers
        self.variant = variant
        self.seed = seed

    def init_params(self):
        M, nu = self.M, self.nu
        ntilde = min(M, nu)
        p = {"log_noise_s": np.asarray(-0.3), "Xi": self.X0.copy(),
             "Vf": self.y0[:, None].copy(), "lamf": np.zeros(M),
             "log_sf2_f": np.asarray(0.0), "log_ls_f": np.asarray(0.0)}
        a, b, mu, sg = dwp_mod.standard_bartlett_params(M, nu)
        G0 = self.X0 @ self.X0.T / self.D
        for i in range(self.n_layers):
            p[f"log_sf2_{i}"] = np.asarray(0.0)
            p[f"log_ls_{i}"] = np.asarray(0.0)
            p[f"V{i}"] = (np.linalg.cholesky(G0 + 1e-6 * np.eye(M))
                          if i == 0 else np.eye(M))
            p[f"lq{i}"] = np.asarray(np.log(0.1 / 0.9))        # logit(0.1)
            p[f"la{i}"] = np.log(a)
            p[f"lb{i}"] = np.log(b)
            p[f"mu{i}"] = mu.copy()
            p[f"ls{i}"] = np.log(sg)
            if self.variant in ("A", "AB"):
                p[f"A{i}"] = np.eye(M)
            if self.variant == "AB":
                p[f"B{i}"] = np.zeros((ntilde, ntilde))
        return p

    def forward(self, p, X, rng):
        layers = [dwp_mod.GWishLayerPosterior(
            V=p[f"V{i}"], logit_q=p[f"lq{i}"], nu=self.nu,
            log_alpha=p[f"la{i}"], log_beta=p[f"lb{i}"],
            mu=p[f"mu{i}"], log_sigma=p[f"ls{i}"],
            A_packed=p.get(f"A{i}"), B_packed=p.get(f"B{i}"),
            kernel_params=_se_params(p, f"_{i}")) for i in range(self.n_layers)]
        final = dm.GiDgpLayer(V=p["Vf"], log_lambda=p["lamf"],
                              kernel_params=_se_params(p, "_f"))
        state = dwp_mod.DwpState(inducing_inputs=p["Xi"], layers=layers,
                                 final_layer=final, nu0=self.D)
        return dwp_mod.dwp_forward(state, X, rng)


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

def _quick_checks() -> int:
    """Fast self-contained oracle checks; returns a process exit code."""
    rng = np.random.default_rng(0)
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rep = de.finite_diff_check(
        lambda ps: de.logdet_psd(de.elementwise(
            "affine", de.add(ps[0], de.transpose(ps[0])), a=0.5)),
        [np.eye(3) * 3 + rng.standard_normal((3, 3)) * 0.1])
    check("logdet gradient vs finite differences", rep["passed"])

    X = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    st = gm.GpState(kernel_params=KernelParams(log_lengthscales=np.zeros(2)),
                    log_noise=np.log(0.1))
    _, dfit, _ = gm.prop31_check(st, X, y)
    check("optimal-signal-variance data fit = -N/2", abs(dfit.value + 4.0) < 1e-8)

    sv = gm.SvgpState(Z=X, m=np.zeros(8), S_chol=np.eye(8),
                      kernel_params=st.kernel_params, log_noise=np.log(0.1))
    bound, _, _ = gm.svgp_collapsed_bound(sv, X, y)
    _, _, lml = gm.gp_predict_lml(st, X, y)
    check("collapsed bound equals LML at Z=X", abs(bound.value - lml.value) < 1e-8)

    from scipy.stats import wishart as sw
    G = X[:3] @ X[:3].T + 2 * np.eye(3)
    S = np.eye(3)
    check("Wishart log density matches reference",
          abs(rd.wishart_log_density(G, S, 5.0).value - sw.logpdf(G, 5, S)) < 1e-8)

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
    sub.add_parser("check", help="run quick oracle checks")
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
