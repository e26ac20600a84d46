"""The runnable models (BLR-VI, exact GP, SVGP, BNN, DGP, DWP): each gives
train_loop its init_params, objective and evaluate, and the bands plot a
closed-form predictive or predictive samples. A dataset is anything with
the X_train, y_train, X_test and y_test arrays of bench_cli.Dataset."""
from __future__ import annotations

import numpy as np

from . import deep_models as dm
from . import diff_engine as de
from . import dwp as dwp_mod
from . import gp_models as gm
from . import rand_dist as rd
from .diff_engine import as_tensor
from .dwp import _chol_from_raw
from .kernels import KernelParams, se_ard_features

__all__ = ["BlrViModel", "GpLmlModel", "SvgpModel", "BnnModel", "DgpModel", "DwpModel"]


# -- parameter helpers ----------------------------------------------------------

def _se_params(p, sfx) -> KernelParams:
    """SE kernel with the parameters log_sf2{sfx} and log_ls{sfx} of p."""
    return KernelParams(log_sf2=p[f"log_sf2{sfx}"], log_lengthscales=p[f"log_ls{sfx}"])


def _log_mean_exp(a, axis=0):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.mean(np.exp(a - m), axis=axis))


def _test_metrics(dataset, objective: float, means, var, elbo_samples, pred_samples) -> dict:
    """Per-point objective, and the test log-likelihood and RMSE of the
    predictive (1/S) sum_s N(means_s, var) at the test inputs, from the
    (S, n*) predictive means and a variance that broadcasts against them;
    with S = 1 these are the closed-form Gaussian's, bitwise. Records the
    sample counts used (0 for a closed form)."""
    ll = -0.5 * np.log(2 * np.pi * var) - 0.5 * (dataset.y_test - means) ** 2 / var
    return {"elbo_per_point": objective / dataset.X_train.shape[0],
            "test_ll_per_point": float(np.mean(_log_mean_exp(ll, axis=0))),
            "rmse": float(np.sqrt(np.mean((dataset.y_test - means.mean(axis=0)) ** 2))),
            "elbo_samples": elbo_samples, "pred_samples": pred_samples}


# -- models -----------------------------------------------------------------------

class _ClosedFormModel:
    """Evaluation for models with a Gaussian predictive in closed form:
    `predictive(params, dataset, X) -> (mean, var, objective)` gives the
    latent mean and variance at X and the objective on the whole training
    set, and the test predictive adds the noise variance to var."""

    def noise_var(self, params) -> float:
        return float(np.exp(params["log_noise"]))

    def evaluate(self, params, dataset, rng, n_samples):
        mean, var, objective = self.predictive(params, dataset, dataset.X_test)
        return _test_metrics(dataset, objective, mean[None], var + self.noise_var(params), 0, 0)


class BlrViModel(_ClosedFormModel):
    """Full-covariance Gaussian VI over the weights of Gaussian-bump linear
    regression. The ELBO is closed form (no MC), so at convergence it equals
    the exact log marginal likelihood."""

    k, alpha, sigma = 12, 1.0, 0.3      # bump features, prior weight std, noise std

    def __init__(self, dataset):
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

    def noise_var(self, params) -> float:
        return self.sigma ** 2

    def predictive(self, params, dataset, X):
        p = {k: as_tensor(v) for k, v in params.items()}
        n = dataset.X_train.shape[0]
        elbo = self.objective(p, dataset.X_train, dataset.y_train, n, 1, None, 1.0)
        phi = self._phi(X).value
        var = np.sum((phi @ _chol_from_raw(params["chol_raw"]).value) ** 2, axis=1)
        return phi @ params["mean"], var, float(elbo.value)


class GpLmlModel(_ClosedFormModel):
    """Exact GP regression; 'training' is hyperparameter optimization of the
    log marginal likelihood. Optional deep-kernel feature extractor."""

    def __init__(self, dataset, ard=True, dkl_widths=None, seed=0):
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
        mean, var, lml = gm.gp_predict_lml(st, feats, dataset.y_train, x_feats)
        return mean.value, var.value, float(lml.value)


class SvgpModel(_ClosedFormModel):
    def __init__(self, dataset, M=20):
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


class _MonteCarloModel:
    """Shared objective and evaluation for models whose ELBO and predictive
    samples both come from one batched
    `forward(params, X, rng) -> (outputs, increment)` at inputs X, from a
    rand_dist.RngStream whose sample count S is the number of samples (each
    draw site draws once for all S; sample s reads row s). Evaluation uses
    up to `max_elbo_samples` samples for the ELBO and up to `max_pred_samples`
    (None: no cap) for the predictive, and records the counts it used."""

    max_elbo_samples = 20
    max_pred_samples = 50

    def __init__(self, dataset, M):
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
        return self.forward(p, X, rd.RngStream(rng.seed, n_samples))[0].value[..., 0]

    def evaluate(self, params, dataset, rng, n_samples):
        n = dataset.X_train.shape[0]
        sub = rng.split(2)
        p = {k: as_tensor(v) for k, v in params.items()}
        n_elbo = min(n_samples, self.max_elbo_samples)
        elbo = self.objective(p, dataset.X_train, dataset.y_train, n, n_elbo, sub[0], 1.0)
        n_pred = (n_samples if self.max_pred_samples is None
                  else min(n_samples, self.max_pred_samples))
        preds = self.predictive_samples(params, dataset.X_test, sub[1], n_pred)
        return _test_metrics(dataset, float(elbo.value), preds,
                             float(np.exp(10.0 * params["log_noise_s"])), n_elbo, n_pred)


class BnnModel(_MonteCarloModel):
    """BNN with Gaussian likelihood; posterior is 'gi' (global inducing) or
    'fac' (mean field). Hidden activations are relu; a bias column is
    appended at every layer."""

    max_pred_samples = None

    def __init__(self, dataset, posterior="gi", widths=(50, 50), M=40,
                 prior_variant="neal", seed=0):
        if posterior not in ("gi", "fac"):
            raise ValueError(f"unknown posterior {posterior!r}; expected 'gi' or 'fac'")
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

    def __init__(self, dataset, posterior="gi", depth=2, M=20, seed=0):
        if posterior not in ("gi", "dsvi"):
            raise ValueError(f"unknown posterior {posterior!r}; expected 'gi' or 'dsvi'")
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
        for i, (w, layer_rng) in enumerate(zip(self.widths, rng.split(len(self.widths)))):
            last = i == len(self.widths) - 1
            mean_fn = "identity" if (not last and d_in == w) else "zero"
            d_in = w
            if self.posterior == "gi":
                layer = dm.GiDgpLayer(V=p[f"V{i}"], log_lambda=p[f"lam{i}"],
                                      kernel_params=_se_params(p, f"_{i}"),
                                      mean_function=mean_fn)
                U, F, inc = dm.gi_dgp_layer_sample(F, U, layer, layer_rng, last)
                inc_sum = de.add(inc_sum, inc)
            else:
                layer = dm.DsviDgpLayer(Z=p["Z0"] if i == 0 else p[f"Z{i}"], m=p[f"m{i}"],
                                        S_chol=_chol_from_raw(p[f"S_raw{i}"]),
                                        kernel_params=_se_params(p, f"_{i}"),
                                        mean_function=mean_fn)
                F, kl = dm.dsvi_dgp_layer_sample(F, layer, layer_rng)
                inc_sum = de.sub(inc_sum, kl)
        return F, inc_sum


class DwpModel(_MonteCarloModel):
    """Deep Wishart process with `n_gram_layers` Gram layers and a
    global-inducing GP output layer; variant in {base, A, AB}."""

    def __init__(self, dataset, n_gram_layers=2, M=20, variant="base",
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
