"""Gaussian-bump features, exact GP regression, sparse variational GPs, and
deep-kernel features, all differentiable through diff_engine."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd
from .diff_engine import DiffTensor, as_tensor
from .kernels import KernelParams, _SeArd, _se_kdiag, se_ard_features

__all__ = [
    "GpState", "SvgpState", "gaussian_bump_features", "gp_predict_lml",
    "prop31_check", "svgp_elbo", "svgp_collapsed_bound", "dkl_forward",
]


@dataclass
class GpState:
    kernel_params: KernelParams = field(default_factory=KernelParams)
    log_noise: object = 0.0        # log sigma^2

    def noise_var(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_noise))

    def kern(self, X1, X2=None) -> DiffTensor:
        return se_ard_features(self.kernel_params, X1, X2)


@dataclass
class SvgpState:
    Z: object = None               # (M, D)
    m: object = None               # (M,) variational mean
    S_chol: object = None          # (M, M) lower Cholesky of S
    kernel_params: KernelParams = field(default_factory=KernelParams)
    log_noise: object = 0.0

    def noise_var(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_noise))

    def kern(self, X1, X2=None) -> DiffTensor:
        return se_ard_features(self.kernel_params, X1, X2)


def gaussian_bump_features(X, centers, width) -> DiffTensor:
    """phi_k(x) = exp(-(x - c_k)^2 / (2 width^2)) for 1-D inputs."""
    X = as_tensor(X)
    x = de.reshape(X, (X.value.shape[0], 1))
    c = as_tensor(np.asarray(centers, dtype=np.float64).reshape(1, -1))
    d2 = de.elementwise("square", de.sub(x, c))
    return de.elementwise("exp", de.elementwise("affine", d2, a=-0.5 / float(width) ** 2))


def make_bump_centers(x, n_centers):
    """Evenly spaced centers over the input range; width equals the spacing."""
    lo, hi = float(np.min(x)), float(np.max(x))
    centers = np.linspace(lo, hi, n_centers)
    width = (hi - lo) / max(n_centers - 1, 1)
    return centers, width


def gp_predict_lml(state: GpState, X, y, X_star=None):
    """Exact GP regression under the SE-ARD kernel: (mean, var, lml), the
    predictive mean and marginal variance at X_star and the LML.

    Without X_star, the LML is one tape node (_se_exact_lml) and mean and
    var are None. With X_star, nothing is taped: the factor L of K + s2 I
    is made in place in the kernel's own buffer (_se_exact_fit), so the LML
    equals the node's bitwise, and with W = L^{-1} K(X, X_star) the mean is
    W^T L^{-1} y and test point j's variance sf2 - |W_j|^2 (Rasmussen &
    Williams 2006, Alg. 2.1). A tracked operand with X_star raises, since
    its gradient would be lost."""
    X = as_tensor(X)
    y = as_tensor(y)
    s2 = state.noise_var()
    kp = state.kernel_params
    if X_star is None:
        return None, None, _se_exact_lml(kp, s2, X, y)
    X_star = as_tensor(X_star)
    if any(isinstance(t, DiffTensor) and t._tape is not None
           for t in (kp.log_sf2, kp.log_lengthscales, s2, X, y, X_star)):
        raise ValueError("gp_predict_lml predicts at X_star off the tape, so a tracked "
                         "operand would lose its gradient; differentiate the LML alone")
    _, L, val, w_y = _se_exact_fit(kp, s2, X, y, keep_kernel=False)
    w_k = de._solve_tri(L, state.kern(X, X_star).value, False)
    var = kp.sf2().value - np.sum(w_k * w_k, axis=0)
    return (as_tensor(w_k.T @ w_y), as_tensor(var),
            de.lift(np.asarray(val), (), None, _EXACT_LML))


_EXACT_LML = "exact_gp_lml"


def _se_exact_fit(params: KernelParams, s2: DiffTensor, X: DiffTensor, y: DiffTensor,
                  keep_kernel: bool):
    """(se, L, log N(y; 0, K + s2 I), L^{-1} y) for the SE-ARD kernel K =
    se.K of the rows of X: K + s2 I is built in one n x n buffer, a copy of
    K when keep_kernel, else K's own, and potrf factorises it there into L
    with the jitter ladder; as a _Handed buffer it gets no symmetrising copy
    and no symmetry check, and L's strict upper triangle is not zeroed."""
    se = _SeArd(params, X, X)
    K = se.K
    de._check_finite(K, f"kernel of op {_EXACT_LML!r}")
    buf = K.copy() if keep_kernel else K
    i = np.arange(K.shape[0])
    buf[i, i] += s2.value
    L = de._chol_with_jitter(buf.view(de._Handed))
    val, w = rd._gaussian_fit(L, y.value)
    return se, L, val, w


def _se_exact_lml(params: KernelParams, s2: DiffTensor, X: DiffTensor, y: DiffTensor):
    """log N(y; 0, K + s2 I) for the SE-ARD kernel K of the rows of X, in one
    tape node over sf2, the lengthscales, s2, X and y.

    The node owns two n x n buffers: K (kernels._SeArd), and the factor of
    K + s2 I that _se_exact_fit makes in a copy of K. The backward runs
    potri on that factor in place and forms there W = 0.5 g (alpha alpha^T -
    (K + s2 I)^{-1}), the cotangent of K + s2 I (Rasmussen & Williams 2006,
    eq. 5.9), whose trace is s2's; then W * K, from which the kernel's
    reductions give the rest. The factor is thus consumed, and a second
    backward pass over the node raises."""
    se, L, val, w = _se_exact_fit(params, s2, X, y, keep_kernel=True)
    K = se.K
    i = np.arange(K.shape[0])
    consumed = []

    def vjp(g):
        de._check_finite(g, f"cotangent of op {_EXACT_LML!r}")
        if consumed:
            raise RuntimeError(f"op {_EXACT_LML!r} consumed its factor in an earlier "
                               "backward pass; build the objective again")
        consumed.append(True)
        alpha = de._solve_tri(L, w[:, None], True)[:, 0]
        W = rd._gaussian_cov_cotangent(L, alpha, g, overwrite=True)
        g_s2 = de._unbroadcast(W[i, i].sum(), s2.value.shape)
        W = de._mT(W)       # the same symmetric matrix, C-ordered like K
        W *= K
        g_sf2, (gXs,) = se.backward(W)
        return g_sf2, se.g_ls((gXs,)), g_s2, gXs * se.r, -g * alpha

    return de.lift(np.asarray(val), (se.sf2, se.ls, s2, X, y), vjp, _EXACT_LML)


def prop31_check(state: GpState, X, y):
    """Optimal signal variance under the scaled parameterization where the
    noise is sigma_hat^2 * sf2, and the resulting data-fit term.

    With K = sf2 * Khat and noise sf2 * sigma_hat^2, the quadratic data-fit
    term of the LML at the optimal sf2 = y^T (Khat + sigma_hat^2 I)^{-1} y / N
    is exactly -N/2. Also returns the complexity penalty
    N/2 log sf2 + 1/2 log|Khat + sigma_hat^2 I|.
    """
    X = as_tensor(X)
    y = as_tensor(y)
    n = X.value.shape[0]
    if np.all(y.value == 0):
        raise ValueError("zero targets: optimal signal variance is degenerate")
    unit = replace(state, kernel_params=replace(state.kernel_params, log_sf2=0.0))
    Khat = unit.kern(X)
    L = de.cholesky_factor(de.add_diagonal(Khat, state.noise_var()))
    w = de.triangular_solve(L, y)
    quad = de.tsum(de.elementwise("square", w))      # y^T Mh^{-1} y
    sf2_opt = de.elementwise("affine", quad, a=1.0 / n)
    data_fit = de.elementwise("affine", de.div(quad, sf2_opt), a=-0.5)
    logdet_hat = de.log_diag_sum(L, 2.0)
    complexity = de.add(de.elementwise("affine", de.elementwise("log", sf2_opt), a=0.5 * n),
                        de.elementwise("affine", logdet_hat, a=0.5))
    return sf2_opt, data_fit, complexity


def _svgp_marginals(state: SvgpState, Xb):
    """Per-point q(f) mean and variance at the batch inputs, and the lower
    Cholesky factor of K_zz."""
    Z = as_tensor(state.Z)
    Xb = as_tensor(Xb)
    Lz = de.cholesky_factor(state.kern(Z))
    W, var = rd.gaussian_conditional(Lz, state.kern(Z, Xb),
                                     _se_kdiag(state.kernel_params.sf2(), Xb.value.shape[0]))
    return (*rd.inducing_marginals(Lz, W, var, state.m, state.S_chol), Lz)


def svgp_elbo(state: SvgpState, Xb, yb, total_n, kl_scale=1.0) -> DiffTensor:
    """Uncollapsed sparse variational bound on a (mini)batch.

    (N/Nb) sum_n E_q[log N(y_n; f_n, s2)] - kl_scale * KL(q(u) || p(u)); the
    expectation is closed form for the Gaussian likelihood.
    """
    yb = as_tensor(yb)
    nb = yb.value.shape[0]
    if nb < 1:
        raise ValueError("empty batch")
    mean, var, Lz = _svgp_marginals(state, Xb)
    s2 = state.noise_var()
    ell = de.sub(rd.normal_log_density(yb, mean, s2),
                 de.tsum(de.div(var, de.elementwise("affine", s2, a=2.0))))
    kl = rd._kl_gaussian_chol(state.m, state.S_chol, np.zeros(Lz.value.shape[0]), Lz)
    return de.sub(de.elementwise("affine", ell, a=float(total_n) / nb),
                  de.elementwise("affine", kl, a=float(kl_scale)))


def svgp_collapsed_bound(state: SvgpState, X, y):
    """Collapsed bound log N(y; 0, Q + s2 I) - tr(K - Q)/(2 s2), plus the
    optimal (m, S) that make the uncollapsed bound attain it."""
    X = as_tensor(X)
    y = as_tensor(y)
    n = X.value.shape[0]
    Z = as_tensor(state.Z)
    s2 = state.noise_var()
    Kzz = state.kern(Z)
    Lz = de.cholesky_factor(Kzz)
    Kzx = state.kern(Z, X)
    W = de.triangular_solve(Lz, Kzx)                 # Lz^{-1} Kzx
    Q = de.matmul(de.transpose(W), W)
    fit = rd.mvn_log_density(y, np.zeros(n), de.add_diagonal(Q, s2))
    kdiag = _se_kdiag(state.kernel_params.sf2(), n)
    trace_gap = de.sub(de.tsum(kdiag), de.tsum(de.diag_part(Q)))
    bound = de.sub(fit, de.div(trace_gap, de.elementwise("affine", s2, a=2.0)))

    # optimal q(u): m = Kzz B^{-1} Kzx y / s2, S = Kzz B^{-1} Kzz,
    # with B = Kzz + Kzx Kxz / s2
    B = de.add(Kzz, de.div(de.matmul(Kzx, de.transpose(Kzx)), s2))
    Lb = de.cholesky_factor(B)
    wk = de.triangular_solve(Lb, Kzz)                # Lb^{-1} Kzz
    rhs = de.div(de.matmul(Kzx, y), s2)
    wr = de.triangular_solve(Lb, rhs)
    m_opt = de.matmul(de.transpose(wk), wr)
    S_opt = de.matmul(de.transpose(wk), wk)
    return bound, m_opt, S_opt


def dkl_forward(weights, X) -> DiffTensor:
    """Deterministic feature extractor: the relu net with layers
    weights = [(W, b), ...] applied to the inputs.

    The effective kernel is the GP kernel on these features; hyperparameter
    and weight gradients flow through when the LML is differentiated.
    """
    h = as_tensor(X)
    if h.value.ndim == 1:
        h = de.reshape(h, (h.value.shape[0], 1))
    for i, (Wl, bl) in enumerate(weights):
        Wl, bl = as_tensor(Wl), as_tensor(bl)
        if h.value.shape[1] != Wl.value.shape[0]:
            raise ValueError(
                f"extractor layer {i}: input dim {h.value.shape[1]} != {Wl.value.shape[0]}")
        h = de.add(de.matmul(h, Wl), bl)
        if i < len(weights) - 1:
            h = de.elementwise("relu", h)
    return h
