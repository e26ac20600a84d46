"""Gaussian-bump features, exact GP regression, sparse variational GPs, and
deep-kernel features, all differentiable through diff_engine."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

from . import diff_engine as de
from . import rand_dist as rd
from .diff_engine import DiffTensor, as_tensor
from .kernels import KernelParams, _SeArd, _se_kdiag, se_ard_features

__all__ = [
    "GpState", "SvgpState", "gaussian_bump_features", "gp_predict_lml",
    "svgp_elbo", "dkl_forward",
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
class SvgpState(GpState):
    Z: object = None               # (M, D)
    m: object = None               # (M,) variational mean
    S_chol: object = None          # (M, M) lower Cholesky of S


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
    var are None. With X_star, nothing is taped: _se_exact_fit, the node's
    forward, builds K in one n x n buffer and factorises K + s2 I there, so
    the buffer's upper triangle holds the factor L (read as its Fortran
    transpose), its strict lower triangle still holds K, and K's diagonal is
    kept apart; the LML equals the node's bitwise. With W = L^{-1} K(X,
    X_star) the mean is W^T L^{-1} y and test point j's variance sf2 -
    |W_j|^2 (Rasmussen & Williams 2006, Alg. 2.1). A tracked operand with
    X_star raises, since its gradient would be lost."""
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
    _, _, L, val, w_y = _se_exact_fit(kp, s2, X, y)
    w_k = de._solve_tri(L, state.kern(X, X_star).value, False, _EXACT_LML)
    var = kp.sf2().value - np.sum(w_k * w_k, axis=0)
    return (as_tensor(w_k.T @ w_y), as_tensor(var),
            de.lift(np.asarray(val), (), None, _EXACT_LML))


_EXACT_LML = "exact_gp_lml"
_TILE = 128     # the side of the tiles _se_exact_lml's backward reduces


def _se_exact_fit(params: KernelParams, s2: DiffTensor, X: DiffTensor, y: DiffTensor):
    """(se, kdiag, L, log N(y; 0, K + s2 I), L^{-1} y) for the SE-ARD kernel
    K = se.K of the rows of X, in K's one C-ordered n x n buffer: K's
    diagonal is saved (kdiag) and s2 added to it, and _chol_in_place
    factorises K + s2 I there (no symmetrising copy, no symmetry check).
    potrf writes only the buffer's upper triangle, which then holds L^T (L
    is its Fortran-ordered transpose, whose strict upper triangle is not
    zeroed); the strict lower triangle still holds K, from which the jitter
    ladder rebuilds a failed attempt."""
    se = _SeArd(params, X, X, _EXACT_LML)
    K = se.K
    de._check_finite(K, f"kernel of op {_EXACT_LML!r}")
    kdiag = np.diagonal(K).copy()
    i = np.arange(K.shape[0])
    K[i, i] += s2.value
    # K + s2 I is finite if its diagonal is: K was checked just above
    de._check_finite(np.diagonal(K), f"input of op {_EXACT_LML!r}")
    L = de._chol_in_place(K, _EXACT_LML)
    val, w = rd._gaussian_fit(L, y.value, _EXACT_LML)
    return se, kdiag, L, val, w


def _se_exact_lml(params: KernelParams, s2: DiffTensor, X: DiffTensor, y: DiffTensor):
    """log N(y; 0, K + s2 I) for the SE-ARD kernel K of the rows of X, in one
    tape node over sf2, the lengthscales, s2, X and y.

    The node owns one n x n buffer B, laid out by _se_exact_fit: K in the
    strict lower triangle, the factor of C = K + s2 I in the upper one, K's
    diagonal kept apart. The backward runs potri on the factor in place, so
    the upper triangle holds C^{-1}, and then visits each _TILE x _TILE tile
    at or below the diagonal once. With alpha = C^{-1} y it forms there t =
    (alpha alpha^T - C^{-1}) * K, C^{-1} read from the mirror tile and the
    rank-1 term added by dger (one rounding per entry where it cancels
    C^{-1}); the mirror tile's transpose is the same t. 0.5 g (alpha alpha^T
    - C^{-1}) is the cotangent of C (Rasmussen & Williams 2006, eq. 5.9), so
    0.5 g times the sum of t over all tiles is sf2 times sf2's cotangent,
    and 0.5 g times the trace of alpha alpha^T - C^{-1} is s2's. The row
    sums of t, masked where the kernel clamped the tile's or its mirror's
    squared distances, and their products with the scaled inputs, added for
    both tiles, are -2/g times those of P + P^T, P = -0.25 g t being the
    cotangent of the clamped distances; they give the inputs' and the
    lengthscales' cotangents. No n x n buffer but B is made, and the factor
    is consumed: a second backward pass over the node raises."""
    se, kdiag, L, val, w = _se_exact_fit(params, s2, X, y)
    B, Xs, neg = se.K, se.Xs, se.neg
    n = B.shape[0]
    consumed = []

    def vjp(g):
        de._check_finite(g, f"cotangent of op {_EXACT_LML!r}")
        if consumed:
            raise RuntimeError(f"op {_EXACT_LML!r} consumed its factor in an earlier "
                               "backward pass; build the objective again")
        consumed.append(True)
        alpha = de._solve_tri(L, w[:, None], True, _EXACT_LML)[:, 0]
        de._potri(L, _EXACT_LML)
        # a column of ones makes each tile's row sums part of its product
        # with the scaled inputs
        D = Xs.shape[1]
        Xs1 = np.ones((n, D + 1))
        Xs1[:, :D] = Xs
        acc = np.zeros((n, D + 1))
        upper = np.triu(np.ones((_TILE, _TILE), dtype=bool))

        def reduce_tile(kb, jb):
            # t on rows kb and columns jb, kb at or below jb, C-ordered as K's
            # tile is; returns its sum over both tiles, before the mask
            if kb == jb:
                blk = B[kb, kb]
                on_or_above = upper[:blk.shape[0], :blk.shape[0]]
                t = np.where(on_or_above, blk, blk.T)
                np.negative(t, out=t)
                K = np.where(on_or_above, blk.T, blk)
                np.fill_diagonal(K, kdiag[kb])
            else:
                t, K = np.negative(B[jb, kb].T, order="C"), B[kb, jb]
            t = blas.dger(1.0, alpha[jb], alpha[kb], a=t.T, overwrite_a=1).T
            t *= K
            total = t.sum() if kb == jb else 2.0 * t.sum()
            if neg is not None:
                lo, up = neg[kb, jb], neg[jb, kb].T
                if lo.any() or up.any():    # the mean of t masked as each tile
                    t_up = np.where(up, 0.0, t)
                    t[lo] = 0.0
                    t += t_up
                    t *= 0.5
            acc[kb] += t @ Xs1[jb]
            if kb != jb:
                acc[jb] += t.T @ Xs1[kb]
            return total

        total = 0.0
        for k in range(0, n, _TILE):
            for j in range(0, k + 1, _TILE):
                total += reduce_tile(slice(k, k + _TILE), slice(j, j + _TILE))
        h = 0.5 * float(g)
        g_sf2 = de._unbroadcast(h * total / se.sf2.value, np.shape(se.sf2.value))
        g_s2 = de._unbroadcast(h * np.sum(alpha * alpha - np.diagonal(B)), s2.value.shape)
        gXs = (-2.0 * h) * (acc[:, D:] * Xs - acc[:, :D])
        return g_sf2, se.g_ls((gXs,)), g_s2, gXs * se.r, -g * alpha

    return de.lift(np.asarray(val), (se.sf2, se.ls, s2, X, y), vjp, _EXACT_LML)


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


def dkl_forward(weights, X) -> DiffTensor:
    """Deterministic feature extractor: the relu net with layers
    weights = [(W, b), ...] applied to the inputs.

    The effective kernel is the GP kernel on these features; hyperparameter
    and weight gradients flow through when the LML is differentiated.
    """
    h = as_tensor(X)
    for i, (Wl, bl) in enumerate(weights):
        Wl, bl = as_tensor(Wl), as_tensor(bl)
        if h.value.shape[1] != Wl.value.shape[0]:
            raise ValueError(
                f"extractor layer {i}: input dim {h.value.shape[1]} != {Wl.value.shape[0]}")
        h = de.add(de.matmul(h, Wl), bl)
        if i < len(weights) - 1:
            h = de.elementwise("relu", h)
    return h
