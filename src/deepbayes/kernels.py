"""The squared-exponential covariance function on features, one
implementation that the feature kernels, the deep Wishart process's Gram
layers (on the roots of their Gram matrices), the prior conditional draw
(rand_dist.conditional_draw, which builds the batch rows' blocks inside its
node) and the exact-GP marginal likelihood share."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff_engine as de
from .diff_engine import DiffTensor, as_tensor

__all__ = ["KernelParams", "se_ard_features"]


@dataclass
class KernelParams:
    """Squared-exponential kernel hyperparameters, stored in log space.

    log_lengthscales is a length-D vector for ARD or a scalar for a single
    shared lengthscale.
    """
    log_sf2: object = 0.0                      # log signal variance
    log_lengthscales: object = 0.0             # scalar or (D,)

    def sf2(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_sf2))

    def lengthscales(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_lengthscales))


def _clamp_sqdist(h: np.ndarray, rows, cols, op: str):
    """Clamp the rounding negatives of the squared distances d2 to zero in
    place, in the buffer h = -d2 / 2 that holds them: positive entries
    become zero, and ones above the tolerance raise naming op. h_ij =
    cross_ij - rows_i - cols_j, rows and cols the halved squared norms,
    whose rounding grows with the terms the subtraction cancels, so the
    tolerance is 0.5e-10 plus 1e-12 of the largest row and column terms
    (1e-10 and 1e-12 on d2); they are read only when h exceeds 0.5e-10.
    Returns the mask of clamped entries (their gradient is zero), or None
    when there are none."""
    high = h.max() if h.size else 0.0
    if high <= 0:
        return None
    if high > 0.5e-10 and high > 0.5e-10 + 1e-12 * (np.abs(rows).max() + np.abs(cols).max()):
        raise ValueError(f"squared distance negative beyond tolerance in op {op!r}")
    neg = h > 0
    h[neg] = 0.0
    return neg


class _SeArd:
    """sf2 * exp(-0.5 sum_d (x_d - x'_d)^2 / l_d^2) on explicit features, as
    se_ard_features, rand_dist.conditional_draw and the exact-GP marginal
    likelihood (gp_models) share it: the value, and the cotangents of sf2,
    the lengthscales and the inputs from the cotangent of the kernel (the
    exact GP reduces its own tiles and takes only the lengthscales' from
    here). -d2 / 2 comes from the scaled inputs' cross products less their
    halved squared norms; rounding negatives of d2 are clamped to zero,
    larger ones raise. ls and sf2 are the lengthscales' and the
    signal variance's nodes. X and X2 (tensors) may be stacks of inputs
    (leading axes), one kernel matrix per sample. op names the tape op
    built on it in the clamp's error. The kernel is multiplied by scale in
    place right after sf2 (a deep Wishart layer's 1/nu), so K holds
    scale * sf2 * exp(...)."""

    def __init__(self, ls: DiffTensor, sf2: DiffTensor, X: DiffTensor, X2: DiffTensor, op: str,
                 scale=1.0):
        if X.value.shape[-1] != X2.value.shape[-1]:
            raise ValueError("feature dimension mismatch")
        self.ls, self.sf2 = ls, sf2
        if self.ls.value.ndim == 1 and self.ls.value.shape[0] not in (1, X.value.shape[-1]):
            raise ValueError("lengthscale count does not match feature dimension")
        self.X, self.X2, self.same = X, X2, X2 is X
        self.r = r = 1.0 / self.ls.value
        # two buffers even when X2 is X: numpy multiplies X X^T by another
        # BLAS routine than X X2^T, and the kernel's rounding should not
        # depend on it
        self.Xs, self.Xs2 = Xs, Xs2 = X.value * r, X2.value * r
        h1 = 0.5 * np.sum(Xs * Xs, axis=-1, keepdims=True)                     # N x 1
        h2 = h1 if self.same else 0.5 * np.sum(Xs2 * Xs2, axis=-1, keepdims=True)
        # in place, one N x N' buffer becomes -d2 / 2 = Xs Xs2^T - h1 - h2^T,
        # with no pass to scale it, and then K
        self.K = K = Xs @ de._mT(Xs2)
        K -= h1
        K -= de._mT(h2)
        self.neg = _clamp_sqdist(K, h1, h2, op)
        np.exp(K, out=K)
        K *= self.sf2.value
        if scale != 1.0:
            K *= scale

    def backward(self, gk):
        """(cotangent of sf2, cotangents of the scaled inputs: one array when
        X2 is X, else one each, unbroadcast) from gk = g * K, for the
        kernel's cotangent g; gk is overwritten. P's row and column sums are
        products with ones vectors, which BLAS runs, not numpy reductions
        along a short axis."""
        g_sf2 = de._unbroadcast(gk.sum() / self.sf2.value, np.shape(self.sf2.value))
        P = gk      # in place: the cotangent of -d2 / 2, clamped entries zeroed
        if self.neg is not None:
            P[self.neg] = 0.0
        Xs, Xs2 = self.Xs, self.Xs2
        n, m = P.shape[-2:]
        gXs = P @ Xs2 - (P @ np.ones(m))[..., None] * Xs
        gXs2 = de._mT(P) @ Xs - (np.ones(n) @ P)[..., None] * Xs2
        if self.same:
            return g_sf2, (gXs + gXs2,)
        return g_sf2, (de._unbroadcast(gXs, Xs.shape), de._unbroadcast(gXs2, Xs2.shape))

    def g_ls(self, gs):
        """Cotangent of the lengthscales from those of the scaled inputs."""
        r = self.r
        g_r = sum(de._unbroadcast(gx * x.value, r.shape) for gx, x in zip(gs, (self.X, self.X2)))
        return g_r * (-r * r)


def se_ard_features(params: KernelParams, X, X2=None) -> DiffTensor:
    """sf2 * exp(-0.5 sum_d (x_d - x'_d)^2 / l_d^2); N x N' kernel matrix,
    one tape node over X, X2, the lengthscales and sf2 (see _SeArd). X and
    X2 may be stacks of inputs (leading axes), one kernel matrix per
    sample."""
    return _se_node(params.lengthscales(), params.sf2(), X, X2)


def _se_node(ls: DiffTensor, sf2: DiffTensor, X, X2=None, scale=1.0) -> DiffTensor:
    """se_ard_features at the lengthscale and signal-variance nodes ls and
    sf2, for callers that build several kernel blocks from the same ones,
    times the constant scale (see _SeArd)."""
    X = as_tensor(X)
    X2 = X if X2 is None else as_tensor(X2)
    se = _SeArd(ls, sf2, X, X2, "se_kernel", scale)

    def vjp(g):
        g_sf2, gs = se.backward(g * se.K)   # cotangents of sf2 and of the scaled inputs
        return (g_sf2, se.g_ls(gs), *(gx * se.r for gx in gs))

    parents = (se.sf2, se.ls, X) if se.same else (se.sf2, se.ls, X, X2)
    return de.lift(se.K, parents, vjp, "se_kernel")


def _se_blocks(ls: DiffTensor, sf2: DiffTensor, U, F):
    """The blocks (K_uu, K_fu, k_ff diagonal) of the SE kernel over
    inducing inputs U and inputs F, all at the lengthscale and
    signal-variance nodes ls and sf2."""
    F = as_tensor(F)
    return _se_node(ls, sf2, U), _se_node(ls, sf2, F, U), _se_kdiag(sf2, F.value.shape[-2])


def _se_kdiag(sf2, n: int) -> DiffTensor:
    """Diagonal of the SE kernel at n points in O(n): sf2 * 1, sf2 being the
    caller's node for the signal variance."""
    return de.mul(sf2, as_tensor(np.ones(n)))
