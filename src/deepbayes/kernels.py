"""Covariance functions on features and on Gram matrices."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from .diff_engine import DiffTensor, as_tensor

__all__ = ["KernelParams", "se_ard_features", "se_from_gram", "add_layer_noise"]


@dataclass
class KernelParams:
    """Squared-exponential kernel hyperparameters, stored in log space.

    log_lengthscales is a length-D vector for ARD or a scalar for a single
    shared lengthscale; log_noise is an optional per-layer noise variance
    parameter (log sigma_l^2).
    """
    log_sf2: object = 0.0                      # log signal variance
    log_lengthscales: object = 0.0             # scalar or (D,)
    log_noise: object = None                   # log sigma_l^2, optional

    def sf2(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_sf2))

    def lengthscales(self) -> DiffTensor:
        return de.elementwise("exp", as_tensor(self.log_lengthscales))

    def noise_var(self) -> DiffTensor:
        if self.log_noise is None:
            raise ValueError("kernel has no noise parameter")
        return de.elementwise("exp", as_tensor(self.log_noise))


def _sqdist(sq_rows, cross, sq_cols, scale) -> DiffTensor:
    """scale * (sq_rows - 2 cross + sq_cols) from the squared norms as a
    column (N x 1) and a row (1 x N') and the cross products (N x N').
    Rounding negatives are clamped to zero; larger ones raise."""
    d2 = de.add(de.sub(sq_rows, de.elementwise("affine", cross, a=2.0)), sq_cols)
    if scale != 1.0:
        d2 = de.elementwise("affine", d2, a=float(scale))
    v = d2.value
    if np.any(v < -1e-10):
        raise ValueError("squared distance negative beyond tolerance")
    return de.mul(d2, as_tensor((v >= 0).astype(np.float64)))


def se_ard_features(params: KernelParams, X, X2=None) -> DiffTensor:
    """sf2 * exp(-0.5 sum_d (x_d - x'_d)^2 / l_d^2); N x N' kernel matrix."""
    X = as_tensor(X)
    X2 = X if X2 is None else as_tensor(X2)
    if X.value.shape[1] != X2.value.shape[1]:
        raise ValueError("feature dimension mismatch")
    ls = params.lengthscales()
    if ls.value.ndim == 1 and ls.value.shape[0] not in (1, X.value.shape[1]):
        raise ValueError("lengthscale count does not match feature dimension")
    Xs = de.div(X, ls)
    Xs2 = de.div(X2, ls)
    n1 = de.tsum(de.elementwise("square", Xs), axis=1, keepdims=True)     # N x 1
    n2 = de.tsum(de.elementwise("square", Xs2), axis=1, keepdims=True)    # N' x 1
    d2 = _sqdist(n1, de.matmul(Xs, de.transpose(Xs2)), de.transpose(n2), 1.0)
    return de.mul(params.sf2(), de.elementwise("exp", de.elementwise("affine", d2, a=-0.5)))


def se_from_gram(params: KernelParams, G, nu) -> DiffTensor:
    """SE kernel evaluated from a normalized Gram matrix G = F F^T / nu.

    d2_ij = nu * (G_ii - 2 G_ij + G_jj); single shared lengthscale only, since
    there are no explicit feature coordinates to weight separately.
    """
    G = as_tensor(G)
    diag = de.reshape(de.diag_part(G), (G.value.shape[0], 1))
    sf2, l2 = _gram_se_params(params)
    return _se_sqdist(sf2, l2, _sqdist(diag, G, de.transpose(diag), nu))


def _gram_se_params(params: KernelParams):
    """(sf2, l^2) of an SE kernel on Gram matrices."""
    ls = params.lengthscales()
    if ls.value.ndim and ls.value.size > 1:
        raise ValueError("se_from_gram requires a single shared lengthscale")
    return params.sf2(), de.elementwise("square", ls)


def _se_sqdist(sf2, l2, d2) -> DiffTensor:
    """sf2 * exp(-0.5 d2 / l^2)."""
    return de.mul(sf2, de.elementwise("exp", de.elementwise("affine", de.div(d2, l2), a=-0.5)))


def _se_kdiag(params: KernelParams, sf2, n: int) -> DiffTensor:
    """Diagonal of the SE kernel at n points in O(n): sf2 * 1 (sf2 is
    params.sf2() or the caller's node for it), plus the layer noise if any."""
    kdiag = de.mul(sf2, as_tensor(np.ones(n)))
    return kdiag if params.log_noise is None else de.add(kdiag, params.noise_var())


def add_layer_noise(K, noise_var) -> DiffTensor:
    """K + noise_var * I."""
    K = as_tensor(K)
    n = K.value.shape[0]
    if K.value.shape[0] != K.value.shape[1]:
        raise ValueError("add_layer_noise requires a square matrix")
    nv = as_tensor(noise_var)
    return de.add(K, de.mul(nv, as_tensor(np.eye(n))))
