"""Deep Wishart process: prior over Gram matrices and a generalized-Wishart
approximate posterior over the inducing Grams, with the batch rows drawn
from the prior conditional; the ELBO is deep_models.mc_elbo over
dwp_forward."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd
from .deep_models import _gi_layer_sample
from .diff_engine import DiffTensor, as_tensor
from .kernels import KernelParams, _gram_se_params, _se_gram, _se_kdiag

__all__ = [
    "GWishLayerPosterior", "DwpState", "gram_kernel_blocks", "dwp_posterior_layer",
    "dwp_conditional_testpoints", "dwp_forward",
]


@dataclass
class GWishLayerPosterior:
    """Approximate posterior q(G | G_prev) = gWish(G; mixed scale, nu, ...).

    Mixed scale: (1-q) K(G_prev)/nu + q V V^T, q in (0,1) stored as a logit.
    alpha/beta generalize the Bartlett chi-squared diagonals, mu/sigma the
    sub-diagonal Gaussians. The variant follows from the optional mixings:
    base (neither); A (A_packed: an invertible mixing of the rows,
    LU-packed); AB (A_packed and B_packed: also a lower-triangular column
    mixing).
    """
    V: object                      # (M, M)
    logit_q: object                # scalar
    nu: int = 1
    log_alpha: object = None       # (ntilde,)
    log_beta: object = None        # (ntilde,)
    mu: object = None              # (M, ntilde), strictly-below-diagonal used
    log_sigma: object = None       # (M, ntilde)
    A_packed: object = None        # (M, M) LU-packed
    B_packed: object = None        # (ntilde, ntilde): log-diag, raw sub-diag
    kernel_params: KernelParams = field(default_factory=KernelParams)  # K(G_prev)


@dataclass
class DwpState:
    inducing_inputs: object        # (M, nu0)
    layers: list                   # GWishLayerPosterior per Gram layer
    final_layer: object            # deep_models.GiDgpLayer over the last Gram
    nu0: int = 1


def standard_bartlett_params(M: int, nu: int):
    """alpha, beta, mu, sigma at which the generalized density reduces to the
    standard (singular) Wishart: T_jj^2 ~ Gamma((nu-j+1)/2, 1/2), T_ij ~ N(0,1)."""
    ntilde = min(M, nu)
    j = np.arange(1, ntilde + 1)
    alpha = 0.5 * (nu - j + 1.0)
    beta = np.full(ntilde, 0.5)
    mu = np.zeros((M, ntilde))
    sigma = np.ones((M, ntilde))
    return alpha, beta, mu, sigma


def _chol_from_raw(raw) -> DiffTensor:
    """Lower-triangular matrix with structurally positive diagonal from an
    unconstrained square matrix or a stack (diagonal passed through exp)."""
    raw = as_tensor(raw)
    n = raw.value.shape[-1]
    low = de.mul(raw, as_tensor(np.tril(np.ones((n, n)), k=-1)))
    diag = de.diag_embed(de.elementwise("exp", de.diag_part(raw)))
    return de.add(low, diag)


def gram_kernel_blocks(kp: KernelParams, G_ii, G_ti, g_tt, nu):
    """SE kernel blocks from Gram blocks: only needs the squared-distance
    identity d2_ij = nu (G_ii - 2 G_ij + G_jj), so the test-test off-diagonal
    Gram entries are never required.

    Returns (K_ii, K_ti, k_tt_diag); stacked Gram blocks give stacked
    kernel blocks."""
    G_ii, g_tt = as_tensor(G_ii), as_tensor(g_tt)
    nt = g_tt.value.shape[-1]
    sf2, ls = _gram_se_params(kp)
    gi = de.diag_part(G_ii)
    K_ii = _se_gram(gi, G_ii, gi, nu, sf2, ls)
    K_ti = _se_gram(g_tt, G_ti, gi, nu, sf2, ls)
    return K_ii, K_ti, _se_kdiag(sf2, nt)


def dwp_posterior_layer(layer: GWishLayerPosterior, S_ii, L_ii, rng: rd.RngStream):
    """One posterior layer on the inducing block: samples G_ii from the
    layer's generalized Wishart over the mixed scale (1-q) S_ii + q V V^T,
    with S_ii the prior scale K(G_ii_prev)/nu and L_ii its lower Cholesky
    factor (the Bartlett draws take children of rng), and returns
    (G_ii, features, increment) with features the retained
    generalized-Bartlett root (F F^T = G_ii) and
    increment = log p(G_ii | G_ii_prev) - log q(G_ii | G_ii_prev), the prior
    density read from the root. The A-variant's block log-det enters both
    densities alike and is left out of both.
    """
    q = de.elementwise("sigmoid", as_tensor(layer.logit_q))
    V = as_tensor(layer.V)
    mixed = de.add(de.mul(de.elementwise("affine", q, a=-1.0, b=1.0), as_tensor(S_ii)),
                   de.mul(q, de.matmul(V, de.transpose(V))))
    G, logq, feat, ld_block, _ = rd._gwish_sample(
        de.cholesky_factor(mixed), layer.nu, de.elementwise("exp", as_tensor(layer.log_alpha)),
        de.elementwise("exp", as_tensor(layer.log_beta)), layer.mu,
        de.elementwise("exp", as_tensor(layer.log_sigma)), rng,
        layer.A_packed, None if layer.B_packed is None else _chol_from_raw(layer.B_packed))
    logp = rd._wishart_log_density_root(feat, L_ii, int(layer.nu), ld_block)
    return G, feat, de.sub(logp, logq)


def dwp_conditional_testpoints(feat_i, L_ii, S_ti, s_tt, nu: int, rng: rd.RngStream):
    """Sample imagined test-point features from the prior conditional, in
    one draw from rng, and assemble the Gram cross blocks (G_ti, g_tt).

    feat_i: (M, ntilde) root of the inducing Gram (padded to M x nu if needed);
    L_ii: lower Cholesky factor of the prior scale block S_ii (K/nu);
    S_ti, s_tt: the test rows' prior scale block and diagonal, so that per
    point F_t = S_ti S_ii^{-1} F_i + sqrt(s_tt - s_ti S_ii^{-1} s_it) xi,
    drawn by rd.conditional_draw at L_ii^{-1} F_i."""
    feat_i = as_tensor(feat_i)
    width = feat_i.value.shape[-1]
    if width < nu:
        pad = np.zeros(feat_i.value.shape[:-1] + (nu - width,))
        feat_i = de.concat([feat_i, as_tensor(pad)], axis=-1)
    elif width > nu:
        raise ValueError("feature root wider than the layer width")
    feat_t = rd.conditional_draw(L_ii, S_ti, s_tt, de.triangular_solve(L_ii, feat_i), rng)
    G_ti = de.matmul(feat_t, de.transpose(feat_i))
    g_tt = de.tsum(de.elementwise("square", feat_t), axis=-1)
    return G_ti, g_tt


def dwp_forward(state: DwpState, Xt, rng):
    """The Monte-Carlo samples of the deep Wishart process at the batch
    inputs Xt, one per sample of rng (or one sample if it has no sample
    count): returns (outputs, increment), stacked over samples. Each Gram
    layer samples the inducing block from the approximate posterior
    (contributing log p - log q) and the batch rows from the prior
    conditional (their densities cancel), from children of rng of their
    own; the final layer is a global-inducing GP over the last Gram matrix.
    The first layer's kernel blocks and factors see only the parameters and
    the inputs, so they carry no sample axis."""
    Xi, Xt = as_tensor(state.inducing_inputs), as_tensor(Xt)
    grams = [de.matmul(Xi, de.transpose(Xi)), de.matmul(Xt, de.transpose(Xi)),
             de.tsum(de.elementwise("square", Xt), axis=1)]
    grams = [de.elementwise("affine", G, a=1.0 / float(state.nu0)) for G in grams]
    nu_prev = state.nu0
    inc_sum = as_tensor(np.asarray(0.0))
    for layer in state.layers:
        nu = int(layer.nu)
        S_ii, S_ti, s_tt = (de.elementwise("affine", K, a=1.0 / nu) for K in
                            gram_kernel_blocks(layer.kernel_params, *grams, nu_prev))
        L_ii = de.cholesky_factor(S_ii)
        post_rng, rows_rng, rng = rng.split(3)
        G_ii, feat_i, inc = dwp_posterior_layer(layer, S_ii, L_ii, post_rng)
        inc_sum = de.add(inc_sum, inc)
        grams = (G_ii, *dwp_conditional_testpoints(feat_i, L_ii, S_ti, s_tt, nu, rows_rng))
        nu_prev = nu
    final = state.final_layer
    _, F, inc = _gi_layer_sample(*gram_kernel_blocks(final.kernel_params, *grams, nu_prev),
                                 final, rng, last=True)
    return F, de.add(inc_sum, inc)
