"""Deep Wishart process layers for deep_models.forward: Gram layers with a
generalized-Wishart posterior over the inducing block and the batch rows
from the prior conditional, then a global-inducing GP. Each layer holds its
Gram G = F F^T by the root F that its samplers draw (the loop's U and F are
the inducing and the batch roots), and its SE kernel reads G only through
the squared distances of the root's rows, so no Gram matrix is formed. A
layer builds its inducing block K_ii on the tape; the batch rows' blocks
are built inside the one rand_dist.conditional_draw node that draws them,
from the two roots."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd
from .deep_models import GiDgpLayer
from .diff_engine import DiffTensor, as_tensor
from .kernels import KernelParams, _se_node

__all__ = [
    "GWishLayerPosterior", "DwpOutputLayer", "gram_kernel_blocks", "dwp_posterior_layer",
    "dwp_conditional_testpoints",
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
    nu_in: int = 1                 # the previous layer's nu; 1 reads the inputs as they are

    def sample(self, U, F, rng, last=False):
        """The inducing root from the approximate posterior (log p - log q),
        then the batch rows from the prior conditional (their densities
        cancel), both from the one solve L_ii^{-1} F_i of the root against
        the prior scale S_ii = K_ii / nu, which the kernel node builds. The
        first layer's kernel reads the inputs as they are (the SE kernel of
        G = X X^T / D at nu = D is that of X), so its blocks and factors
        carry no sample axis."""
        nu = int(self.nu)
        S_ii, ls, sf2 = gram_kernel_blocks(self.kernel_params, U, self.nu_in, 1.0 / nu)
        L_ii = de.cholesky_factor(S_ii)
        post_rng, rows_rng, rng = rng.split(3)
        feat_i, Z_i, inc = dwp_posterior_layer(self, S_ii, L_ii, post_rng)
        return (*dwp_conditional_testpoints(feat_i, Z_i, L_ii, ls, sf2, U, F, nu, rows_rng), inc,
                rng)


@dataclass
class DwpOutputLayer(GiDgpLayer):
    """The global-inducing GP over the last Gram matrix, whose K_uu and
    kernel nodes gram_kernel_blocks builds from that layer's inducing root U
    (width nu_in); its rows' blocks come from the roots (U, F) inside the
    draw. It draws from the stream it is handed."""
    nu_in: int = 1

    def sample(self, U, F, rng, last=True):
        return (*self._draw(U, F, rng, last), rng)

    def _blocks(self, U):
        return gram_kernel_blocks(self.kernel_params, U, self.nu_in)


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


def gram_kernel_blocks(kp: KernelParams, F_i, nu, scale=1.0):
    """(K_ii, ls, sf2): a layer's SE kernel block over the inducing rows i
    from the root F_i of their Gram block (G = F F^T; a stacked root gives
    stacked blocks), times the constant scale in the same node (a Gram
    layer's 1/nu), and the lengthscale and signal-variance nodes it is
    built at, from which rand_dist.conditional_draw builds the test rows'
    blocks K_ti and k_tt from their root. The kernel reads G only through
    d2_ij = nu (G_ii - 2 G_ij + G_jj) = nu |f_i - f_j|^2, so the blocks are
    the feature SE kernel on the roots at lengthscale l / sqrt(nu), and the
    test rows' Gram entries among themselves are never needed. Only a
    single shared lengthscale makes it a function of G, invariant under
    rotations of the roots."""
    ls = kp.lengthscales()
    if ls.value.size > 1:
        raise ValueError("an SE kernel on Gram matrices requires a single shared lengthscale")
    if nu != 1:
        ls = de.elementwise("affine", ls, a=float(nu) ** -0.5)
    sf2 = kp.sf2()
    return _se_node(ls, sf2, F_i, scale=scale), ls, sf2


def dwp_posterior_layer(layer: GWishLayerPosterior, S_ii, L_ii, rng: rd.RngStream):
    """One posterior layer on the inducing block: samples G_ii from the
    layer's generalized Wishart over the mixed scale (1-q) S_ii + q V V^T,
    with S_ii the prior scale K(G_ii_prev)/nu and L_ii its lower Cholesky
    factor (the Bartlett draws take children of rng), and returns
    (features, solved, increment) with features the generalized-Bartlett
    root (F F^T = G_ii), solved = L_ii^{-1} features, the one solve that the
    prior density and dwp_conditional_testpoints read, and
    increment = log p(G_ii | G_ii_prev) - log q(G_ii | G_ii_prev), the prior
    density read from the solved root. The A-variant's block log-det enters
    both densities alike and is left out of both.
    """
    q = de.elementwise("sigmoid", as_tensor(layer.logit_q))
    V = as_tensor(layer.V)
    mixed = de.add(de.mul(de.elementwise("affine", q, a=-1.0, b=1.0), as_tensor(S_ii)),
                   de.mul(q, de.matmul(V, de.transpose(V))))
    logq, feat, ld_block, _ = rd._gwish_sample(
        de.cholesky_factor(mixed), layer.nu, de.elementwise("exp", as_tensor(layer.log_alpha)),
        de.elementwise("exp", as_tensor(layer.log_beta)), layer.mu,
        de.elementwise("exp", as_tensor(layer.log_sigma)), rng,
        layer.A_packed, None if layer.B_packed is None else _chol_from_raw(layer.B_packed))
    Z = de.triangular_solve(L_ii, feat)
    logp = rd._wishart_log_density_root(Z, L_ii, int(layer.nu), ld_block)
    return feat, Z, de.sub(logp, logq)


def dwp_conditional_testpoints(feat_i, Z_i, L_ii, ls, sf2, U, F, nu: int, rng: rd.RngStream):
    """Sample imagined test-point features from the prior conditional, in
    one draw from rng: returns (F_i, F_t), the inducing root padded with
    zero columns to M x nu and the test points' root, whose Gram blocks are
    G_ti = F_t F_i^T and g_tt = |F_t|^2 per row.

    feat_i: (M, ntilde) root of the inducing Gram;
    Z_i: L_ii^{-1} feat_i, the solved root, padded here with zero columns
    as feat_i is (L^{-1} [F, 0] = [L^{-1} F, 0]);
    L_ii: lower Cholesky factor of the prior scale block S_ii = K_ii / nu;
    ls, sf2, U, F: the kernel's lengthscale and signal-variance nodes
    (gram_kernel_blocks) and its inputs, the previous layer's inducing and
    test roots, so that the test rows' prior scale blocks are S_ti = K_ti /
    nu and s_tt = sf2 / nu, and per point F_t = S_ti S_ii^{-1} F_i +
    sqrt(s_tt - s_ti S_ii^{-1} s_it) xi, drawn by rd.conditional_draw at
    the padded Z_i with scale 1/nu."""
    feat_i, Z_i = as_tensor(feat_i), as_tensor(Z_i)
    width = feat_i.value.shape[-1]
    if width < nu:
        pad = as_tensor(np.zeros(feat_i.value.shape[:-1] + (nu - width,)))
        feat_i, Z_i = (de.concat([x, pad], axis=-1) for x in (feat_i, Z_i))
    elif width > nu:
        raise ValueError("feature root wider than the layer width")
    return feat_i, rd.conditional_draw(L_ii, ls, sf2, U, F, Z_i, rng, scale=1.0 / nu)
