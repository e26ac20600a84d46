"""Bayesian neural networks and deep GPs with factorised, local-inducing
(DSVI), and global-inducing variational posteriors, and the one layer loop
that they and the deep Wishart process run, forward(layers, U0, X, rng).

Every layer kind has sample(U, F, rng, last) -> (U_next, F_next,
increment, rng_next): it maps the inducing-side and batch-side inputs
(U, F; U is None where nothing reads it) to the next pair and adds
log p - log q. It draws from rng and hands back the stream the next layer
reads, so each family keeps its streams: BNN layers draw from rng.split(2)
and deep-GP layers from rng.split(1)[0], both handing back rng (spawn
numbers children across calls, so layer i reads children 2i and 2i + 1, or
child i), and the deep Wishart process's Gram layers hand back the third
child of rng.split(3).

Parameters may be plain arrays or tracked DiffTensors. A stream with
sample count S draws all S Monte-Carlo samples at once, each draw site once
from a child of its own: every sampled tensor carries a leading sample
axis, and the sample-independent work (the first layer's, built once per
forward) broadcasts against it. Without S the same code draws one sample
without that axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd
from .diff_engine import DiffTensor, _mT, as_tensor
from .kernels import KernelParams, _se_blocks, _se_node

__all__ = [
    "PriorSpec", "GiBnnLayer", "FacBnnLayer", "GiDgpLayer", "DsviDgpLayer", "forward",
    "mc_elbo", "scale_prior_terms",
]


PRIOR_VARIANTS = ("standard", "neal", "scale")


@dataclass
class PriorSpec:
    """Weight prior p(w_col) = N(0, Sigma / fanin) with Sigma per variant:
    standard: Sigma = fanin * I (activations grow with depth);
    neal:     Sigma = I (1/fanin weight variance);
    scale:    Sigma = I / s, s ~ Gamma(2, 2), q(s) = Gamma(2+a_off, 2+b_off).
    """
    variant: str = "neal"
    alpha_off: object = 0.0
    beta_off: object = 0.0

    def __post_init__(self):
        if self.variant not in PRIOR_VARIANTS:
            raise ValueError(f"unknown prior variant {self.variant!r}")


def _psi(F) -> DiffTensor:
    """F with a column of ones appended for the bias."""
    F = as_tensor(F)
    return de.concat([F, as_tensor(np.ones(F.value.shape[:-1] + (1,)))], axis=-1)


def _prior_precision_scalar(prior: PriorSpec, fanin: int, s=None):
    """nu * Sigma^{-1} as a scalar multiple of I (Sigma is isotropic)."""
    if prior.variant == "standard":
        return as_tensor(np.asarray(1.0))
    if prior.variant == "neal":
        return as_tensor(np.asarray(float(fanin)))
    if s is None:
        raise ValueError("scale prior requires a sampled s")
    return de.elementwise("affine", as_tensor(s), a=float(fanin))


def _gi_draw(L, A, log_lambda, V, rng):
    """A draw from the global-inducing posterior of BNN weights or of GP
    inducing outputs, per sample of rng (one draw from it).

    Each column x of X has the prior N(0, L L^T), and pseudo-observations
    V = A x + noise of precisions Lambda = exp(log_lambda): either L is a
    lower-triangular root and A = None (meaning I), or A is given and L a
    scalar (the root L I; shaped (1, 1), or (S, 1, 1) with one per
    sample). Read through z = L^{-1} x, the prior is N(0, I) and V = B z +
    noise with B = A L, so the posterior of z is N(C^{-T} h, (C C^T)^{-1})
    with C = chol(I + B^T Lambda B) from one Cholesky and h = C^{-1} B^T
    Lambda V. L and A may carry a leading sample axis. Returns
    (L^{-1} X, increment) with L^{-1} X = C^{-T} (h + xi) and
    increment = sum_cols log N(x; 0, L L^T) - log q(x)
              = -0.5 |L^{-1} X|^2 + 0.5 |xi|^2 - width sum log diag C,
    one per sample; a caller that reads X forms it as L L^{-1} X.

    L^{-1} X is one tape node (gi_draw) over L, A, log_lambda and V, whose
    VJP works back through the one factor C; the increment is one node
    (gi_increment) over it."""
    L, log_lambda, V = as_tensor(L), as_tensor(log_lambda), as_tensor(V)
    Lv, Av, Vv = L.value, None if A is None else as_tensor(A).value, V.value
    lam = np.exp(log_lambda.value)
    B = Lv if Av is None else Av * Lv
    P = _mT(B) * lam.reshape(1, Vv.shape[0])                  # B^T Lambda
    G = np.eye(B.shape[-1]) + P @ B
    factor = de._Factor(de._chol_with_jitter(G, "gi_draw"), "gi_draw")
    C = factor.L
    h = factor.solve(P @ Vv, False)
    xi = rng.normal(h.shape[-2:])
    z = factor.solve(h + xi, True)
    width = Vv.shape[-1]
    dC = np.diagonal(C, axis1=-2, axis2=-1)
    inc = -0.5 * np.sum(z * z, axis=(-2, -1)) + (np.sum(-float(width) * np.log(dC), axis=-1)
                                                 + 0.5 * np.sum(xi * xi, axis=(-2, -1)))
    i = np.arange(dC.shape[-1])
    g_inc = [None]     # the increment's cotangent, left there by its VJP

    def vjp(g):
        de._check_finite(g, "cotangent of op 'gi_draw'")
        r_bar = factor.solve(g, False)                          # of h + xi
        h_bar = de._unbroadcast(r_bar, h.shape)
        u_bar = factor.solve(h_bar, True)                       # of B^T Lambda V
        # C's cotangent from both solves, and from the log-determinant. Its
        # strict upper triangle is left in: the Cholesky VJP does not read it
        C_bar = -(de._unbroadcast(z @ _mT(r_bar), C.shape) + u_bar @ _mT(h))
        if g_inc[0] is not None:
            gd, g_inc[0] = de._unbroadcast(g_inc[0], C.shape[:-2]), None
            C_bar[..., i, i] -= float(width) * gd[..., None] / dC
        BG = B @ factor.adjoint(C_bar)
        Pt_bar = BG + Vv @ _mT(u_bar)                           # of Lambda B = P^T
        B_bar = (BG + Pt_bar) * lam[:, None]
        A_bar, L_bar = (None, B_bar) if Av is None else (B_bar * Lv, B_bar * Av)
        return (de._unbroadcast(L_bar, Lv.shape),
                None if Av is None else de._unbroadcast(A_bar, Av.shape),
                de._unbroadcast(np.sum(Pt_bar * B, axis=-1), lam.shape) * lam,
                de._unbroadcast(_mT(P) @ u_bar, Vv.shape))

    def inc_vjp(g):
        # backward_pass walks the tape in reverse creation order, so this
        # VJP, recorded after LinvX's, runs before it and leaves g there for
        # the log-determinant term
        g_inc[0] = g
        return (-np.asarray(g)[..., None, None] * z,)

    LinvX = de.lift(z, (L, A, log_lambda, V), vjp, "gi_draw")
    return LinvX, de.lift(inc, (LinvX,), inc_vjp, "gi_increment")


def _gi_bnn_root(prior: PriorSpec, fanin: int, s=None):
    """The scalar prior root (nu Sigma^{-1})^{-1/2} of a GI BNN layer's
    weights, shaped (1, 1), or (S, 1, 1) under a scale prior's s."""
    prec = _prior_precision_scalar(prior, fanin, s=s)
    root = de.elementwise("sqrt", de.elementwise("reciprocal", prec))
    return de.reshape(root, root.value.shape[:-2] + (1, 1))


def scale_prior_terms(prior: PriorSpec, rng: rd.RngStream):
    """Sample the prior-scale s reparameterized from q(s), one per sample of
    rng, shaped (..., 1, 1) to scale matrices, and return
    (s, KL(q(s) || Gamma(2, 2))). Non-scale variants return (1, 0)."""
    if prior.variant != "scale":
        return as_tensor(np.asarray(1.0)), as_tensor(np.asarray(0.0))
    a_off = as_tensor(prior.alpha_off)
    b_off = as_tensor(prior.beta_off)
    if np.any(a_off.value < 0) or np.any(b_off.value < 0):
        raise ValueError("scale prior offsets must be non-negative")
    aq = de.elementwise("affine", a_off, b=2.0)
    bq = de.elementwise("affine", b_off, b=2.0)
    s = rd.gamma_sample_reparam(aq, bq, rng)
    s = de.reshape(s, s.value.shape + (1, 1))
    kl = rd.kl_gamma((aq, bq), (np.asarray(2.0), np.asarray(2.0)))
    return s, kl


class _BnnLayer:
    """A BNN layer kind draws its weights in _weights(U, d, s, rng, last)
    -> (W, logp - logq, U_next), d the fan-in with the bias, s the prior
    scale."""

    def sample(self, U, F, rng, last=False):
        """The batch outputs psi(F) W, psi appending a bias column; unless
        last, they and U_next go through a relu. The increment is
        log p(W) - log q(W), less KL(q(s) || p(s)) under a scale prior."""
        scale_rng, weight_rng = rng.split(2)
        s, kl_s = scale_prior_terms(self.prior, scale_rng)
        psi_F = _psi(F)
        W, inc, U = self._weights(U, psi_F.value.shape[-1], s, weight_rng, last)
        F = de.matmul(psi_F, W)
        if self.prior.variant == "scale":
            inc = de.sub(inc, kl_s)
        if not last:
            F, U = de.elementwise("relu", F), None if U is None else de.elementwise("relu", U)
        return U, F, inc, rng


@dataclass
class GiBnnLayer(_BnnLayer):
    V: object                      # (M, width) pseudo-outputs
    log_lambda: object             # (M,) log of the diagonal precision
    prior: PriorSpec = field(default_factory=PriorSpec)

    def _weights(self, U, d, s, rng, last):
        """Weights from their global-inducing conditional posterior: each
        column is N(Mean, S), S = (nu Sigma^{-1} + psi^T Lambda psi)^{-1} and
        Mean = S psi^T Lambda V at the inducing features psi = psi(U), drawn
        as r C^{-T} (h + xi) by _gi_draw with A = psi and the prior root
        r = (nu Sigma^{-1})^{-1/2}; U_next = psi W unless last."""
        if U is None:
            raise ValueError("global-inducing layers need inducing inputs")
        psi_U = _psi(U)
        root = _gi_bnn_root(self.prior, psi_U.value.shape[-1], s)
        LinvW, inc = _gi_draw(root, psi_U, self.log_lambda, self.V, rng)
        W = de.mul(root, LinvW)
        return W, inc, None if last else de.matmul(psi_U, W)


@dataclass
class FacBnnLayer(_BnnLayer):
    mean_scaled: object            # (d, width); effective mean = mean_scaled * scale
    log_std: object                # (d, width)
    scale: float = 1.0
    prior: PriorSpec = field(default_factory=PriorSpec)

    def _weights(self, U, d, s, rng, last):
        """Weights from the mean-field posterior; U passes through."""
        mean = de.elementwise("affine", as_tensor(self.mean_scaled), a=float(self.scale))
        std = de.elementwise("exp", as_tensor(self.log_std))
        if mean.value.shape[0] != d:
            raise ValueError("factorised layer fan-in mismatch")
        xi = as_tensor(rng.normal(mean.value.shape))
        W = de.add(mean, de.mul(std, xi))
        prior_var = de.elementwise("reciprocal", _prior_precision_scalar(self.prior, d, s=s))
        logp = rd.normal_log_density(W, as_tensor(np.zeros_like(mean.value)), prior_var,
                                     event_ndim=2)
        logq = rd.normal_log_density(W, mean, de.elementwise("square", std), event_ndim=2)
        return W, de.sub(logp, logq), U


@dataclass
class GiDgpLayer:
    V: object                      # (M, width)
    log_lambda: object             # (M,)
    kernel_params: KernelParams = field(default_factory=KernelParams)
    mean_function: str = "zero"    # "zero" | "identity"

    def sample(self, U, F, rng, last=False):
        return (*self._draw(U, F, rng.split(1)[0], last), rng)

    def _blocks(self, U):
        """(K_uu, ls, sf2): the kernel over the inducing inputs U and the
        lengthscale and signal-variance nodes it is built at, from which
        conditional_draw builds the batch rows' blocks."""
        kp = self.kernel_params
        ls, sf2 = kp.lengthscales(), kp.sf2()
        return _se_node(ls, sf2, U), ls, sf2

    def _draw(self, U, F, rng, last):
        """(U_next, F_next, logp - logq): the inducing outputs from their
        posterior under L = chol(K_uu), then the batch rows from the prior
        conditional p(F | U) in one conditional_draw node from the kernel
        inputs (U, F), each from a child of rng; U_next is None on the last
        layer, which no layer reads."""
        U, F = as_tensor(U), as_tensor(F)
        K_uu, ls, sf2 = self._blocks(U)
        L = de.cholesky_factor(K_uu)
        u_rng, f_rng = rng.split(2)
        LinvU, inc = _gi_draw(L, None, self.log_lambda, self.V, u_rng)
        F_next = rd.conditional_draw(L, ls, sf2, U, F, LinvU, f_rng)
        U_next = None if last else de.matmul(L, LinvU)
        if self.mean_function == "identity":
            U_next = None if U_next is None else de.add(U_next, U)
            F_next = de.add(F_next, F)
        return U_next, F_next, inc


@dataclass
class DsviDgpLayer:
    Z: object                      # (M, d_in) local inducing inputs
    m: object                      # (M, width)
    S_chol: object                 # (width, M, M): S_chol[l] is output l's covariance root
    kernel_params: KernelParams = field(default_factory=KernelParams)
    mean_function: str = "zero"

    def marginals(self, F):
        """(means, vars, increment): the per-point q(f) moments at inputs F
        (nb, d) or a stack of them with the local inducing outputs
        integrated out, output-major (..., w, nb), and -KL(q(u) || p(u))
        summed over outputs, q(u_l) = N(m_l, S_l S_l^T), p(u_l) = N(0, K_zz),
        all from one factor of K_zz."""
        kp = self.kernel_params
        K_zz, K_fz, kdiag = _se_blocks(kp.lengthscales(), kp.sf2(), as_tensor(self.Z), F)
        L = de.cholesky_factor(K_zz)
        inc = rd._kl_gaussian_chol(self.m, self.S_chol, np.zeros((L.value.shape[-1], 1)), L,
                                   negate=True)
        W, base_var = rd.gaussian_conditional(L, de.transpose(K_fz), kdiag)
        return (*rd.inducing_marginals(L, W, base_var, self.m, self.S_chol), inc)

    def sample(self, U, F, rng, last=False):
        """The marginals at F sampled in one (S, w, nb) draw."""
        means, vars_, inc = self.marginals(F)
        F_next = de.transpose(rd.conditional_sample(means, vars_, rng.split(1)[0]))
        if self.mean_function == "identity":
            F_next = de.add(F_next, as_tensor(F))
        return U, F_next, inc, rng


def forward(layers, U0, X, rng):
    """The layers' Monte-Carlo samples from (U0, X), one per sample of rng:
    (outputs, increment), the increment the sum of the layers' (0 with no
    layers)."""
    U, F = None if U0 is None else as_tensor(U0), as_tensor(X)
    inc = as_tensor(np.asarray(0.0))
    for i, layer in enumerate(layers):
        U, F, inc_i, rng = layer.sample(U, F, rng, i == len(layers) - 1)
        inc = inc_i if i == 0 else de.add(inc, inc_i)
    return F, inc


def mc_elbo(forward, yb, total_n, n_samples, rng: rd.RngStream, log_noise,
            kl_scale=1.0):
    """Monte-Carlo ELBO with a Gaussian likelihood over one batched forward.

    forward(stream) -> (outputs, increment) draws the samples from rng's
    seed with the sample count S = n_samples: outputs (S, Nb, 1) and
    increment (S,); an output (Nb, 1) or a scalar increment is shared by
    every sample. The returned value is the sample mean of
    (N/Nb) * log-likelihood + kl_scale * increment.
    """
    yb = as_tensor(yb)
    nb = yb.value.shape[0]
    s2 = de.elementwise("exp", as_tensor(log_noise))
    F, inc = forward(rd.RngStream(rng.seed, n_samples))
    out = de.reshape(F, (-1, nb))                   # one row per sample
    ll = rd.normal_log_density(yb, out, s2)         # summed over the rows
    lik = de.elementwise("affine", ll, a=float(total_n) / (nb * out.value.shape[0]))
    return de.add(lik, de.elementwise("affine", de.tsum(inc),
                                      a=float(kl_scale) / inc.value.size))


