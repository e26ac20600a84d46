"""Bayesian neural networks and deep GPs with factorised, local-inducing
(DSVI), and global-inducing variational posteriors.

Layer parameters may be plain arrays or tracked DiffTensors; every function
composes diff_engine ops so gradients flow when a tape is active.

A forward draws all its Monte-Carlo samples at once from a
rand_dist.RngStream with sample count S, each draw site once from a child
stream of its own: every sampled tensor carries a leading sample axis, and
the sample-independent work it is combined with (the first layer's, built
once per forward) broadcasts against it. Without S the same functions draw
a single sample without that axis. A function that draws at one site draws
from the stream it is given; one that draws at several splits it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd
from .diff_engine import DiffTensor, _mT, as_tensor
from .kernels import KernelParams, _se_kdiag, se_ard_features

__all__ = [
    "PriorSpec", "GiBnnLayer", "FacBnnLayer", "GiDgpLayer", "DsviDgpLayer",
    "gi_bnn_layer_sample", "fac_bnn_layer_sample", "bnn_forward", "mc_elbo",
    "scale_prior_terms", "gi_dgp_layer_sample", "dsvi_dgp_layer_marginals",
    "dsvi_dgp_layer_sample",
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


@dataclass
class GiBnnLayer:
    V: object                      # (M, width) pseudo-outputs
    log_lambda: object             # (M,) log of the diagonal precision
    prior: PriorSpec = field(default_factory=PriorSpec)


@dataclass
class FacBnnLayer:
    mean_scaled: object            # (d, width); effective mean = mean_scaled * scale
    log_std: object                # (d, width)
    scale: float = 1.0
    prior: PriorSpec = field(default_factory=PriorSpec)


@dataclass
class GiDgpLayer:
    V: object                      # (M, width)
    log_lambda: object             # (M,)
    kernel_params: KernelParams = field(default_factory=KernelParams)
    mean_function: str = "zero"    # "zero" | "identity"


@dataclass
class DsviDgpLayer:
    Z: object                      # (M, d_in) local inducing inputs
    m: object                      # (M, width)
    S_chol: object                 # (width, M, M): S_chol[l] is output l's covariance root
    kernel_params: KernelParams = field(default_factory=KernelParams)
    mean_function: str = "zero"


def _psi(F, first_layer: bool) -> DiffTensor:
    """Activation convention: inputs pass through untouched at layer 0,
    relu elsewhere; then a column of ones is appended for the bias."""
    F = as_tensor(F)
    h = F if first_layer else de.elementwise("relu", F)
    return de.concat([h, as_tensor(np.ones(h.value.shape[:-1] + (1,)))], axis=-1)


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
    (X, L^{-1} X, increment) with L^{-1} X = C^{-T} (h + xi), X = L L^{-1} X,
    increment = sum_cols log N(x; 0, L L^T) - log q(x)
              = -0.5 |L^{-1} X|^2 + 0.5 |xi|^2 - width sum log diag C,
    one per sample.

    L^{-1} X is one tape node (gi_draw) over L, A, log_lambda and V, whose
    VJP works back through the one factor C; the increment is one node
    (gi_increment) over it, and X a matmul (a mul when A is given)."""
    L, log_lambda, V = as_tensor(L), as_tensor(log_lambda), as_tensor(V)
    Lv, Av, Vv = L.value, None if A is None else as_tensor(A).value, V.value
    lam = np.exp(log_lambda.value)
    B = Lv if Av is None else Av * Lv
    P = _mT(B) * lam.reshape(1, Vv.shape[0])                  # B^T Lambda
    G = np.eye(B.shape[-1]) + P @ B
    de._check_finite(G, "I + B^T Lambda B of op 'gi_draw'")
    factor = de._Factor(de._chol_with_jitter(G, "gi_draw"))
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
    inc = de.lift(inc, (LinvX,), inc_vjp, "gi_increment")
    return (de.matmul if A is None else de.mul)(L, LinvX), LinvX, inc


def _gi_bnn_root(prior: PriorSpec, fanin: int, s=None):
    """The scalar prior root (nu Sigma^{-1})^{-1/2} of a GI BNN layer's
    weights, shaped (1, 1), or (S, 1, 1) under a scale prior's s."""
    prec = _prior_precision_scalar(prior, fanin, s=s)
    root = de.elementwise("sqrt", de.elementwise("reciprocal", prec))
    return de.reshape(root, root.value.shape[:-2] + (1, 1))


def gi_bnn_layer_sample(psi_U, layer: GiBnnLayer, rng: rd.RngStream, s=None):
    """Sample the layer weights from their global-inducing conditional
    posterior: each column is N(Mean, S) with
    S = (nu Sigma^{-1} + psi^T Lambda psi)^{-1} and Mean = S psi^T Lambda V,
    psi_U (M, d) being the propagated, activated inducing features (bias
    included); a scale prior reads the sampled s. W is drawn as
    r C^{-T} (h + xi) by _gi_draw, with A = psi_U and the scalar prior root
    r = (nu Sigma^{-1})^{-1/2}. Returns (W, logp_minus_logq, U_next) with
    U_next = psi_U @ W.
    """
    psi_U = as_tensor(psi_U)
    W, _, inc = _gi_draw(_gi_bnn_root(layer.prior, psi_U.value.shape[-1], s), psi_U,
                         layer.log_lambda, layer.V, rng)
    return W, inc, de.matmul(psi_U, W)


def fac_bnn_layer_sample(layer: FacBnnLayer, d: int, rng: rd.RngStream, s=None):
    """Sample weights from the mean-field posterior, one per sample of rng;
    returns (W, logp - logq)."""
    mean = de.elementwise("affine", as_tensor(layer.mean_scaled), a=float(layer.scale))
    std = de.elementwise("exp", as_tensor(layer.log_std))
    if mean.value.shape[0] != d:
        raise ValueError("factorised layer fan-in mismatch")
    xi = as_tensor(rng.normal(mean.value.shape))
    W = de.add(mean, de.mul(std, xi))
    prior_prec = _prior_precision_scalar(layer.prior, d, s=s)
    prior_var = de.elementwise("reciprocal", prior_prec)
    logp = rd.normal_log_density(W, as_tensor(np.zeros_like(mean.value)), prior_var,
                                 event_ndim=2)
    logq = rd.normal_log_density(W, mean, de.elementwise("square", std), event_ndim=2)
    return W, de.sub(logp, logq)


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


def bnn_forward(layers, X, rng, inducing_inputs=None):
    """The Monte-Carlo samples of a BNN at the batch X, one per sample of
    rng (or one sample if it has no sample count): returns (outputs,
    increment) with increment the sum over layers of
    log p(W) - log q(W) - KL(q(s) || p(s)), one per sample. Each layer's
    prior scale and weights draw from children of their own.

    Global-inducing layers propagate the learned inducing inputs alongside
    the batch; factorised layers only need the batch.
    """
    F = as_tensor(X)
    U = None if inducing_inputs is None else as_tensor(inducing_inputs)
    inc_sum = as_tensor(np.asarray(0.0))
    for i, layer in enumerate(layers):
        scale_rng, weight_rng = rng.split(2)
        s, kl_s = scale_prior_terms(layer.prior, scale_rng)
        psi_F = _psi(F, i == 0)
        if isinstance(layer, GiBnnLayer):
            if U is None:
                raise ValueError("global-inducing layers need inducing inputs")
            W, inc, U = gi_bnn_layer_sample(_psi(U, i == 0), layer, weight_rng, s)
        else:
            W, inc = fac_bnn_layer_sample(layer, psi_F.value.shape[-1], weight_rng, s=s)
        F = de.matmul(psi_F, W)
        inc_sum = de.add(inc_sum, de.sub(inc, kl_s))
    return F, inc_sum


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


def _gi_layer_sample(K_uu, K_fu, kdiag, layer, rng, inputs=None):
    """gi_dgp_layer_sample from the layer's kernel blocks; inputs, if given,
    are the (U_prev, F_prev) that an identity mean function adds to the
    outputs. The inducing and the row draw take a child of rng each."""
    L = de.cholesky_factor(as_tensor(K_uu))
    W, var = rd.gaussian_conditional(L, de.transpose(K_fu), kdiag)
    # Without a tape nothing else holds blocks passed in unnamed, so they are
    # freed before the draws: an evaluation's stacked K_fu is the layer's
    # largest array, and holding it through the draws raises the heap's
    # high-water mark (measured as extra page faults per evaluation).
    del K_uu, K_fu, kdiag
    u_rng, f_rng = rng.split(2)
    U, wu, inc = _gi_draw(L, None, layer.log_lambda, layer.V, u_rng)
    F = rd.conditional_sample(de.matmul(de.transpose(W), wu), var, f_rng)
    if inputs is not None:
        U, F = de.add(U, inputs[0]), de.add(F, inputs[1])
    return U, F, inc


def gi_dgp_layer_sample(F_prev, U_prev, layer: GiDgpLayer, rng: rd.RngStream):
    """Samples of a global-inducing DGP layer at inputs F_prev and inducing
    inputs U_prev, one per sample of rng: U from the posterior of its
    inducing outputs under L = chol(K_uu), then the batch outputs from the
    prior conditional p(F | U), independent per point. Returns
    (U_next, F_next, logp - logq)."""
    U_prev, F_prev, kp = as_tensor(U_prev), as_tensor(F_prev), layer.kernel_params
    return _gi_layer_sample(se_ard_features(kp, U_prev), se_ard_features(kp, F_prev, U_prev),
                            _se_kdiag(kp.sf2(), F_prev.value.shape[-2]), layer, rng,
                            (U_prev, F_prev) if layer.mean_function == "identity" else None)


def dsvi_dgp_layer_marginals(F_prev, layer: DsviDgpLayer):
    """Per-point marginal q(f) moments after analytically integrating out the
    local inducing outputs, at inputs F_prev (nb, d) or a stack of them, and
    KL(q(u) || p(u)) summed over the layer's outputs, with
    q(u_l) = N(m_l, S_l S_l^T) and p(u_l) = N(0, K_zz): both read one factor
    of K_zz. Returns (means, vars, kl) with output-major (..., w, nb) moments,
    stacked like F_prev (means[l]: output l's, unstacked)."""
    kp, F_prev, Z = layer.kernel_params, as_tensor(F_prev), as_tensor(layer.Z)
    L = de.cholesky_factor(se_ard_features(kp, Z))
    kl = rd._kl_gaussian_chol(layer.m, layer.S_chol, np.zeros((L.value.shape[-1], 1)), L)
    K_fz = se_ard_features(kp, F_prev, Z)
    kdiag = _se_kdiag(kp.sf2(), F_prev.value.shape[-2])
    W, base_var = rd.gaussian_conditional(L, de.transpose(K_fz), kdiag)
    return (*rd.inducing_marginals(L, W, base_var, layer.m, layer.S_chol), kl)


def dsvi_dgp_layer_sample(F_prev, layer: DsviDgpLayer, rng: rd.RngStream):
    """Doubly-stochastic DGP layer: sample the marginals that
    dsvi_dgp_layer_marginals gives at F_prev in one (S, w, nb) draw from
    rng; returns (F_next, kl), kl being that call's KL."""
    means, vars_, kl = dsvi_dgp_layer_marginals(F_prev, layer)
    F_next = de.transpose(rd.conditional_sample(means, vars_, rng))
    if layer.mean_function == "identity":
        F_next = de.add(F_next, as_tensor(F_prev))
    return F_next, kl
