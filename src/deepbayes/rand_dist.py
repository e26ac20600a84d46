"""Random streams, samplers, log-densities and KL divergences.

Everything is reparameterized: samples are differentiable functions of the
distribution parameters, and log-densities are built from diff_engine ops so
gradients flow through both the sample path and the density evaluation.
"""
from __future__ import annotations

import numpy as np
import scipy.special as spec

from . import diff_engine as de
from .diff_engine import DiffTensor, as_tensor, lift

__all__ = [
    "RngStream", "gamma_sample_reparam", "gaussian_conditional",
    "inducing_marginals", "conditional_sample", "conditional_draw", "kl_gamma",
    "normal_log_density",
    "lgamma", "lu_packed_matrix", "lu_packed_logdet",
]

LOG2PI = float(np.log(2.0 * np.pi))


class RngStream:
    """A splittable, reproducible random stream: one numpy SeedSequence
    (built from an int, or given) and an optional sample count S. split(n)
    is SeedSequence.spawn(n), the children keeping S; the stream builds one
    Generator(Philox(seed)) on its first draw, so without S it draws exactly
    what numpy's generator draws. With S set, a draw returns all S samples
    along a new leading axis from one call and the stream draws once (a
    second draw raises ValueError): sample s reads row s, so its numbers do
    not depend on S, and each draw site takes a child of its own."""

    __slots__ = ("seed", "samples", "_gen")

    def __init__(self, seed, samples=None):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(int(seed))
        self.seed, self.samples, self._gen = seed, samples, None

    def split(self, n: int) -> list:
        return [RngStream(ss, self.samples) for ss in self.seed.spawn(n)]

    def _generator(self):
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(self.seed))
        elif self.samples is not None:
            raise ValueError("a stream with a sample count draws once: "
                             "split it to give each draw site a child")
        return self._gen

    def normal(self, shape=()):
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        return self._generator().standard_normal(
            shape if self.samples is None else (self.samples, *shape))

    def standard_gamma(self, alpha):
        if self.samples is None:
            return self._generator().standard_gamma(alpha)
        return self._generator().standard_gamma(alpha, (self.samples, *np.shape(alpha)))

    def permutation(self, n):
        return self._generator().permutation(n)


# -- gamma with implicit reparameterization -----------------------------------

def gamma_sample_reparam(alpha, beta, rng: RngStream) -> DiffTensor:
    """Sample z ~ Gamma(shape=alpha, rate=beta), elementwise.

    Rate gradient is exact via z = g / beta. Shape gradient uses implicit
    reparameterization dz/da = -(dF/da) / p(z), with dF/da by central finite
    differences of the regularized incomplete gamma (step 1e-5; below
    alpha = 1e-5 the lower point is clamped at 1e-12 and the difference is
    taken over the narrower step), formed only when the VJP runs. With
    rng's sample count S, z carries a leading sample axis.
    """
    alpha = as_tensor(alpha)
    beta = as_tensor(beta)
    av, bv = alpha.value, beta.value
    if np.any(av <= 0) or np.any(bv <= 0):
        raise ValueError("gamma parameters must be positive in op 'gamma_sample'")
    g = rng.standard_gamma(np.broadcast_to(av, np.broadcast_shapes(av.shape, bv.shape)))
    z = g / bv

    def vjp(gr):
        h = 1e-5
        x = np.maximum(g, 1e-300)
        lo = np.maximum(av - h, 1e-12)
        dF_da = (spec.gammainc(av + h, x) - spec.gammainc(lo, x)) / np.where(
            av - h < 1e-12, (av + h) - lo, 2 * h)
        logpdf = (av - 1.0) * np.log(x) - x - spec.gammaln(av)
        dg_da = -dF_da / np.exp(logpdf)
        return (de._unbroadcast(gr * (-z / bv), bv.shape),
                de._unbroadcast(gr * dg_da / bv, av.shape))

    return lift(z, (beta, alpha), vjp, "gamma_sample")


# -- scalar special functions as diff ops --------------------------------------

def lgamma(x) -> DiffTensor:
    x = as_tensor(x)
    return lift(spec.gammaln(x.value), (x,), lambda g: (g * spec.digamma(x.value),), "lgamma")


# -- Gaussian log densities ----------------------------------------------------

def normal_log_density(x, mean, var, event_ndim=None) -> DiffTensor:
    """Univariate normal log pdf summed over the broadcast elements of x,
    mean and var (var > 0), in one tape node; with event_ndim, summed over
    the last event_ndim axes only (one value per sample of a stack)."""
    x, mean, var = as_tensor(x), as_tensor(mean), as_tensor(var)
    v = var.value
    if np.any(v <= 0):
        raise ValueError("log domain violation: non-positive variance in op 'normal_log_density'")
    d = x.value - mean.value
    r = 1.0 / v
    axes = None if event_ndim is None else tuple(range(-event_ndim, 0))
    val = np.sum(-0.5 * (np.log(v) + (d * d) * r) + (-0.5 * LOG2PI), axis=axes)

    def vjp(g):
        ge = g if axes is None else np.expand_dims(g, axes)     # against each element
        dr = ge * d * r     # cotangent of the mean
        return (de._unbroadcast(-dr, x.value.shape), de._unbroadcast(dr, mean.value.shape),
                de._unbroadcast(0.5 * (dr * d * r - ge * r), v.shape))

    return lift(val, (x, mean, var), vjp, "normal_log_density")


def _gaussian_fit(L: np.ndarray, r: np.ndarray, op: str):
    """(log N(r; 0, L L^T), w = L^{-1} r) for a lower Cholesky factor L and
    a residual vector r, in op."""
    w = de._solve_tri(L, r[:, None], False, op)[:, 0]
    ld = np.sum(2.0 * np.log(np.diagonal(L)))
    return -0.5 * (np.sum(w * w) + ld) + (-0.5 * r.shape[0] * LOG2PI), w


# -- Wishart densities -------------------------------------------------------------

def _wishart_log_density_root(F, Ls, nu, ld_block) -> DiffTensor:
    """The log density of the (possibly singular) Wishart with nu degrees of
    freedom and scale Sigma = Ls Ls^T at G = F F^T, from its N x rank root F
    (rank min(N, nu)), the lower Cholesky factor Ls of the scale and the
    log-determinant ld_block of G's leading rank x rank block; tr(Sigma^{-1}
    G) = |Ls^{-1} F|^2. One tape node after the triangular solve."""
    F, Ls, ld_block = as_tensor(F), as_tensor(Ls), as_tensor(ld_block)
    N, ntilde = F.value.shape[-2:]
    nu = float(nu)
    const = (0.5 * nu * (ntilde - N) * np.log(np.pi)
             - 0.5 * nu * N * np.log(2.0)
             - float(spec.multigammaln(0.5 * nu, ntilde)))
    Z = de.triangular_solve(Ls, F)
    d = np.diagonal(Ls.value, axis1=-2, axis2=-1)
    if np.any(d <= 0):
        raise ValueError("log domain violation: non-positive diagonal in op 'wishart_log_density'")
    c_ld = 0.5 * (nu - N - 1)
    val = ((-nu * np.sum(np.log(d), axis=-1) + const) + c_ld * ld_block.value
           + (-0.5 * np.sum(Z.value * Z.value, axis=(-2, -1))))
    i = np.arange(N)

    def vjp(g):
        g_ls = np.zeros(np.broadcast_shapes(Ls.value.shape, np.shape(g) + (1, 1)))
        g_ls[..., i, i] = -nu * np.asarray(g)[..., None] / d
        return (-np.asarray(g)[..., None, None] * Z.value, de._unbroadcast(g_ls, Ls.value.shape),
                de._unbroadcast(c_ld * g, ld_block.value.shape))

    return lift(val, (Z, Ls, ld_block), vjp, "wishart_log_density")


# -- LU-packed invertible matrices ---------------------------------------------

def lu_packed_matrix(P) -> DiffTensor:
    """A = (I + strict_lower(P)) @ upper(P): invertible by construction."""
    P = as_tensor(P)
    n = P.value.shape[0]
    low_mask = np.tril(np.ones((n, n)), k=-1)
    up_mask = np.triu(np.ones((n, n)))
    lower = de.add(de.mul(P, as_tensor(low_mask)), as_tensor(np.eye(n)))
    upper = de.mul(P, as_tensor(up_mask))
    return de.matmul(lower, upper)


def lu_packed_logdet(P) -> DiffTensor:
    """log |det A| for the LU-packed parameterization (sum of log |diag|)."""
    P = as_tensor(P)
    d = de.diag_part(P)
    if np.any(d.value == 0):
        raise ValueError("LU-packed matrix is singular (zero diagonal)")
    return de.mul(de.tsum(de.elementwise("log", de.elementwise("square", d))), 0.5)


# -- generalized singular Wishart -----------------------------------------------

def _bartlett_root(tsq, mu, sigma, below, xi) -> DiffTensor:
    """The generalized Bartlett factor T (N x ntilde, one tape node): sqrt(tsq)
    on the diagonal and mu + sigma xi where `below` (1 strictly below the
    diagonal, else 0) is 1."""
    tdiag = np.sqrt(tsq.value)
    T = (mu.value + sigma.value * xi) * below
    i = np.arange(below.shape[1])
    T[..., i, i] += tdiag
    return lift(T, (tsq, mu, sigma), lambda g: (
        g[..., i, i] * (0.5 / tdiag), de._unbroadcast(g * below, below.shape),
        de._unbroadcast(g * below * xi, below.shape)), "bartlett_root")


def _bartlett_logq(tsq, T, alpha, beta, mu, sigma, below, w_t, const, scale_logq) -> DiffTensor:
    """log q of the generalized Bartlett factor T with squared diagonal tsq,
    in one tape node: the gamma densities of tsq, the Gaussians below the
    diagonal and w_t log T_jj, plus the parameters' terms const and the
    scale's scale_logq."""
    ts, am1, bv = tsq.value, alpha.value - 1.0, beta.value
    lt = np.log(ts)
    d = (T.value - mu.value) * below
    sg = sigma.value
    v = sg * sg
    r = 1.0 / v
    val = (np.sum(am1 * lt - bv * ts, axis=-1) - np.sum(w_t * (0.5 * lt), axis=-1)
           + np.sum(below * (-0.5 * (np.log(v) + (d * d) * r) + (-0.5 * LOG2PI)), axis=(-2, -1))
           + const.value + scale_logq.value)

    def unb(x, t):
        return de._unbroadcast(x, t.value.shape)

    def vjp(g):
        vec = np.asarray(g)[..., None]  # one sample's cotangent against its vector terms
        mat = np.asarray(g)[..., None, None]    # and against its matrix terms
        return (vec * (am1 / ts - bv - 0.5 * w_t / ts), unb(vec * lt, alpha),
                unb(-vec * ts, beta), -mat * d * r, unb(mat * d * r, mu),
                unb(mat * below * (d * d * r - 1.0) / sg, sigma), unb(g, const),
                unb(g, scale_logq))

    return lift(val, (tsq, alpha, beta, T, mu, sigma, const, scale_logq), vjp, "gwish_logq")


def _gwish_sample(L, nu, alpha, beta, mu, sigma, rng: RngStream, A_packed=None, B=None):
    """Sample G from the (A/AB-)generalized singular Wishart with N x N lower
    scale factor L and nu degrees of freedom, and evaluate its log density
    at the sample. The Bartlett gamma and normals each draw from a child of
    rng.

    alpha, beta: length-ntilde positive gamma shapes and rates of the squared
    diagonal of the Bartlett factor T (ntilde = min(N, nu)); mu, sigma:
    N x ntilde Gaussian means and scales, only strictly-below-diagonal entries
    used; A_packed: optional LU-packed N x N row mixing (A-variant); B:
    optional lower-triangular ntilde x ntilde column mixing with positive
    diagonal (AB-variant). G = (L A T B)(L A T B)^T.

    Returns (G, log_density, feat, ld_block, ATB): feat is the retained root
    with feat feat^T = G (the imagined features of the inducing block), ATB
    the root A T B, and ld_block the log-determinant of G's leading
    ntilde x ntilde block, from the diagonals the density forms. The
    A-variant leaves out the log-det db of the leading block of
    (A T B)(A T B)^T: log_density is less c db, c = 0.5 (nu - N - 1), and
    ld_block less db. A Wishart log density of G read through ld_block holds
    the same c db, so log p - log q needs neither term, and db's
    factorisation is saved."""
    nu = int(nu)
    alpha, beta, mu, sigma = map(as_tensor, (alpha, beta, mu, sigma))
    if np.any(alpha.value <= 0) or np.any(beta.value <= 0) or np.any(sigma.value <= 0):
        raise ValueError("alpha, beta, sigma must be positive")
    N = mu.value.shape[0]
    ntilde = min(N, nu)
    exps_top = np.arange(N, N - ntilde, -1, dtype=np.float64)      # N - j + 1, j <= ntilde
    c_db = 0.5 * (nu - N - 1)
    # the terms of log q in the parameters alone: sum_j alpha_j log beta_j -
    # lgamma(alpha_j), the gamma normalisers
    const = de.tsum(de.sub(de.mul(alpha, de.elementwise("log", beta)), lgamma(alpha)))
    if B is not None:
        B = as_tensor(B)
        if np.any(np.diag(B.value) <= 0):
            raise ValueError("B must have positive diagonal")
        # the Jacobian of T -> T B, and (A-variant) B's share of log|C block|
        w = -2.0 * exps_top - (2.0 * c_db if A_packed is not None else 0.0)
        const = de.add(const, de.log_diag_sum(B, w))
    A = None
    if A_packed is not None:
        A = lu_packed_matrix(A_packed)
        const = de.sub(const, de.elementwise("affine", lu_packed_logdet(A_packed), a=float(nu)))
    # the scale's terms: -sum_i min(i, nu) log L_ii - sum_{j <= ntilde}
    # (N - j + 1) log L_jj, the Jacobian of T -> L T and of G's leading block
    L = as_tensor(L)
    if np.any(np.diagonal(L.value, axis1=-2, axis2=-1) <= 0):
        raise ValueError("scale factor L must have positive diagonal")
    if L.value.shape[-1] != N:
        raise ValueError("scale and parameter shapes differ")
    w = np.minimum(np.arange(1, N + 1), nu).astype(np.float64)
    w[:ntilde] += exps_top
    scale_logq = de.log_diag_sum(L, -w)

    # sample the generalized Bartlett factor
    below = np.tril(np.ones((N, ntilde)), k=-1)
    gamma_rng, normal_rng = rng.split(2)
    tsq = gamma_sample_reparam(alpha, beta, gamma_rng)          # length ntilde
    T = _bartlett_root(tsq, mu, sigma, below, normal_rng.normal((N, ntilde)))

    # assemble the root A T B and the Gram sample
    ATB = T if B is None else de.matmul(T, B)
    if A is not None:
        ATB = de.matmul(A, ATB)
    feat = de.matmul(L, ATB)
    G = de.matmul(feat, de.transpose(feat))
    # coefficient of log T_jj = 0.5 log tsq_j: T_jj^{N-j}, and the A-variant's
    # log|C block| = 2 sum log T_jj (+ B's, in const)
    w_t = exps_top - 1.0 + (2.0 * c_db if A is not None else 0.0)
    logq = _bartlett_logq(tsq, T, alpha, beta, mu, sigma, below, w_t, const, scale_logq)

    if A is None:       # the root L T B is lower-trapezoidal: 2 sum log of its diagonal
        return G, logq, feat, de.log_diag_sum(feat, 2.0), ATB
    # G's leading block is L's times D's: 2 sum log of L's leading diagonal
    top = np.zeros(N)
    top[:ntilde] = 2.0
    return G, logq, feat, de.log_diag_sum(L, top), ATB


# -- Gaussian conditioning --------------------------------------------------------

def gaussian_conditional(L, K_uf, k_ff):
    """Conditional of f given inducing values u, with L the lower Cholesky
    factor of K_uu.

    Returns (W, var): W = L^{-1} K_uf and var = k_ff - sum_rows W^2, the
    per-point conditional variance. Neither depends on u; the conditional
    mean is W^T w_u with w_u = L^{-1} u.
    """
    W = de.triangular_solve(L, K_uf)
    k_ff = as_tensor(k_ff)
    var = lift(k_ff.value - np.sum(W.value * W.value, axis=-2), (k_ff, W), lambda g: (
        de._unbroadcast(g, k_ff.value.shape), np.expand_dims(-2.0 * g, -2) * W.value),
        "conditional_variance")
    return W, var


def inducing_marginals(L, W, var, m, S_chol):
    """Per-point moments of q(f) under q(u) = N(m, S S^T), with L = chol(K_uu)
    and (W, var) = gaussian_conditional(L, K_uf, k_ff): mean W^T L^{-1} m and
    variance var + |S^T L^{-T} W|^2. m (M,) and S_chol (M, M) give (..., nb)
    moments; w outputs, m (M, w) and S_chol (w, M, M), give (..., w, nb)."""
    L, W, var, m, S_chol = map(as_tensor, (L, W, var, m, S_chol))
    mean = de.matmul(de.transpose(W), de.triangular_solve(L, m))
    U = de.triangular_solve(L, W, trans=True)               # K_uu^{-1} K_uf
    if m.value.ndim > 1:        # a new output axis, before the points' axis
        mean = de.transpose(mean)
        U = de.reshape(U, U.value.shape[:-2] + (1,) + U.value.shape[-2:])
        var = de.reshape(var, var.value.shape[:-1] + (1,) + var.value.shape[-1:])
    C = de.matmul(de.transpose(S_chol), U)
    return mean, de.add(var, de.tsum(de.elementwise("square", C), axis=-2))


def conditional_sample(mean, var, rng) -> DiffTensor:
    """mean + sqrt(max(var, 0) + 1e-12) xi in one tape node, with xi ~ N(0, I)
    drawn once from rng for one sample of mean: its last two axes (or its
    one), var shaped like mean or, one per row, with one axis fewer; a
    leading axis is the samples of rng's sample count."""
    mean, var = as_tensor(mean), as_tensor(var)
    pos = var.value > 0
    std = np.sqrt(var.value * pos + 1e-12)
    rowwise = mean.value.ndim > var.value.ndim
    xi = rng.normal(mean.value.shape[-2:])
    rows = std[..., None] if rowwise else std

    def vjp(g):
        gs = g * xi
        if rowwise:
            gs = gs.sum(axis=-1)
        return (de._unbroadcast(g, mean.value.shape),
                de._unbroadcast(gs * (0.5 / std) * pos, var.value.shape))

    return lift(mean.value + rows * xi, (mean, var), vjp, "conditional_sample")


def conditional_draw(L, K_fu, k_ff, Z, rng) -> DiffTensor:
    """A draw of the rows F from the prior conditional p(F | U) in one tape
    node: F = W^T Z + sqrt(max(var, 0) + 1e-12) xi per row, with L the lower
    Cholesky factor of K_uu, W = L^{-1} K_fu^T, var = k_ff - sum_rows W^2,
    Z = L^{-1} U the solved inducing values and xi ~ N(0, I) drawn once from
    rng; a leading axis of any operand, or rng's sample count, stacks
    samples. The forward runs gaussian_conditional and conditional_sample's
    steps in their order, solving through L's _Factor as triangular_solve
    does, and the VJP returns the cotangents of L (lower triangle), K_fu,
    k_ff and Z from one solve against L."""
    L, K_fu, k_ff, Z = map(as_tensor, (L, K_fu, k_ff, Z))
    solve = de._solver(L, "conditional_draw")
    Lv, Kt, Zv = L.value, de._mT(K_fu.value), Z.value
    W = solve(Kt, False)
    var = k_ff.value - np.sum(W * W, axis=-2)
    Wt = de._mT(W)
    mean = Wt @ Zv
    pos = var > 0
    std = np.sqrt(var * pos + 1e-12)
    xi = rng.normal(mean.shape[-2:])

    def vjp(g):
        de._check_finite(g, "cotangent of op 'conditional_draw'")
        g_var = de._unbroadcast((g * xi).sum(axis=-1) * (0.5 / std) * pos, var.shape)
        g_W = (de._mT(de._unbroadcast(g @ de._mT(Zv), Wt.shape))
               + np.expand_dims(-2.0 * g_var, -2) * W)
        gb = solve(g_W, True)
        return (de._unbroadcast(np.tril(-gb @ Wt), Lv.shape),
                de._mT(de._unbroadcast(gb, Kt.shape)),
                de._unbroadcast(g_var, k_ff.value.shape), de._unbroadcast(W @ g, Zv.shape))

    return lift(mean + std[..., None] * xi, (L, K_fu, k_ff, Z), vjp, "conditional_draw")


# -- KL divergences ----------------------------------------------------------------

def kl_gamma(q, p) -> DiffTensor:
    """Closed-form KL(Gamma(q) || Gamma(p)), q and p (shape, rate) pairs,
    summed over their elements."""
    aq, bq = map(as_tensor, q)
    ap, bp = map(as_tensor, p)
    if np.any(aq.value <= 0) or np.any(bq.value <= 0) or \
       np.any(ap.value <= 0) or np.any(bp.value <= 0):
        raise ValueError("gamma parameters must be positive in op 'kl_gamma'")
    dig = lift(spec.digamma(aq.value), (aq,), lambda g: (g * spec.polygamma(1, aq.value),),
               "digamma")
    out = de.mul(de.sub(aq, ap), dig)
    out = de.add(out, de.sub(lgamma(ap), lgamma(aq)))
    out = de.add(out, de.mul(ap, de.sub(de.elementwise("log", bq),
                                        de.elementwise("log", bp))))
    out = de.add(out, de.mul(aq, de.div(de.sub(bp, bq), bq)))
    return de.tsum(out)


def _kl_gaussian_chol(mq, Lq, mp, Lp) -> DiffTensor:
    """KL(N(mq, Lq Lq^T) || N(mp, Lp Lp^T)) from lower Cholesky factors with
    positive diagonals: 0.5 (|Lp^{-1} Lq|_F^2 + |Lp^{-1} (mp - mq)|^2 - k)
    + log|Lp| - log|Lq|; summed over a stack Lq (w, k, k) with means mq (k, w)."""
    mq, Lq, mp, Lp = map(as_tensor, (mq, Lq, mp, Lp))
    tr = de.tsum(de.elementwise("square", de.triangular_solve(Lp, Lq)), axis=(-2, -1))
    quad = de.tsum(de.elementwise("square", de.triangular_solve(Lp, de.sub(mp, mq))), axis=0)
    ld = de.sub(de.log_diag_sum(Lp), de.log_diag_sum(Lq))
    kl = de.add(de.elementwise("affine", de.add(tr, quad), a=0.5,
                               b=-0.5 * mq.value.shape[0]), ld)
    return kl if Lq.value.ndim == 2 else de.tsum(kl)
