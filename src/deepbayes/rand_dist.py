"""Random streams, samplers, log-densities and KL divergences.

Everything is reparameterized: samples are differentiable functions of the
distribution parameters, and log-densities are built from diff_engine ops so
gradients flow through both the sample path and the density evaluation.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.special as spec

from . import diff_engine as de
from .diff_engine import DiffTensor, as_tensor, lift
from .kernels import _SeArd

__all__ = [
    "RngStream", "gamma_sample_reparam", "inducing_posterior", "conditional_draw",
    "standard_kl", "kl_gamma", "normal_log_density", "lgamma", "lu_packed_matrix",
    "lu_packed_logdet",
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

def _wishart_log_density_root(Z, Ls, nu, ld_block) -> DiffTensor:
    """The log density of the (possibly singular) Wishart with nu degrees of
    freedom and scale Sigma = Ls Ls^T at G = F F^T, from the solved root Z =
    Ls^{-1} F of its N x rank root F (rank min(N, nu)), the lower Cholesky
    factor Ls of the scale and the log-determinant ld_block of G's leading
    rank x rank block; tr(Sigma^{-1} G) = |Z|^2. One tape node; the caller
    solves, so that others can read the same solve."""
    Z, Ls, ld_block = as_tensor(Z), as_tensor(Ls), as_tensor(ld_block)
    N, ntilde = Z.value.shape[-2:]
    nu = float(nu)
    const = (0.5 * nu * (ntilde - N) * np.log(np.pi)
             - 0.5 * nu * N * np.log(2.0)
             - float(spec.multigammaln(0.5 * nu, ntilde)))
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
        raise ValueError("LU-packed matrix is singular (zero diagonal) in op 'lu_packed_logdet'")
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
    scale factor L and nu degrees of freedom, by its root, and evaluate its
    log density at the sample. The Bartlett gamma and normals each draw from
    a child of rng.

    alpha, beta: length-ntilde positive gamma shapes and rates of the squared
    diagonal of the Bartlett factor T (ntilde = min(N, nu)); mu, sigma:
    N x ntilde Gaussian means and scales, only strictly-below-diagonal entries
    used; A_packed: optional LU-packed N x N row mixing (A-variant); B:
    optional lower-triangular ntilde x ntilde column mixing with positive
    diagonal (AB-variant). G = (L A T B)(L A T B)^T.

    Returns (log_density, feat, ld_block, ATB): feat is the root with
    feat feat^T = G (the imagined features of the inducing block; G itself
    is not formed), ATB the root A T B, and ld_block the log-determinant of
    G's leading ntilde x ntilde block, from the diagonals the density
    forms. The A-variant leaves out the log-det db of the leading block of
    (A T B)(A T B)^T: log_density is less c db, c = 0.5 (nu - N - 1), and
    ld_block less db. A Wishart log density of G read through ld_block holds
    the same c db, so log p - log q needs neither term, and db's
    factorisation is saved."""
    nu = int(nu)
    alpha, beta, mu, sigma = map(as_tensor, (alpha, beta, mu, sigma))
    if np.any(alpha.value <= 0) or np.any(beta.value <= 0) or np.any(sigma.value <= 0):
        raise ValueError("alpha, beta, sigma must be positive in op 'gwish_sample'")
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
            raise ValueError("B must have positive diagonal in op 'gwish_sample'")
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
        raise ValueError("scale factor L must have positive diagonal in op 'gwish_sample'")
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

    # assemble the roots A T B and L A T B
    ATB = T if B is None else de.matmul(T, B)
    if A is not None:
        ATB = de.matmul(A, ATB)
    feat = de.matmul(L, ATB)
    # coefficient of log T_jj = 0.5 log tsq_j: T_jj^{N-j}, and the A-variant's
    # log|C block| = 2 sum log T_jj (+ B's, in const)
    w_t = exps_top - 1.0 + (2.0 * c_db if A is not None else 0.0)
    logq = _bartlett_logq(tsq, T, alpha, beta, mu, sigma, below, w_t, const, scale_logq)

    if A is None:       # the root L T B is lower-trapezoidal: 2 sum log of its diagonal
        return logq, feat, de.log_diag_sum(feat, 2.0), ATB
    # G's leading block is L's times D's: 2 sum log of L's leading diagonal
    top = np.zeros(N)
    top[:ntilde] = 2.0
    return logq, feat, de.log_diag_sum(L, top), ATB


# -- Gaussian conditioning --------------------------------------------------------

def inducing_posterior(L, K_uf, k_ff, m, S):
    """(mean, var, kl) for q(u) = N(m, S S^T) against p(u) = N(0, L L^T), L
    the lower Cholesky factor of K_uu and S lower triangular: q(f)'s
    per-point mean W^T A and variance k_ff - sum_rows W^2 + sum_rows (B^T
    W)^2 at the points of K_uf (M, nb), and kl = standard_kl(A, B), from
    three solves, W = L^{-1} K_uf, A = L^{-1} m (M,) and B = L^{-1} S (M,
    M). Sparse GPs read it for their closed-form expectation; a deep-GP
    layer draws through conditional_draw."""
    W, A, B = (de.triangular_solve(L, b) for b in (K_uf, m, S))
    mean = de.matmul(de.transpose(W), A)
    C = de.matmul(de.transpose(B), W)
    var = de.add(de.sub(k_ff, de.tsum(de.elementwise("square", W), axis=-2)),
                 de.tsum(de.elementwise("square", C), axis=-2))
    return mean, var, standard_kl(A, B)


_ROWS = 256     # the most batch rows conditional_draw handles at once


def _row_blocks(n: int):
    """Slices of n rows in near-equal blocks of at most _ROWS rows. None has
    one row unless n = 1: trtrs solves one column by another LAPACK path,
    whose rounding differs."""
    k = max(1, -(-n // _ROWS))
    cuts = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def conditional_draw(L, ls, sf2, U, F, Z, xi, scale=1.0, B=None) -> DiffTensor:
    """A draw of the rows F_next (..., nb, w) at the inputs F from q(f) =
    int p(f | u) q(u) du, q(u) = N(L Z, L B B^T L^T) per output, in one tape
    node from the kernel inputs: with K_fu = scale SE(F, U) at the
    lengthscale and signal-variance nodes ls and sf2 (kernels._SeArd) and
    k_ff = scale sf2, each row is W^T Z + sqrt(max(var, 0) + 1e-12) xi, L
    the lower Cholesky factor of K_uu, W = L^{-1} K_fu^T, xi the caller's
    standard normals and var = k_ff - sum_rows W^2, plus sum_rows (B_o^T
    W)^2 for output o given B (w, M, M). A global-inducing layer passes its
    sampled Z = L^{-1} u and no B (the prior conditional p(f | u)), a DSVI
    layer Z = L^{-1} m and B = L^{-1} S, and the deep Wishart process's
    layers scale 1/nu. A leading axis of any operand stacks samples.

    Given U the rows are independent, so the forward runs the kernel, W,
    var and the clamped draw on blocks of at most _ROWS rows (_row_blocks),
    solving through L's _Factor as triangular_solve does. An output that is
    not recorded keeps no block's kernel or solve past that block; a
    recorded one keeps, per block, the kernel and W, so the VJP rebuilds no
    kernel and redoes no forward solve: per block it solves once against L
    for the cotangents of L (lower triangle), K_fu and Z, and takes those of
    ls, sf2, U and F from K_fu's through the kernel, which _SeArd builds at
    the scale, so no second kernel is kept. Its sums are BLAS products, not
    numpy reductions along short axes."""
    L, ls, sf2, U, F, Z, B = parents = tuple(
        None if t is None else as_tensor(t) for t in (L, ls, sf2, U, F, Z, B))
    solve = de._solver(L, "conditional_draw")
    Lv, Fv, Zv = L.value, F.value, Z.value
    Bt = None if B is None else de._mT(B.value)
    k_ff = scale * sf2.value
    keep = de._records(parents)
    saved = []

    def block(rows):
        # K_fu, scaled in place; the VJP reads it unless the output is not recorded
        se = _SeArd(ls, sf2, as_tensor(Fv[..., rows, :]), U, "conditional_draw", scale)
        W = solve(de._mT(se.K), False)
        kept = (rows, se, W) if keep else ()
        del se      # unless kept, the kernel goes before the next temporary
        var = k_ff - np.sum(W * W, axis=-2)
        if Bt is not None:      # q(u)'s term, one variance per output: (..., w, n)
            C = Bt @ np.expand_dims(W, -3)
            var = np.expand_dims(var, -2) + np.sum(C * C, axis=-2)
        pos = var > 0
        std = np.sqrt(var * pos + 1e-12)
        if keep:
            saved.append(kept + (std, pos))
        return de._mT(W) @ Zv + (std[..., None] if Bt is None else de._mT(std)) * xi[..., rows, :]

    def block_vjp(g, rows, se, W, std, pos):
        g, x = g[..., rows, :], xi[..., rows, :]
        g_B = None
        if Bt is None:
            g_var = np.einsum("...nw,...nw->...n", g, x)
            if g_var.ndim > std.ndim:   # std shared by the samples: their sum by a ones vector
                g_var = np.ones(len(g_var)) @ g_var
            g_var *= (0.5 / std) * pos
        else:
            # per output, E = var's cotangent times C = B^T W (rebuilt, not
            # kept) gives B's cotangent 2 W E^T and W's 2 B E, beside -2 W
            # times the outputs' sum
            g_var = de._unbroadcast(de._mT(g * x), std.shape) * (0.5 / std) * pos
            E = (Bt @ np.expand_dims(W, -3)) * np.expand_dims(g_var, -2)
            g_B = de._unbroadcast(2.0 * (np.expand_dims(W, -3) @ de._mT(E)), B.value.shape)
            g_var = g_var.sum(axis=-2)
        g_Z = de._unbroadcast(W @ g, Zv.shape)
        # the cotangent of W: Z g^T, then var's term
        if W.ndim == 2 and g.ndim == 3 and Zv.ndim == 3:
            # one W for every sample: sum_s Z_s g_s^T is one (M, S w) x (S w, n) product
            gW = np.tensordot(Zv, g, axes=((0, 2), (0, 2)))
        elif Zv.shape[-1] == 1:
            gW = de._unbroadcast(Zv * de._mT(g), W.shape)
        else:
            gW = de._unbroadcast(Zv @ de._mT(g), W.shape)
        gW -= np.expand_dims(2.0 * g_var, -2) * W
        if Bt is not None:
            gW += de._unbroadcast(2.0 * np.sum(de._mT(Bt) @ E, axis=-3), W.shape)
        gb = solve(gW, True)
        del gW
        g_L = np.tril(gb @ de._mT(W))
        g_L = de._unbroadcast(np.negative(g_L, out=g_L), Lv.shape)
        # the kernel's cotangent times the kernel, the input of its backward
        gk = de._mT(de._unbroadcast(gb, de._mT(se.K).shape)) * se.K
        del gb      # before the kernel's backward makes its temporaries
        g_sf2, (gF, gU) = se.backward(gk)
        return g_L, se.g_ls((gF, gU)), g_sf2, gU * se.r, gF * se.r, g_Z, g_B, g_var

    def vjp(g):
        de._check_finite(g, "cotangent of op 'conditional_draw'")
        g_L, g_ls, g_sf2, g_U, g_F, g_Z, g_B, g_var = zip(*(block_vjp(g, *b) for b in saved))
        # k_ff's cotangent, summed over all rows as the one-block node sums it
        g_kff = de._unbroadcast(np.concatenate(g_var, axis=-1), Fv.shape[-2:-1])
        g_sf2 = de._unbroadcast(g_kff * scale, np.shape(sf2.value)) + _total(g_sf2)
        return (_total(g_L), _total(g_ls), g_sf2, _total(g_U),
                np.concatenate(g_F, axis=-2), _total(g_Z), None if B is None else _total(g_B))

    value = [block(rows) for rows in _row_blocks(Fv.shape[-2])]
    value = value[0] if len(value) == 1 else np.concatenate(value, axis=-2)
    return lift(value, parents, vjp, "conditional_draw")


def _total(parts):
    """The sum of the blocks' cotangents of one operand (the one block's
    as it is)."""
    return functools.reduce(np.add, parts)


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


def standard_kl(A, B) -> DiffTensor:
    """KL(N(a, B B^T) || N(0, I)) = 0.5 (|B|_F^2 + |a|^2 - M) - sum log diag B
    for lower-triangular B with positive diagonal, a (M,) and B (M, M), or
    summed over the w columns of A (M, w) and a stack B (w, M, M). At A =
    Lp^{-1} (mq - mp) and B = Lp^{-1} Lq it is KL(N(mq, Lq Lq^T) || N(mp,
    Lp Lp^T))."""
    A, B = as_tensor(A), as_tensor(B)
    sq = de.add(de.tsum(de.elementwise("square", B), axis=(-2, -1)),
                de.tsum(de.elementwise("square", A), axis=0))
    kl = de.sub(de.elementwise("affine", sq, a=0.5, b=-0.5 * A.value.shape[0]),
                de.log_diag_sum(B))
    return kl if B.value.ndim == 2 else de.tsum(kl)
