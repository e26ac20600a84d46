"""Reference computations that only the tests call.

The models never run these: they are the closed forms and plain samplers
that the paper's propositions are checked against (Gaussian and
matrix-normal samplers, indexing, the log-determinant by Cholesky, the
multivariate Gaussian, Wishart and inverse-Wishart densities, the
generalized Wishart's Jacobians, matrix-normal conditioning, the Gram-matrix
SE kernel and the Gram layers' kernel blocks from roots, one sample's view
of a stream with a sample count, a Wishart prior layer drawn by the models'
Bartlett sampler, the inducing-extension certificate, the BNN-as-DGP Gram,
exact Bayesian linear regression, the optimal-signal-variance identity, the
collapsed sparse-GP bound, the global-inducing posterior and its draw from
generic ops, the exact GP from generic ops for any kernel function, and the
prior conditional draw from generic ops). They are built from the same
diff_engine ops as the library, so tests can differentiate through them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.special import multigammaln

from deepbayes import diff_engine as de
from deepbayes import gp_models as gm
from deepbayes import rand_dist as rd
from deepbayes.deep_models import PriorSpec, _prior_precision_scalar
from deepbayes.diff_engine import DiffTensor, as_tensor
from deepbayes.dwp import gram_kernel_blocks, standard_bartlett_params
from deepbayes.kernels import KernelParams, _se_node, se_ard_features
from deepbayes.rand_dist import RngStream


# -- samplers ------------------------------------------------------------------

class SampleRow:
    """Sample s of a stream with a sample count S, as the per-sample loop
    reads it: each draw is row s of the stream's one draw for all S
    samples, and each child of a split is the same view of the stream's
    child. A forward given it computes sample s alone, without a sample
    axis."""

    def __init__(self, stream: RngStream, s: int):
        self.stream, self.s = stream, s

    def split(self, n: int) -> list:
        return [SampleRow(child, self.s) for child in self.stream.split(n)]

    def normal(self, shape=()):
        return self.stream.normal(shape)[self.s]

    def standard_gamma(self, alpha):
        return self.stream.standard_gamma(alpha)[self.s]


def sample_rows(seed, n_samples: int) -> list:
    """One SampleRow per sample of a fresh RngStream(seed, n_samples) each,
    which is how mc_elbo and predictive_samples draw from a stream of that
    seed (a split of one stream advances its spawn counter, so each sample
    needs its own)."""
    return [SampleRow(RngStream(seed, n_samples), s) for s in range(n_samples)]

def gaussian_sample(mean, chol_cov, rng: RngStream) -> DiffTensor:
    """mean + L xi with xi ~ N(0, I) for a vector mean, one per sample of
    rng (rows of an (S, n) draw under its sample count S); reparameterized
    in mean and L."""
    mean = as_tensor(mean)
    chol_cov = as_tensor(chol_cov)
    if chol_cov.value.shape[0] != mean.value.shape[0]:
        raise ValueError("gaussian_sample shape mismatch")
    xi = as_tensor(rng.normal(mean.value.shape))
    return de.add(mean, de.matmul(chol_cov, xi) if xi.value.ndim == 1
                  else de.matmul(xi, de.transpose(chol_cov)))


def matrix_normal_sample(mean, row_chol, col_chol, rng: RngStream) -> DiffTensor:
    """M + Lr Xi Lc^T; col_chol=None means identity column covariance."""
    mean = as_tensor(mean)
    xi = as_tensor(rng.normal(mean.value.shape))
    out = de.matmul(as_tensor(row_chol), xi)
    if col_chol is not None:
        out = de.matmul(out, de.transpose(as_tensor(col_chol)))
    return de.add(mean, out)


# -- linear algebra ------------------------------------------------------------------

def getitem(a, idx) -> DiffTensor:
    """a[idx]; stacked operands index their matrices with a leading Ellipsis."""
    a = as_tensor(a)
    # basic indexing (slices, ints, Ellipsis) selects each entry at most once
    basic = all(isinstance(i, (slice, int)) or i is Ellipsis
                for i in (idx if isinstance(idx, tuple) else (idx,)))

    def vjp(g):
        out = np.zeros_like(a.value)
        if basic:
            out[idx] = g
        else:
            np.add.at(out, idx, g)
        return (out,)

    return de.lift(a.value[idx], (a,), vjp, "getitem")


def add_diagonal(a, d) -> DiffTensor:
    """a + d I for a scalar d: d added to the leading diagonal of a matrix,
    or of each matrix in a stack, in one buffer; d's cotangent is the trace
    of g."""
    a, d = as_tensor(a), as_tensor(d)
    if d.value.size != 1:
        raise ValueError("add_diagonal adds one scalar")
    i = np.arange(min(a.value.shape[-2:]))
    out = a.value.copy()
    out[..., i, i] += d.value
    return de.lift(out, (a, d), lambda g: (
        g, de._unbroadcast(g[..., i, i].sum(axis=-1), d.value.shape)), "add_diagonal")


def _chol_inverse(L: np.ndarray):
    """(L L^T)^{-1} from a lower Cholesky factor, or for each factor of a
    stack, by LAPACK potri (a third of the flops of solving against I) on
    one copy of L; L is Fortran-ordered per matrix, as the factors are.
    potri reads and writes only the lower triangle; the upper one is then
    filled from it (_mirror_lower)."""
    inv = de._potri(de._mT(de._mT(L).copy()), "chol_inverse")
    de._mirror_lower(inv)
    return inv


def logdet_psd(s) -> DiffTensor:
    """log|s| for symmetric PD s (or each matrix of a stack), via Cholesky;
    gradient s^{-1}, formed from the factor when the cotangent arrives."""
    s = as_tensor(s)
    L = de._chol_with_jitter(s.value, "logdet_psd")
    val = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)

    def vjp(g):
        inv = _chol_inverse(L)
        inv *= np.asarray(g)[..., None, None]
        return (inv,)

    return de.lift(np.asarray(val), (s,), vjp, "logdet_psd")


# -- densities and Jacobians -----------------------------------------------------

def _gaussian_cov_cotangent(L: np.ndarray, alpha: np.ndarray, g):
    """0.5 g (alpha alpha^T - cov^{-1}), the cotangent of cov = L L^T in
    log N(r; 0, cov) with alpha = cov^{-1} r, in one n x n buffer: the
    inverse from the factor (potri, on a copy of L), scaled, plus the
    rank-1 term."""
    out = _chol_inverse(L)
    out *= -0.5 * g
    return sla.blas.dger(0.5 * float(g), alpha, alpha, a=out, overwrite_a=1)


def mvn_log_density(y, mean, cov, chol=None) -> DiffTensor:
    """log N(y; mean, cov) for a vector y, in one tape node.

    chol: optional lower Cholesky factor of cov that the caller already
    holds, read by value only; without it cov is factorised with the jitter
    ladder. With w = L^{-1}(y - mean) and alpha = L^{-T} w, the cotangent of
    cov is 0.5 g (alpha alpha^T - cov^{-1}), with cov^{-1} from the factor
    (potri), so no Cholesky adjoint runs; y's is -g alpha and mean's +g alpha.
    """
    y, mean, cov = as_tensor(y), as_tensor(mean), as_tensor(cov)
    if chol is None:
        L = de._chol_with_jitter(cov.value, "mvn_log_density")
    else:
        L = as_tensor(chol).value
    val, w = rd._gaussian_fit(L, y.value - mean.value, "mvn_log_density")

    def vjp(g):
        de._check_finite(g, "cotangent of op 'mvn_log_density'")
        alpha = de._solve_tri(L, w[:, None], True, "mvn_log_density")[:, 0]    # L^{-T} w
        return (-g * alpha, de._unbroadcast(g * alpha, mean.value.shape),
                _gaussian_cov_cotangent(L, alpha, g))

    return de.lift(np.asarray(val), (y, mean, cov), vjp, "mvn_log_density")


def _check_rank(G: np.ndarray, ntilde: int):
    sv = np.linalg.svd(G, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0])) if sv[0] > 0 else 0
    if rank != ntilde:
        raise ValueError(f"rank mismatch: expected rank {ntilde}, got {rank}")


def wishart_log_density(G, Sigma, nu) -> DiffTensor:
    """Log density of the (possibly singular) Wishart with PD scale Sigma.

    For nu < N the degrees of freedom must be an integer and G must have rank
    nu; for nu >= N any real nu is accepted. The density is evaluated at the
    root F = G[:, :n] C^{-T} of G, with n the rank and C = chol(G[:n, :n]).
    """
    G = as_tensor(G)
    N, nu_f = G.value.shape[0], float(nu)
    if nu_f < N and abs(nu_f - round(nu_f)) > 1e-12:
        raise ValueError("singular Wishart (nu < N) requires integer nu")
    n = int(min(round(nu_f), N)) if nu_f < N else N
    _check_rank(G.value, n)
    rows = getitem(G, slice(0, n))                        # G[:n] = G[:, :n]^T
    C = de.cholesky_factor(getitem(rows, (slice(None), slice(0, n))))
    F = de.transpose(de.triangular_solve(C, rows))        # F F^T = G
    Ls = de.cholesky_factor(Sigma)
    return rd._wishart_log_density_root(de.triangular_solve(Ls, F), Ls, nu,
                                        de.log_diag_sum(C, 2.0))


def inverse_wishart_log_density(G, Sigma, nu) -> DiffTensor:
    """Log density of the inverse Wishart; requires nu >= N and PD G, Sigma."""
    G, Sigma = as_tensor(G), as_tensor(Sigma)
    N = G.value.shape[0]
    nu = float(nu)
    if nu < N:
        raise ValueError("inverse Wishart requires nu >= N")
    const = -0.5 * nu * N * np.log(2.0) - float(multigammaln(0.5 * nu, N))
    ld_sigma = logdet_psd(Sigma)
    Lg = de.cholesky_factor(G)
    ld_g = de.log_diag_sum(Lg, 2.0)
    w = de.triangular_solve(Lg, Sigma)                    # tr(Lg^{-1} Sigma Lg^{-T})
    tr = de.tsum(de.diag_part(de.triangular_solve(Lg, de.transpose(w))))
    out = de.elementwise("affine", ld_sigma, a=0.5 * nu, b=const)
    out = de.add(out, de.elementwise("affine", ld_g, a=-0.5 * (nu + N + 1)))
    out = de.add(out, de.elementwise("affine", tr, a=-0.5))
    if not np.isfinite(out.value):
        raise ValueError("inverse_wishart_log_density: non-finite result")
    return out


def jacobian_logdets(variant: str, **kw) -> DiffTensor:
    """Log absolute Jacobian determinants for the matrix transforms used by
    the generalized Wishart densities.

    variants:
      llt:        Lambda (N x ntilde lower-trapezoidal) -> Lambda Lambda^T
      left_mul:   T -> L T, L lower-tri N x N           (kw: L, nu)
      right_mul:  T -> T B, B lower-tri ntilde x ntilde (kw: B, N, nu)
      congruence: C -> A C A^T, A invertible            (kw: A, C_block, D_block:
                   the leading ntilde blocks; N, nu)
    """
    if variant == "llt":
        lam = as_tensor(kw["factor"])
        N = lam.value.shape[0]
        ntilde = lam.value.shape[1]
        if np.any(np.diag(lam.value[:ntilde, :ntilde]) == 0):
            raise ValueError("singular factor in llt Jacobian")
        d = de.diag_part(lam)
        # prod_i 2 * Lam_ii^{N-i+1}, i = 1..ntilde
        exps = np.arange(N, N - ntilde, -1, dtype=np.float64)
        logs = de.elementwise("log", d)
        return de.add(de.tsum(de.mul(logs, as_tensor(exps))),
                      as_tensor(np.asarray(ntilde * np.log(2.0))))
    if variant == "left_mul":
        L = as_tensor(kw["L"])
        nu = int(kw["nu"])
        N = L.value.shape[0]
        if np.any(np.diag(L.value) == 0):
            raise ValueError("singular factor in left_mul Jacobian")
        exps = np.minimum(np.arange(1, N + 1), nu).astype(np.float64)
        return de.tsum(de.mul(de.elementwise("log", de.diag_part(L)), as_tensor(exps)))
    if variant == "right_mul":
        B = as_tensor(kw["B"])
        N = int(kw["N"])
        ntilde = B.value.shape[0]
        if np.any(np.diag(B.value) == 0):
            raise ValueError("singular factor in right_mul Jacobian")
        exps = np.arange(N, N - ntilde, -1, dtype=np.float64)
        return de.tsum(de.mul(de.elementwise("log", de.diag_part(B)), as_tensor(exps)))
    if variant == "congruence":
        nu = float(kw["nu"])
        N = int(kw["N"])
        s, ld = np.linalg.slogdet(np.asarray(as_tensor(kw["A"]).value))
        if s == 0:
            raise ValueError("singular A in congruence Jacobian")
        lad = as_tensor(np.asarray(ld))
        ld_c = logdet_psd(kw["C_block"])
        ld_d = logdet_psd(kw["D_block"])
        out = de.elementwise("affine", lad, a=nu)
        return de.add(out, de.elementwise("affine", de.sub(ld_c, ld_d), a=0.5 * (nu - N - 1)))
    raise ValueError(f"unknown Jacobian variant {variant!r}")


def gwish_full_density(sample, nu, A_packed=None):
    """(G, log q, feat, ld_block) of the generalized Wishart from
    rand_dist._gwish_sample's (log q, feat, ld_block, ATB), G = feat feat^T
    formed here. With an A mixing, _gwish_sample leaves db, the log-det of
    the leading min(N, nu) block of (A T B)(A T B)^T, out of ld_block and
    c db (c = 0.5 (nu - N - 1)) out of log q: a Wishart density read
    through ld_block holds the same c db, so the models' log p - log q
    needs neither. This adds both back."""
    logq, feat, ld_block, ATB = sample
    G = de.matmul(feat, de.transpose(feat))
    if A_packed is None:
        return G, logq, feat, ld_block
    nu, N = int(nu), ATB.value.shape[-2]
    S = getitem(ATB, (Ellipsis, slice(0, min(N, nu)), slice(None)))
    db = logdet_psd(de.matmul(S, de.transpose(S)))
    c_db = 0.5 * (nu - N - 1)
    return G, de.add(logq, de.elementwise("affine", db, a=c_db)), feat, de.add(db, ld_block)


# -- conditioning ------------------------------------------------------------------

def matrix_normal_conditional(S_ii, S_ti, S_tt, F_i):
    """Conditional of rows t given rows i of a matrix normal with row scale
    [[S_ii, S_ti^T], [S_ti, S_tt]] and identity column covariance: returns
    (mean, row_cov) with mean = S_ti S_ii^{-1} F_i and
    row_cov = S_tt - S_ti S_ii^{-1} S_ti^T.
    """
    S_ii, S_ti, S_tt, F_i = map(as_tensor, (S_ii, S_ti, S_tt, F_i))
    L = de.cholesky_factor(S_ii)
    w_s = de.triangular_solve(L, de.transpose(S_ti))
    mean = de.matmul(de.transpose(w_s), de.triangular_solve(L, F_i))
    row_cov = de.sub(S_tt, de.matmul(de.transpose(w_s), w_s))
    return mean, row_cov


# -- Gram-matrix kernels and Wishart layers ---------------------------------------------

def se_from_gram(params: KernelParams, G, nu) -> DiffTensor:
    """SE kernel evaluated from a normalized Gram matrix G = F F^T / nu (or
    a stack of them), from generic ops: sf2 exp(-0.5 d2 / l^2) with
    d2_ij = nu (G_ii - 2 G_ij + G_jj); single shared lengthscale only, since
    there are no explicit feature coordinates to weight separately.
    Rounding negatives of d2 are clamped to zero (no gradient through
    them); below -1e-10 it raises.
    """
    G = as_tensor(G)
    ls = params.lengthscales()
    if ls.value.size > 1:
        raise ValueError("an SE kernel on Gram matrices requires a single shared lengthscale")
    diag = de.diag_part(G)
    shape = diag.value.shape
    d2 = de.add(de.sub(de.reshape(diag, shape + (1,)), de.elementwise("affine", G, a=2.0)),
                de.reshape(diag, shape[:-1] + (1, shape[-1])))
    d2 = de.elementwise("affine", d2, a=float(nu))
    if np.any(d2.value < -1e-10):
        raise ValueError("squared distance negative beyond tolerance")
    d2 = de.mul(d2, as_tensor((d2.value >= 0).astype(np.float64)))
    return de.mul(params.sf2(), de.elementwise("exp", de.elementwise(
        "affine", de.div(d2, de.elementwise("square", ls)), a=-0.5)))


def gram_blocks_of_roots(kp: KernelParams, F_i, F_t, nu):
    """(K_ii, K_ti, k_tt) of a deep Wishart layer from the inducing root F_i
    and the test root F_t: dwp.gram_kernel_blocks' K_ii, and K_ti and the
    diagonal k_tt at the lengthscale and signal-variance nodes it returns,
    by the SE kernel node that rand_dist.conditional_draw runs on the test
    rows inside its own node."""
    K_ii, ls, sf2 = gram_kernel_blocks(kp, F_i, nu)
    F_t = as_tensor(F_t)
    return K_ii, _se_node(ls, sf2, F_t, F_i), se_kdiag(sf2, F_t.value.shape[-2])


def se_kdiag(sf2, n: int) -> DiffTensor:
    """The SE kernel's diagonal at n points, sf2 * 1, as one mul node on the
    caller's signal-variance node sf2."""
    return de.mul(sf2, as_tensor(np.ones(n)))


def se_conditional_chain(L, kp: KernelParams, U, F, Z, xi, scale=1.0, B=None):
    """conditional_chain fed with the SE blocks as the layers built them
    before rand_dist.conditional_draw read the kernel inputs: K_fu =
    se_ard_features(kp, F, U) and k_ff = sf2 per row, each scaled by an
    affine node unless scale is 1."""
    K_fu = se_ard_features(kp, F, U)
    k_ff = se_kdiag(kp.sf2(), as_tensor(F).value.shape[-2])
    if scale != 1.0:
        K_fu, k_ff = (de.elementwise("affine", K, a=scale) for K in (K_fu, k_ff))
    return conditional_chain(L, K_fu, k_ff, Z, xi, B)


def dwp_prior_layer(G_prev, kp: KernelParams, nu: int, rng: rd.RngStream,
                    nu_prev=None):
    """One prior layer: G ~ Wishart(K(G_prev)/nu, nu), drawn by the models'
    Bartlett sampler (rand_dist._gwish_sample at the standard parameters,
    one draw per sample of rng).

    Returns (G, log_density, features) with features the sampled root and
    the Wishart density read from it."""
    K = se_from_gram(kp, G_prev, nu_prev if nu_prev is not None else nu)
    L = de.cholesky_factor(de.elementwise("affine", K, a=1.0 / float(nu)))
    _, feat, ld_block, _ = rd._gwish_sample(
        L, nu, *standard_bartlett_params(K.value.shape[0], nu), rng)
    return (de.matmul(feat, de.transpose(feat)),
            rd._wishart_log_density_root(de.triangular_solve(L, feat), L, nu, ld_block), feat)


def wishart_inducing_extension(Sigma_uu, sigma_us, sigma_ss, Psi_uu):
    """Extend a Wishart posterior scale Psi_uu on the inducing block to new
    points so the conditional beyond the inducing block is the prior's.

    x = Psi_uu Sigma_uu^{-1} sigma_us,
    a = sigma_ss - sigma_us^T Sigma_uu^{-1} (Sigma_uu - Psi_uu) Sigma_uu^{-1} sigma_us.

    Returns (x, a, certificate) where the certificate reports how closely the
    extended scale's conditional parameters match the prior conditional, plus
    the analogous inverse-Wishart residual (nonzero whenever Psi != Sigma,
    showing the same extension is impossible there).
    """
    Sigma_uu = np.asarray(as_tensor(Sigma_uu).value, dtype=np.float64)
    Psi_uu = np.asarray(as_tensor(Psi_uu).value, dtype=np.float64)
    sigma_us = np.asarray(as_tensor(sigma_us).value, dtype=np.float64).reshape(-1)
    sigma_ss = float(as_tensor(sigma_ss).value)

    sol = np.linalg.solve(Sigma_uu, sigma_us)       # Sigma^{-1} sigma
    x = Psi_uu @ sol
    a = sigma_ss - sigma_us @ sol + sol @ Psi_uu @ sol

    prior_schur = sigma_ss - sigma_us @ sol
    if a - x @ np.linalg.solve(Psi_uu, x) <= 0 and prior_schur > 0:
        raise ValueError("extension infeasible: Schur complement not positive")

    cond_weights_ext = np.linalg.solve(Psi_uu, x)   # Psi^{-1} x
    cert = {
        "weights_residual": float(np.max(np.abs(cond_weights_ext - sol))),
        "schur_residual": float(abs((a - x @ cond_weights_ext) - prior_schur)),
        "iw_residual": float(abs(prior_schur)
                             * np.linalg.norm(np.linalg.inv(Psi_uu)
                                              - np.linalg.inv(Sigma_uu))),
    }
    return x, a, cert


def bnn_as_dgp_gram(prior: PriorSpec, F_prev, activation="relu", s=1.0) -> DiffTensor:
    """Conditional Gram matrix of one BNN layer's activations:
    K_f = psi(F) Sigma psi(F)^T / fanin = psi(F) psi(F)^T / (nu Sigma^{-1}),
    the degenerate kernel that makes a BNN a DGP with this kernel."""
    F_prev = as_tensor(F_prev)
    psi = F_prev if activation == "identity" else de.elementwise("relu", F_prev)
    prior_prec = _prior_precision_scalar(prior, psi.value.shape[1], s=s)
    return de.div(de.matmul(psi, de.transpose(psi)), prior_prec)


# -- exact Bayesian linear regression -------------------------------------------------

@dataclass
class BlrState:
    """Linear regression with a Gaussian prior N(0, alpha^2 I) on weights.

    Features are either Gaussian bumps (centers/width set) or the raw inputs.
    """
    alpha: object = 1.0            # prior scale
    sigma: object = 1.0            # observation noise std
    centers: np.ndarray = None     # (K,) bump centers for 1-D inputs
    width: float = None


def _blr_features(state: BlrState, X) -> DiffTensor:
    if state.centers is not None:
        return gm.gaussian_bump_features(np.asarray(np.ravel(de.as_tensor(X).value)),
                                         state.centers, state.width)
    X = as_tensor(X)
    if X.value.ndim == 1:
        return de.reshape(X, (X.value.shape[0], 1))
    return X


def blr_fit_predict_lml(state: BlrState, X, y, X_star=None):
    """Posterior (m, S), predictive mean/var at X_star, and log marginal
    likelihood of linear regression with prior N(0, alpha^2 I) on weights.
    """
    alpha = as_tensor(state.alpha)
    sigma = as_tensor(state.sigma)
    if alpha.value <= 0 or sigma.value <= 0:
        raise ValueError("alpha and sigma must be positive")
    phi = _blr_features(state, X)
    n, k = phi.value.shape
    y = as_tensor(y)
    a2 = de.elementwise("square", alpha)
    s2 = de.elementwise("square", sigma)

    if n == 0:
        m = as_tensor(np.zeros(k))
        S = add_diagonal(np.zeros((k, k)), a2)
        lml = as_tensor(np.asarray(0.0))
    elif n <= k:
        # function-space form: better conditioned than the weight-space
        # precision when the features outnumber the data or the noise is tiny
        cov = add_diagonal(de.mul(a2, de.matmul(phi, de.transpose(phi))), s2)
        Lc = de.cholesky_factor(cov)
        w_y = de.triangular_solve(Lc, y)
        w_p = de.triangular_solve(Lc, phi)                     # Lc^{-1} phi
        m = de.mul(a2, de.matmul(de.transpose(w_p), w_y))
        S = add_diagonal(de.elementwise("affine", de.mul(
            de.elementwise("square", a2), de.matmul(de.transpose(w_p), w_p)), a=-1.0), a2)
        lml = mvn_log_density(y, np.zeros(n), cov, chol=Lc)
    else:
        prec = add_diagonal(de.div(de.matmul(de.transpose(phi), phi), s2),
                               de.elementwise("reciprocal", a2))
        Lp = de.cholesky_factor(prec)
        # S = prec^{-1}
        w = de.triangular_solve(Lp, np.eye(k))
        S = de.matmul(de.transpose(w), w)
        m = de.matmul(S, de.div(de.matmul(de.transpose(phi), y), s2))
        cov = add_diagonal(de.mul(a2, de.matmul(phi, de.transpose(phi))), s2)
        lml = mvn_log_density(y, np.zeros(n), cov)

    pred = None
    if X_star is not None:
        phis = _blr_features(state, X_star)
        mean = de.matmul(phis, m)
        var = de.add(de.tsum(de.mul(de.matmul(phis, S), phis), axis=1), s2)
        pred = (mean, var)
    return m, S, pred, lml


def exact_lml(model, dataset) -> float:
    """The exact log marginal likelihood of a models.BlrViModel's linear
    model (its bump features, prior scale and noise) on the training set."""
    st = BlrState(alpha=model.alpha, sigma=model.sigma,
                  centers=model.centers, width=model.width)
    _, _, _, lml = blr_fit_predict_lml(st, dataset.X_train, dataset.y_train)
    return float(lml.value)


# -- GP identities -------------------------------------------------------------------

def prop31_check(state: gm.GpState, X, y):
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
    L = de.cholesky_factor(add_diagonal(Khat, state.noise_var()))
    w = de.triangular_solve(L, y)
    quad = de.tsum(de.elementwise("square", w))      # y^T Mh^{-1} y
    sf2_opt = de.elementwise("affine", quad, a=1.0 / n)
    data_fit = de.elementwise("affine", de.div(quad, sf2_opt), a=-0.5)
    logdet_hat = de.log_diag_sum(L, 2.0)
    complexity = de.add(de.elementwise("affine", de.elementwise("log", sf2_opt), a=0.5 * n),
                        de.elementwise("affine", logdet_hat, a=0.5))
    return sf2_opt, data_fit, complexity


def svgp_collapsed_bound(state: gm.SvgpState, X, y):
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
    fit = mvn_log_density(y, np.zeros(n), add_diagonal(Q, s2))
    kdiag = se_kdiag(state.kernel_params.sf2(), n)
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


# -- the global-inducing posterior from generic ops ------------------------------------

def _scalar_root(L) -> bool:
    """A root of shape (), (1, 1) or (S, 1, 1) is the scalar root L I."""
    return L.value.ndim < 2 or L.value.shape[-2:] == (1, 1)


def gi_posterior(L, A, log_lambda, V):
    """Global-inducing posterior of BNN weights and of GP inducing outputs.

    Each column x of X has the prior N(0, L L^T), with L a lower-triangular
    root or a scalar (the root L I; shaped (1, 1), or (S, 1, 1) with one per
    sample), and pseudo-observations V = A x + noise of precisions
    Lambda = exp(log_lambda) (A = None means I). Read through z = L^{-1} x,
    the prior is N(0, I) and V = B z + noise with B = A L, so the posterior
    of z is N(C^{-T} h, (C C^T)^{-1}) with C = chol(I + B^T Lambda B) from
    one Cholesky and h = C^{-1} B^T Lambda V; that of x is L times it. L and
    A may carry a leading sample axis. Returns (L, C, h), which gi_sample
    draws from."""
    L, V = as_tensor(L), as_tensor(V)
    lam = de.elementwise("exp", as_tensor(log_lambda))
    times_root = de.mul if _scalar_root(L) else de.matmul
    B = L if A is None else times_root(as_tensor(A), L)                        # A L
    BtLam = de.mul(de.transpose(B), de.reshape(lam, (1, V.value.shape[0])))    # B^T Lambda
    C = de.cholesky_factor(de.add(as_tensor(np.eye(B.value.shape[-1])), de.matmul(BtLam, B)))
    return L, C, de.triangular_solve(C, de.matmul(BtLam, V))


def gi_sample(posterior, rng):
    """A draw X = L C^{-T} (h + xi) from a gi_posterior (L, C, h) per sample
    of rng (one draw from it). Returns (X, L^{-1} X, increment) with
    increment = sum_cols log N(x; 0, L L^T) - log q(x)
              = -0.5 |L^{-1} X|^2 + 0.5 |xi|^2 - width sum log diag C,
    one per sample."""
    L, C, h = posterior
    xi = rng.normal(h.value.shape[-2:])
    LinvX = de.triangular_solve(C, de.add(h, as_tensor(xi)), trans=True)
    sq = np.sum(xi * xi, axis=(-2, -1))
    inc = de.add(de.elementwise("affine", de.tsum(de.elementwise("square", LinvX), axis=(-2, -1)),
                                a=-0.5),
                 de.add(de.log_diag_sum(C, -float(h.value.shape[-1])), as_tensor(0.5 * sq)))
    return (de.mul if _scalar_root(L) else de.matmul)(L, LinvX), LinvX, inc


# -- exact GP regression from generic ops ----------------------------------------------

def gp_chain(kern, s2, X, y, X_star=None):
    """Exact GP regression for any kernel function kern(X1, X2) and noise
    variance s2, built from generic ops (the kernel, add_diagonal,
    cholesky_factor, the density and two triangular solves), so every
    output is differentiable: (mean, full predictive covariance at X_star,
    log N(y; 0, K + s2 I)), mean and covariance None without X_star."""
    X = as_tensor(X)
    y = as_tensor(y)
    n = X.value.shape[0]
    Kn = add_diagonal(kern(X, X), s2)
    L = de.cholesky_factor(Kn)
    # L only serves predictions: the LML's gradient reaches Kn directly
    lml = mvn_log_density(y, np.zeros(n), Kn, chol=L)

    if X_star is None:
        return None, None, lml
    Ks = kern(X, X_star)                # n x n*
    Kss = kern(X_star, X_star)
    w_y = de.triangular_solve(L, y)
    w_k = de.triangular_solve(L, Ks)
    mean = de.matmul(de.transpose(w_k), w_y)
    cov = de.sub(Kss, de.matmul(de.transpose(w_k), w_k))
    return mean, cov, lml


# -- the prior conditional draw from generic ops ----------------------------------------

def gaussian_conditional(L, K_uf, k_ff):
    """(W, var) of f given inducing values u, L the lower Cholesky factor of
    K_uu: W = L^{-1} K_uf and the per-point conditional variance var =
    k_ff - sum_rows W^2, from generic ops; the conditional mean is W^T L^{-1}
    u."""
    W = de.triangular_solve(L, K_uf)
    return W, de.sub(k_ff, de.tsum(de.elementwise("square", W), axis=-2))


def conditional_chain(L, K_fu, k_ff, Z, xi, B=None):
    """A draw of the rows F at the normals xi (..., nb, w), composed as the
    layers drew it before rand_dist.conditional_draw: W, var from
    gaussian_conditional(L, K_fu^T, k_ff), one variance per row, or per
    output o given the solved roots B, to which sum_rows (B_o^T W)^2 is
    added output by output; then the mean W^T Z, with Z = L^{-1} U the
    solved inducing values, plus sqrt(var + 1e-12) xi, var clamped at 0 by
    a constant mask."""
    W, var = gaussian_conditional(L, de.transpose(K_fu), k_ff)
    cols = [var] if B is None else [
        de.add(var, de.tsum(de.elementwise("square", de.matmul(de.transpose(getitem(B, o)), W)),
                            axis=-2)) for o in range(as_tensor(Z).value.shape[-1])]
    var = de.concat([de.reshape(v, v.value.shape + (1,)) for v in cols], axis=-1)
    var = de.add(de.mul(var, as_tensor((var.value > 0).astype(np.float64))),
                 as_tensor(np.full(var.value.shape, 1e-12)))
    return de.add(de.matmul(de.transpose(W), Z), de.mul(de.elementwise("sqrt", var), xi))
