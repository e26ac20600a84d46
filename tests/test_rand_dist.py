import numpy as np
import pytest
import scipy.special as spec
import scipy.stats as st
from scipy.integrate import quad
from hypothesis import given, settings, strategies as hst

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.dwp import standard_bartlett_params

import oracles


def _spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * n * np.eye(n)


# -- streams -------------------------------------------------------------------

def test_stream_determinism_and_split_independence():
    a = rd.RngStream(123).normal(5)
    b = rd.RngStream(123).normal(5)
    assert np.array_equal(a, b)
    s1, s2 = rd.RngStream(123).split(2)
    x1, x2 = s1.normal(1000), s2.normal(1000)
    assert not np.array_equal(x1, x2)
    assert abs(np.corrcoef(x1, x2)[0, 1]) < 0.1


# A stream is one SeedSequence: numpy's SeedSequence.spawn and
# Generator(Philox(ss)) are the reference every draw must equal bitwise.
ROOT_ENTROPIES = [0, 7, (1 << 64) + 12345, (1 << 130) + 3]


def _ref_draws(gen):
    return gen.standard_gamma(np.array([0.5, 3.0])), gen.normal(size=(2, 3))


def _draws(stream):
    return stream.standard_gamma(np.array([0.5, 3.0])), stream.normal((2, 3))


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def _ref_gen(ss):
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("entropy", ROOT_ENTROPIES)
@pytest.mark.parametrize("spawn_key", [(), (1 << 20, 3)])
def test_random_split_trees_draw_what_seedsequence_philox_draws(entropy, spawn_key):
    choose = np.random.default_rng(entropy % 1000 + len(spawn_key))
    for _ in range(12):
        ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        st = rd.RngStream(np.random.SeedSequence(entropy, spawn_key=spawn_key))
        for _ in range(choose.integers(0, 6)):          # depth 0 to 5
            for _ in range(choose.integers(0, 3)):      # earlier splits advance the counter
                n = int(choose.integers(1, 4))
                ss.spawn(n), st.split(n)
            n = int(choose.integers(1, 5))
            i = int(choose.integers(0, n))
            ss, st = ss.spawn(n)[i], st.split(n)[i]
        # one member's state continues from its gamma draw into its normal draw
        _assert_same(_draws(st), _ref_draws(_ref_gen(ss)))


def test_int_roots_and_training_roots_match_their_seedsequence():
    for seed in (0, 5, 2**40):
        _assert_same(_draws(rd.RngStream(seed)),
                     _ref_draws(_ref_gen(np.random.SeedSequence(seed))))
    for step in (0, 17):
        ss = np.random.SeedSequence(entropy=3, spawn_key=(1 << 20, step))
        st = rd.RngStream(np.random.SeedSequence(entropy=3, spawn_key=(1 << 20, step)))
        assert np.array_equal(st.permutation(50), _ref_gen(ss).permutation(50))
        _assert_same(_draws(st.split(2)[1]), _ref_draws(_ref_gen(ss.spawn(2)[1])))
    # a root that has already spawned continues its counter
    ss = np.random.SeedSequence(9, n_children_spawned=4)
    child = rd.RngStream(np.random.SeedSequence(9, n_children_spawned=4)).split(1)[0]
    _assert_same(_draws(child), _ref_draws(_ref_gen(ss.spawn(1)[0])))


def test_repeated_splits_on_one_stream_advance_its_spawn_counter():
    ss, st = np.random.SeedSequence(11), rd.RngStream(11)
    for n in (2, 1, 3):
        for ref, got in zip(ss.spawn(n), st.split(n)):
            _assert_same(_draws(got), _ref_draws(_ref_gen(ref)))


def test_a_stream_with_samples_draws_all_of_them_from_one_call():
    S = 4
    st = rd.RngStream(np.random.SeedSequence(3, spawn_key=(1 << 20, 2)), S)
    kids = st.split(2)
    assert [k.samples for k in kids] == [S, S]
    ref = np.random.SeedSequence(3, spawn_key=(1 << 20, 2)).spawn(2)
    got = kids[0].normal((2, 3))
    assert np.array_equal(got, _ref_gen(ref[0]).standard_normal((S, 2, 3)))
    alpha = np.array([0.5, 3.0])
    got = kids[1].standard_gamma(alpha)
    assert np.array_equal(got, _ref_gen(ref[1]).standard_gamma(alpha, (S, 2)))
    # sample s reads row s: the first S rows at 2S are the same numbers
    assert np.array_equal(rd.RngStream(7, S).normal(5), rd.RngStream(7, 2 * S).normal(5)[:S])
    assert np.array_equal(rd.RngStream(7, S).standard_gamma(alpha),
                          rd.RngStream(7, 2 * S).standard_gamma(alpha)[:S])


def test_a_stream_with_samples_draws_once():
    st = rd.RngStream(5, 3)
    st.normal(2)
    with pytest.raises(ValueError, match="draws once"):
        st.normal(2)
    with pytest.raises(ValueError, match="draws once"):
        st.standard_gamma(np.ones(2))
    # a stream without a sample count goes on drawing, as numpy's generator
    plain, ref = rd.RngStream(5), _ref_gen(np.random.SeedSequence(5))
    for _ in range(3):
        assert np.array_equal(plain.normal(2), ref.standard_normal(2))


# -- gaussian sampling -----------------------------------------------------------

def test_gaussian_sample_zero_chol_returns_mean():
    mean = np.array([1.0, -2.0, 3.0])
    out = oracles.gaussian_sample(mean, np.zeros((3, 3)), rd.RngStream(0))
    assert np.array_equal(out.value, mean)


def test_gaussian_sample_moments():
    rng = np.random.default_rng(0)
    S = _spd(rng, 3)
    L = np.linalg.cholesky(S)
    n = 20000
    draws = oracles.gaussian_sample(np.zeros(3), L, rd.RngStream(7, n)).value
    se = np.sqrt(np.diag(S) / n)
    assert np.all(np.abs(draws.mean(0)) < 3 * se)
    assert np.max(np.abs(np.cov(draws.T) - S)) < 0.1 * np.max(np.abs(S))


def test_gaussian_sample_mean_gradient_is_identity():
    with de.Tape() as t:
        m = t.param(np.zeros(3), "m")
        out = oracles.gaussian_sample(m, np.eye(3), rd.RngStream(1))
        grads = de.backward_pass(de.tsum(out))
    assert np.allclose(grads["m"], np.ones(3))


def test_matrix_normal_sample_column_identity():
    stream1, stream2 = rd.RngStream(5), rd.RngStream(5)
    M = np.ones((3, 2))
    Lr = np.linalg.cholesky(_spd(np.random.default_rng(1), 3))
    a = oracles.matrix_normal_sample(M, Lr, None, stream1)
    b = oracles.matrix_normal_sample(M, Lr, np.eye(2), stream2)
    assert np.allclose(a.value, b.value)


# -- gamma with implicit reparameterization -------------------------------------

def test_gamma_sample_mean():
    stream = rd.RngStream(11)
    n = 100_000
    z = rd.gamma_sample_reparam(np.full(n, 2.0), np.full(n, 3.0), stream)
    se = np.sqrt(2.0 / 9.0 / n)
    assert abs(z.value.mean() - 2.0 / 3.0) < 3 * se


def test_gamma_rate_acts_as_exact_scale():
    # common random numbers: z(beta) == z(1) / beta exactly
    z1 = rd.gamma_sample_reparam(np.full(4, 1.7), np.ones(4), rd.RngStream(3))
    z2 = rd.gamma_sample_reparam(np.full(4, 1.7), np.full(4, 2.5), rd.RngStream(3))
    assert np.allclose(z1.value / 2.5, z2.value, rtol=1e-12)


def test_gamma_rate_gradient_exact():
    with de.Tape() as t:
        b = t.param(np.full(3, 2.0), "b")
        z = rd.gamma_sample_reparam(np.full(3, 1.5), b, rd.RngStream(4))
        zval = z.value.copy()
        grads = de.backward_pass(de.tsum(z))
    assert np.allclose(grads["b"], -zval / 2.0, rtol=1e-12)


def test_gamma_shape_gradient_matches_inverse_cdf_path():
    # d/da of the fixed-quantile sample z(a) = gammaincinv(a, u) / beta is the
    # correct pathwise derivative; the implicit estimator must match it.
    stream = rd.RngStream(9)
    a0, beta = 2.3, 1.7
    with de.Tape() as t:
        a = t.param(np.asarray(a0), "a")
        z = rd.gamma_sample_reparam(a, np.asarray(beta), stream)
        u = spec.gammainc(a0, z.value * beta)
        grads = de.backward_pass(z)
    h = 1e-6
    ref = (spec.gammaincinv(a0 + h, u) - spec.gammaincinv(a0 - h, u)) / (2 * h * beta)
    assert abs(grads["a"] - ref) < 1e-6 * max(1.0, abs(ref))


def test_gamma_shape_gradient_of_mean_is_unbiased():
    # E[z] = a / b, so the average pathwise derivative wrt a approaches 1 / b
    stream = rd.RngStream(12)
    n = 100_000
    with de.Tape() as t:
        a = t.param(np.full(n, 1.8), "a")
        z = rd.gamma_sample_reparam(a, np.full(n, 1.0), stream)
        grads = de.backward_pass(de.mul(de.tsum(z), 1.0 / n))
    assert abs(grads["a"].sum() - 1.0) < 0.05


@pytest.mark.parametrize("a0", [3e-6, 8e-6])
def test_gamma_shape_gradient_below_the_difference_step(a0):
    # below a = 1e-5 the central difference's lower point is clamped at
    # 1e-12, so dF/da is taken over the narrower step; the draw underflows
    # to 0 at these shapes and is read at 1e-300
    with de.Tape() as t:
        a = t.param(np.asarray(a0), "a")
        z = rd.gamma_sample_reparam(a, np.asarray(1.0), rd.RngStream(0))
        grads = de.backward_pass(z)
    x = max(float(z.value), 1e-300)
    h = 1e-9
    dF = (spec.gammainc(a0 + h, x) - spec.gammainc(a0 - h, x)) / (2 * h)
    ref = -dF / np.exp((a0 - 1.0) * np.log(x) - x - spec.gammaln(a0))
    assert abs(grads["a"] / ref - 1.0) < 1e-2


def test_gamma_rejects_nonpositive_params():
    with pytest.raises(ValueError):
        rd.gamma_sample_reparam(np.asarray(-1.0), np.asarray(1.0), rd.RngStream(0))


# -- log densities ---------------------------------------------------------------

def test_normal_log_density_matches_scipy():
    x, m, v = 0.7, -0.2, 1.9
    assert np.isclose(rd.normal_log_density(np.asarray(x), np.asarray(m),
                                            np.asarray(v)).value,
                      st.norm.logpdf(x, m, np.sqrt(v)))


def test_mvn_log_density_matches_scipy_and_chol_path():
    rng = np.random.default_rng(8)
    S = _spd(rng, 4)
    y = rng.standard_normal(4)
    m = rng.standard_normal(4)
    ref = st.multivariate_normal.logpdf(y, m, S)
    assert np.isclose(oracles.mvn_log_density(y, m, cov=S).value, ref)
    assert np.isclose(oracles.mvn_log_density(y, m, S, chol=np.linalg.cholesky(S)).value, ref)


def test_wishart_log_density_matches_scipy_full_rank():
    rng = np.random.default_rng(10)
    S = _spd(rng, 3)
    G = _spd(rng, 3)
    for nu in (3.5, 5, 9):
        ref = st.wishart.logpdf(G, df=nu, scale=S)
        assert np.isclose(oracles.wishart_log_density(G, S, nu).value, ref), nu


def test_wishart_log_density_scalar_is_chi2():
    # N=1, Sigma=1: G ~ chi-squared with nu degrees of freedom
    g = np.asarray([[1.0]])
    for nu in (2, 5):
        assert np.isclose(oracles.wishart_log_density(g, np.eye(1), nu).value,
                          st.chi2.logpdf(1.0, nu), atol=1e-12)


def test_wishart_singular_density_integrates_via_factor():
    # N=2, nu=1: G = t t^T with t ~ N(0, I). Compare against the density of t
    # pushed through the map, using the llt Jacobian on the same factor.
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 1))
    G = t @ t.T
    ld_jac = oracles.jacobian_logdets("llt", factor=np.abs(t)).value
    # one factor per G (sign of the column is quotiented out: x2)
    ref = st.norm.logpdf(np.abs(t)).sum() + np.log(2.0) - ld_jac
    assert np.isclose(oracles.wishart_log_density(G, np.eye(2), 1).value, ref, atol=1e-10)


def test_wishart_singular_requires_integer_nu():
    G = np.outer([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.wishart_log_density(G, np.eye(2), 1.5)


def test_wishart_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        oracles.wishart_log_density(_spd(np.random.default_rng(0), 3), np.eye(3), 2)


def test_inverse_wishart_matches_scipy_and_scalar_reduction():
    rng = np.random.default_rng(13)
    S = _spd(rng, 3)
    G = _spd(rng, 3)
    nu = 7.0
    assert np.isclose(oracles.inverse_wishart_log_density(G, S, nu).value,
                      st.invwishart.logpdf(G, df=nu, scale=S))
    # N=1 reduces to inverse-gamma(nu/2, sigma/2)
    g, s = 0.8, 1.3
    assert np.isclose(oracles.inverse_wishart_log_density(np.asarray([[g]]),
                                                          np.asarray([[s]]), 5.0).value,
                      st.invgamma.logpdf(g, a=2.5, scale=s / 2))


def test_scalar_wishart_density_integrates_to_one():
    val, _ = quad(lambda g: np.exp(oracles.wishart_log_density(
        np.asarray([[g]]), np.asarray([[0.7]]), 4.0).value), 0, 80)
    assert abs(val - 1.0) < 1e-8


def test_wishart_density_gradient():
    rng = np.random.default_rng(14)
    S = _spd(rng, 3)
    G = _spd(rng, 3)
    def fn(ps):
        Ssym = de.elementwise("affine", de.add(ps[0], de.transpose(ps[0])), a=0.5)
        Gsym = de.elementwise("affine", de.add(ps[1], de.transpose(ps[1])), a=0.5)
        return oracles.wishart_log_density(Gsym, Ssym, 6.0)
    rep = de.finite_diff_check(fn, [S, G])
    assert rep["passed"], rep


# -- Bartlett sampling --------------------------------------------------------------

def _standard_bartlett(N, nu, stream):
    """The Bartlett sampler the Gram layers run, at an identity scale and the
    standard Wishart's parameters: (G, T) with T the Bartlett factor and
    G = T T^T ~ Wishart(I_N, nu)."""
    G, _, T, _, _ = rd._gwish_sample(np.eye(N), nu, *standard_bartlett_params(N, nu), stream)
    return G.value, T.value


def test_bartlett_full_rank_mean():
    n = 50_000
    N, nu = 3, 5
    G, _ = _standard_bartlett(N, nu, rd.RngStream(21, n))
    assert np.max(np.abs(G.mean(axis=0) - nu * np.eye(N))) < 0.1


def test_bartlett_singular_shape_and_rank():
    G, T = _standard_bartlett(4, 2, rd.RngStream(0))
    assert T.shape == (4, 2)
    assert np.linalg.matrix_rank(G) == 2


def test_bartlett_diag_squared_are_chi2():
    n = 30_000
    _, T = _standard_bartlett(2, 5, rd.RngStream(33, n))
    d = np.diagonal(T, axis1=-2, axis2=-1) ** 2
    # T_jj^2 ~ chi2(nu - j + 1)
    for j, dof in enumerate([5.0, 4.0]):
        se = np.sqrt(2 * dof / n)
        assert abs(d[:, j].mean() - dof) < 3 * se


# -- Jacobian log determinants --------------------------------------------------------

def _num_jac_logdet(fn, x):
    x = np.asarray(x, dtype=float)
    f0 = fn(x)
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += 1e-6
        xm[i] -= 1e-6
        J[:, i] = (fn(xp) - fn(xm)) / 2e-6
    s, ld = np.linalg.slogdet(J)
    assert s != 0
    return ld


def _trap_indices(N, ntilde):
    r, c = np.tril_indices(N)
    keep = c < ntilde
    return r[keep], c[keep]


def test_llt_jacobian_identity_factor():
    # factor = I: |J| = prod 2 Lam_ii^{N-i+1} = 2^N
    N = 3
    assert np.isclose(oracles.jacobian_logdets("llt", factor=np.eye(N)).value,
                      N * np.log(2.0))


@pytest.mark.parametrize("N,ntilde", [(3, 3), (4, 2)])
def test_llt_jacobian_numerical(N, ntilde):
    rng = np.random.default_rng(42)
    lam = np.tril(rng.standard_normal((N, N)))[:, :ntilde]
    lam[np.arange(ntilde), np.arange(ntilde)] = np.abs(
        lam[np.arange(ntilde), np.arange(ntilde)]) + 0.5
    r, c = _trap_indices(N, ntilde)
    def coords_to_gram(v):
        m = np.zeros((N, ntilde))
        m[r, c] = v
        G = m @ m.T
        return G[r, c]
    assert np.isclose(oracles.jacobian_logdets("llt", factor=lam).value,
                      _num_jac_logdet(coords_to_gram, lam[r, c]), atol=1e-6)


@pytest.mark.parametrize("N,nu", [(3, 5), (4, 2)])
def test_left_mul_jacobian_numerical(N, nu):
    rng = np.random.default_rng(1)
    ntilde = min(N, nu)
    L = np.tril(rng.standard_normal((N, N)))
    L[np.arange(N), np.arange(N)] = np.abs(np.diag(L)) + 0.5
    r, c = _trap_indices(N, ntilde)
    T0 = np.zeros((N, ntilde))
    T0[r, c] = rng.standard_normal(r.size)
    def fwd(v):
        T = np.zeros((N, ntilde))
        T[r, c] = v
        return (L @ T)[r, c]
    assert np.isclose(oracles.jacobian_logdets("left_mul", L=L, nu=nu).value,
                      _num_jac_logdet(fwd, T0[r, c]), atol=1e-6)


@pytest.mark.parametrize("N,nu", [(3, 5), (4, 2)])
def test_right_mul_jacobian_numerical(N, nu):
    rng = np.random.default_rng(2)
    ntilde = min(N, nu)
    B = np.tril(rng.standard_normal((ntilde, ntilde)))
    B[np.arange(ntilde), np.arange(ntilde)] = np.abs(np.diag(B)) + 0.5
    r, c = _trap_indices(N, ntilde)
    def fwd(v):
        T = np.zeros((N, ntilde))
        T[r, c] = v
        return (T @ B)[r, c]
    v0 = np.random.default_rng(3).standard_normal(r.size)
    assert np.isclose(oracles.jacobian_logdets("right_mul", B=B, N=N, nu=nu).value,
                      _num_jac_logdet(fwd, v0), atol=1e-6)


def test_congruence_jacobian_full_rank_is_classic():
    # for full-rank symmetric C, |J| of C -> A C A^T equals |det A|^{N+1}
    rng = np.random.default_rng(5)
    N, nu = 3, 6
    A = rng.standard_normal((N, N)) + 2 * np.eye(N)
    C = _spd(rng, N)
    got = oracles.jacobian_logdets("congruence", A=A, C_block=C, D_block=A @ C @ A.T,
                                   N=N, nu=nu).value
    assert np.isclose(got, (N + 1) * np.linalg.slogdet(A)[1])


def test_congruence_jacobian_singular_numerical():
    # rank-deficient C: chart = lower-trapezoidal entries of the leading
    # ntilde columns, trailing block filled in by the rank constraint
    rng = np.random.default_rng(6)
    N, nu = 3, 2
    ntilde = nu
    A = rng.standard_normal((N, N)) + 2 * np.eye(N)
    lam = np.tril(rng.standard_normal((N, N)))[:, :ntilde]
    lam[np.arange(ntilde), np.arange(ntilde)] = np.abs(
        lam[np.arange(ntilde), np.arange(ntilde)]) + 0.5
    C = lam @ lam.T
    r, c = _trap_indices(N, ntilde)
    def complete(v):
        M = np.zeros((N, N))
        M[r, c] = v
        M[c, r] = v
        C11 = M[:ntilde, :ntilde]
        C21 = M[ntilde:, :ntilde]
        M[ntilde:, ntilde:] = C21 @ np.linalg.solve(C11, C21.T)
        return M
    def fwd(v):
        D = A @ complete(v) @ A.T
        return D[r, c]
    got = oracles.jacobian_logdets("congruence", A=A, C_block=C[:ntilde, :ntilde],
                                   D_block=(A @ C @ A.T)[:ntilde, :ntilde],
                                   N=N, nu=nu).value
    assert np.isclose(got, _num_jac_logdet(fwd, C[r, c]), atol=1e-5)


# -- LU-packed matrices ------------------------------------------------------------

def test_lu_packed_identity_and_logdet():
    assert np.allclose(rd.lu_packed_matrix(np.eye(3)).value, np.eye(3))
    rng = np.random.default_rng(7)
    P = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    A = rd.lu_packed_matrix(P).value
    assert np.isclose(rd.lu_packed_logdet(P).value, np.linalg.slogdet(A)[1])


def test_lu_packed_rejects_zero_diagonal():
    P = np.eye(3)
    P[1, 1] = 0.0
    with pytest.raises(ValueError):
        rd.lu_packed_logdet(P)


# -- generalized Wishart sampling ----------------------------------------------------

def _standard_bartlett_params(N, nu):
    ntilde = min(N, nu)
    j = np.arange(1, ntilde + 1)
    alpha = 0.5 * (nu - j + 1.0)
    beta = np.full(ntilde, 0.5)
    mu = np.zeros((N, ntilde))
    sigma = np.ones((N, ntilde))
    return alpha, beta, mu, sigma


@pytest.mark.parametrize("N,nu", [(3, 6), (4, 2)])
def test_gwish_standard_params_reduce_to_wishart_density(N, nu):
    # with the standard Bartlett parameters, A=I, B=I, the log density must
    # equal the (singular) Wishart log density at the same sample
    rng = np.random.default_rng(0)
    S = _spd(rng, N)
    L = np.linalg.cholesky(S)
    a, b, mu, sg = _standard_bartlett_params(N, nu)
    for seed in range(5):
        G, logq, feat, _, _ = rd._gwish_sample(L, nu, a, b, mu, sg, rd.RngStream(seed))
        assert np.allclose(feat.value @ feat.value.T, G.value)
        assert np.isclose(logq.value, oracles.wishart_log_density(G.value, S, nu).value,
                          atol=1e-10), seed


def test_gwish_variant_nesting_is_exact_under_same_seed():
    # A=I / B=I reduce the A and AB variants to the base sampler exactly
    N, nu = 3, 5
    a, b, mu, sg = _standard_bartlett_params(N, nu)
    base = rd._gwish_sample(np.eye(N), nu, a, b, mu, sg, rd.RngStream(4))
    witha = oracles.gwish_full_density(rd._gwish_sample(
        np.eye(N), nu, a, b, mu, sg, rd.RngStream(4), A_packed=np.eye(N)), nu, np.eye(N))
    withab = oracles.gwish_full_density(rd._gwish_sample(
        np.eye(N), nu, a, b, mu, sg, rd.RngStream(4), A_packed=np.eye(N),
        B=np.eye(min(N, nu))), nu, np.eye(N))
    for other in (witha, withab):
        assert np.allclose(base[0].value, other[0].value)
        assert np.isclose(base[1].value, other[1].value, atol=1e-12)


def test_gwish_ab_density_change_of_variables():
    # non-trivial A and B: density at the sample must equal the base Bartlett
    # density minus the log Jacobians of the extra maps
    N, nu = 3, 5
    rng = np.random.default_rng(9)
    a = np.abs(rng.standard_normal(N)) + 1.0
    b = np.abs(rng.standard_normal(N)) + 0.5
    mu = rng.standard_normal((N, N)) * 0.3
    sg = np.abs(rng.standard_normal((N, N))) + 0.5
    P = rng.standard_normal((N, N)) * 0.2 + np.eye(N) * 1.5
    B = np.tril(rng.standard_normal((N, N)) * 0.2) + np.eye(N)
    g_ab, logq_ab, feat, _ = oracles.gwish_full_density(rd._gwish_sample(
        np.eye(N), nu, a, b, mu, sg, rd.RngStream(17), A_packed=P, B=B), nu, P)
    g0, logq0, feat0, _, _ = rd._gwish_sample(np.eye(N), nu, a, b, mu, sg, rd.RngStream(17))
    A = rd.lu_packed_matrix(P).value
    assert np.allclose(feat.value, A @ feat0.value @ B)
    jac_b = oracles.jacobian_logdets("right_mul", B=B, N=N, nu=nu).value
    C = (feat0.value @ B) @ (feat0.value @ B).T
    D = A @ C @ A.T
    jac_a = oracles.jacobian_logdets("congruence", A=A, C_block=C, D_block=D,
                                N=N, nu=nu).value
    assert np.isclose(logq_ab.value, logq0.value - 2 * jac_b - jac_a, atol=1e-9)


@pytest.mark.parametrize("N,nu", [(3, 6), (3, 5), (4, 2), (4, 3)])
def test_gwish_a_variant_density_is_wishart_with_composed_scale(N, nu):
    # standard Bartlett params + A-variant: G ~ Wishart(L A A^T L^T, nu), so the
    # assembled density must equal the (singular) Wishart density exactly
    rng = np.random.default_rng(N + nu)
    Lr = np.tril(rng.standard_normal((N, N)) * 0.3) + np.eye(N)
    P = rng.standard_normal((N, N)) * 0.2 + 1.5 * np.eye(N)
    a, b, mu, sg = _standard_bartlett_params(N, nu)
    G, logq, _, _ = oracles.gwish_full_density(
        rd._gwish_sample(Lr, nu, a, b, mu, sg, rd.RngStream(8), A_packed=P), nu, P)
    A = rd.lu_packed_matrix(P).value
    ref = oracles.wishart_log_density(G.value, Lr @ A @ A.T @ Lr.T, nu).value
    assert np.isclose(logq.value, ref, atol=1e-9)


def test_gwish_density_gradients_excluding_shape():
    # finite differences through the gamma sampler are invalid in the shape
    # parameter (the rejection path is discontinuous); check all other params
    N, nu = 3, 5
    rng = np.random.default_rng(19)
    mu0 = rng.standard_normal((N, N)) * 0.2
    def fn(params):
        sg = de.elementwise("exp", params["log_sigma"])
        b = de.elementwise("exp", params["log_beta"])
        Ld = de.add(de.mul(params["Lraw"], np.tril(np.ones((N, N)), -1)),
                    de.diag_embed(de.elementwise("exp", de.diag_part(params["Lraw"]))))
        G, logq, _, _ = oracles.gwish_full_density(rd._gwish_sample(
            Ld, nu, np.full(N, 2.0), b, params["mu"], sg, rd.RngStream(23),
            A_packed=params["P"], B=None), nu, params["P"])
        return de.add(logq, de.mul(de.tsum(de.elementwise("square", G)), 1e-3))
    rep = de.finite_diff_check(fn, {
        "log_sigma": np.zeros((N, N)), "log_beta": np.log(np.full(N, 0.5)),
        "mu": mu0, "Lraw": np.tril(rng.standard_normal((N, N)) * 0.1),
        "P": np.eye(N) + rng.standard_normal((N, N)) * 0.05})
    assert rep["passed"], rep


# -- Gaussian conditioning ------------------------------------------------------------

def test_gaussian_conditional_matches_dense_conditional():
    rng = np.random.default_rng(6)
    K = _spd(rng, 7)
    iu, if_ = [0, 1, 2, 3], [4, 5, 6]
    K_uu, K_uf = K[np.ix_(iu, iu)], K[np.ix_(iu, if_)]
    u = rng.standard_normal((4, 2))
    L = np.linalg.cholesky(K_uu)
    W, var = rd.gaussian_conditional(L, K_uf, np.diag(K)[if_])
    assert np.allclose(W.value, np.linalg.solve(L, K_uf), rtol=0, atol=1e-12)
    ref_mean = K_uf.T @ np.linalg.solve(K_uu, u)
    ref_cov = K[np.ix_(if_, if_)] - K_uf.T @ np.linalg.solve(K_uu, K_uf)
    # the mean is W^T L^{-1} u
    assert np.allclose(W.value.T @ np.linalg.solve(L, u), ref_mean, rtol=0, atol=1e-12)
    assert np.allclose(var.value, np.diag(ref_cov), rtol=0, atol=1e-12)


# -- matrix normal conditioning --------------------------------------------------

def test_conditional_reduces_to_marginal_when_independent():
    S_ii, S_tt = np.eye(2), 2.0 * np.eye(3)
    F_i = np.random.default_rng(0).standard_normal((2, 4))
    mean, row_cov = oracles.matrix_normal_conditional(S_ii, np.zeros((3, 2)), S_tt, F_i)
    assert np.allclose(np.asarray(mean.value), 0.0)
    assert np.allclose(np.asarray(row_cov.value), S_tt)


def test_conditional_interpolates_at_shared_rows():
    # t identical to an i row: conditional is a point mass at that row
    rng = np.random.default_rng(1)
    S = _spd(rng, 3)
    F_i = rng.standard_normal((3, 2))
    mean, row_cov = oracles.matrix_normal_conditional(S, S[0:1, :], S[0:1, 0:1], F_i)
    assert np.allclose(np.asarray(mean.value), F_i[0:1, :], atol=1e-8)
    assert np.max(np.abs(np.asarray(row_cov.value))) < 1e-8


def test_conditional_moments_against_joint_sampling():
    rng = np.random.default_rng(2)
    S = _spd(rng, 4)
    L = np.linalg.cholesky(S)
    idx_i, idx_t = [0, 1], [2, 3]
    F_i = rng.standard_normal((2, 3))
    mean, row_cov = oracles.matrix_normal_conditional(S[np.ix_(idx_i, idx_i)],
                                                      S[np.ix_(idx_t, idx_i)],
                                                      S[np.ix_(idx_t, idx_t)], F_i)
    # joint: F = L Xi; condition by linear-Gaussian formulas on each column
    Sii = S[np.ix_(idx_i, idx_i)]
    Sti = S[np.ix_(idx_t, idx_i)]
    ref_mean = Sti @ np.linalg.solve(Sii, F_i)
    ref_cov = S[np.ix_(idx_t, idx_t)] - Sti @ np.linalg.solve(Sii, Sti.T)
    assert np.allclose(np.asarray(mean.value), ref_mean)
    assert np.allclose(np.asarray(row_cov.value), ref_cov)


# -- KL divergences ---------------------------------------------------------------

def test_kl_zero_for_identical_distributions():
    rng = np.random.default_rng(3)
    S = _spd(rng, 3)
    m = rng.standard_normal(3)
    L = de.cholesky_factor(S)
    assert abs(rd._kl_gaussian_chol(m, L, m, L).value) < 1e-10
    v = np.abs(rng.standard_normal(4)) + 0.5
    Lv = np.diag(np.sqrt(v[:1]))
    assert abs(rd._kl_gaussian_chol(m[:1], Lv, m[:1], Lv).value) < 1e-12
    assert abs(rd.kl_gamma((np.asarray(2.0), np.asarray(3.0)),
                           (np.asarray(2.0), np.asarray(3.0))).value) < 1e-12


def test_kl_unit_gaussians_shifted_mean():
    got = rd._kl_gaussian_chol(np.zeros(1), np.eye(1), np.ones(1), np.eye(1))
    assert np.isclose(got.value, 0.5)


def test_kl_gaussian_full_matches_monte_carlo():
    rng = np.random.default_rng(4)
    Sq, Sp = _spd(rng, 3), _spd(rng, 3)
    mq, mp_ = rng.standard_normal(3), rng.standard_normal(3)
    got = rd._kl_gaussian_chol(mq, de.cholesky_factor(Sq), mp_, de.cholesky_factor(Sp)).value
    n = 200_000
    x = rng.multivariate_normal(mq, Sq, size=n)
    diffs = st.multivariate_normal.logpdf(x, mq, Sq) - \
        st.multivariate_normal.logpdf(x, mp_, Sp)
    assert abs(got - diffs.mean()) < 3 * diffs.std() / np.sqrt(n)


def test_kl_gamma_matches_quadrature():
    aq, bq, ap, bp = 2.5, 1.2, 4.0, 0.7
    got = rd.kl_gamma((np.asarray(aq), np.asarray(bq)), (np.asarray(ap), np.asarray(bp))).value
    ref, _ = quad(lambda z: st.gamma.pdf(z, aq, scale=1 / bq) *
                  (st.gamma.logpdf(z, aq, scale=1 / bq) -
                   st.gamma.logpdf(z, ap, scale=1 / bp)), 0, 60)
    assert abs(got - ref) < 1e-8


@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 10_000))
def test_kl_nonnegativity_property(seed):
    rng = np.random.default_rng(seed)
    aq, bq, ap, bp = np.exp(rng.standard_normal(4) * 0.7)
    assert rd.kl_gamma((np.asarray(aq), np.asarray(bq)),
                       (np.asarray(ap), np.asarray(bp))).value > -1e-12
    v1, v2 = np.exp(rng.standard_normal(3) * 0.5), np.exp(rng.standard_normal(3) * 0.5)
    m1, m2 = rng.standard_normal(3), rng.standard_normal(3)
    assert rd._kl_gaussian_chol(m1, np.diag(np.sqrt(v1)), m2,
                                np.diag(np.sqrt(v2))).value > -1e-12


def test_kl_gradient_check():
    rng = np.random.default_rng(5)
    Sq, Sp = _spd(rng, 3), _spd(rng, 3)
    def fn(ps):
        q_cov = de.elementwise("affine", de.add(ps[0], de.transpose(ps[0])), a=0.5)
        return rd._kl_gaussian_chol(ps[1], de.cholesky_factor(q_cov), np.zeros(3),
                                    de.cholesky_factor(Sp))
    rep = de.finite_diff_check(fn, [Sq, rng.standard_normal(3)])
    assert rep["passed"], rep
