import numpy as np
import pytest

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.deep_models import forward, mc_elbo
from deepbayes.dwp import (DwpOutputLayer, GWishLayerPosterior, dwp_posterior_layer,
                           gram_kernel_blocks, standard_bartlett_params)
from deepbayes.kernels import KernelParams

from oracles import (dwp_prior_layer, gram_blocks_of_roots, gwish_full_density, sample_rows,
                     se_from_gram, wishart_inducing_extension, wishart_log_density)


def _spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * n * np.eye(n)


def _posterior(M, nu, variant="base", rng=None, q=0.1, spread=0.0):
    rng = rng or np.random.default_rng(0)
    a, b, mu, sg = standard_bartlett_params(M, nu)
    nt = min(M, nu)
    layer = GWishLayerPosterior(
        V=np.linalg.cholesky(_spd(rng, M)) / np.sqrt(M),
        logit_q=np.log(q / (1 - q)), nu=nu,
        log_alpha=np.log(a) + spread * rng.standard_normal(nt),
        log_beta=np.log(b) + spread * rng.standard_normal(nt),
        mu=mu + spread * rng.standard_normal((M, nt)),
        log_sigma=np.log(sg) + spread * rng.standard_normal((M, nt)),
        A_packed=np.eye(M) if variant in ("A", "AB") else None,
        B_packed=np.zeros((nt, nt)) if variant == "AB" else None)
    return layer


def _se_scale(rng, M, nt, nu, d=2):
    """Kernel inputs of a Gram layer's draw of nt test rows, the roots U
    (M, d) and F (nt, d) of the inducing and the test rows, and the prior
    scale S = K / nu of all M + nt rows, K their SE kernel at unit
    lengthscale and signal variance (the kernel parameters the draws are
    given)."""
    X = rng.standard_normal((M + nt, d))
    K = np.exp(-0.5 * np.sum((X[:, None] - X[None]) ** 2, axis=-1))
    return X[:M], X[M:], K / nu


def _draw_rows(feat_i, Z_i, L_ii, U, F, nu, rng):
    """(F_i, F_t) as GWishLayerPosterior.sample draws them, at unit kernel
    parameters: the inducing root F_i and its solve Z_i = L_ii^{-1} F_i
    padded with zero columns to width nu, and the test rows' root F_t, one
    rd.conditional_draw at the padded Z_i with scale 1/nu from one draw of
    rng."""
    feat_i, Z_i = de.as_tensor(feat_i), de.as_tensor(Z_i)
    width = feat_i.value.shape[-1]
    if width < nu:
        pad = de.as_tensor(np.zeros(feat_i.value.shape[:-1] + (nu - width,)))
        feat_i, Z_i = (de.concat([x, pad], axis=-1) for x in (feat_i, Z_i))
    xi = rng.normal((np.shape(F)[-2], nu))
    return feat_i, rd.conditional_draw(L_ii, 1.0, 1.0, U, F, Z_i, xi, scale=1.0 / nu)


def _testpoints(feat_i, U, F, S_ii, nu, rng):
    """_draw_rows at the kernel inputs (U, F) of _se_scale."""
    L_ii = np.linalg.cholesky(S_ii)
    return _draw_rows(feat_i, de.triangular_solve(L_ii, feat_i), L_ii, U, F, nu, rng)


def _prior_scale(G0, nu_prev, nu):
    """dwp_posterior_layer's prior scale K(G0)/nu at default kernel params
    and its factor."""
    S = de.elementwise("affine", se_from_gram(KernelParams(), G0, nu_prev), a=1.0 / nu)
    return S, de.cholesky_factor(S)


# -- kernel blocks from the roots of Gram blocks ------------------------------------------

def _gram_blocks(roots):
    """(G_ti, g_tt), the Gram blocks of _draw_rows' roots."""
    F_i, F_t = (r.value for r in roots)
    return F_t @ np.swapaxes(F_i, -1, -2), np.sum(F_t * F_t, axis=-1)


def test_gram_kernel_blocks_match_full_kernel():
    # the blocks from the roots F_i, F_t against the SE kernel of the whole
    # Gram G = F F^T, at nu = 1 (the first layer, on the inputs) and nu = 3,
    # for one root and for a stack of them, and for an inducing root
    # narrower than nu that the test-point draw pads with zeros
    rng = np.random.default_rng(0)
    kp = KernelParams(log_sf2=0.2, log_lengthscales=0.1)
    M, nt = 4, 3
    for nu, width, lead in [(1, 1, ()), (3, 3, ()), (1, 1, (2,)), (3, 3, (2,)), (3, 2, ()),
                            (3, 2, (2,))]:
        F_i = rng.standard_normal(lead + (M, width))
        if width < nu:
            U, F, S = _se_scale(rng, M, nt, nu)
            F_i, F_t = _testpoints(F_i, U, F, S[:M, :M], nu,
                                   rd.RngStream(1, lead[0] if lead else None))
            assert F_i.value.shape[-1] == nu and not np.any(F_i.value[..., width:])
        else:
            F_t = rng.standard_normal(lead + (nt, nu))
        F = np.concatenate([de.as_tensor(F_i).value, de.as_tensor(F_t).value], axis=-2)
        K_full = se_from_gram(kp, F @ np.swapaxes(F, -1, -2), nu).value
        K_ii, K_ti, k_tt = gram_blocks_of_roots(kp, F_i, F_t, nu)
        assert K_ii.value.shape == lead + (M, M) and K_ti.value.shape == lead + (nt, M)
        # k_tt, the signal variance, carries no sample axis
        for got, want in ((K_ii, K_full[..., :M, :M]), (K_ti, K_full[..., M:, :M]),
                          (k_tt, np.diagonal(K_full, axis1=-2, axis2=-1)[..., M:])):
            assert np.max(np.abs(got.value - want)) <= 1e-12 * np.max(np.abs(want)), (nu, lead)


def test_gram_kernel_blocks_scale_the_kernel_as_an_affine_node_does():
    # S_ii = K_ii / nu built in the kernel node is bitwise the affine of K_ii
    # that the Gram layers applied, with or without a sample axis
    rng = np.random.default_rng(2)
    kp = KernelParams(log_sf2=0.2, log_lengthscales=0.1)
    for nu, lead in [(1, ()), (3, ()), (3, (2,))]:
        F_i = rng.standard_normal(lead + (5, nu))
        K_ii = gram_kernel_blocks(kp, F_i, nu)[0]
        S_ii = gram_kernel_blocks(kp, F_i, nu, 1.0 / nu)[0]
        assert np.array_equal(S_ii.value, de.elementwise("affine", K_ii, a=1.0 / nu).value)


def test_testpoints_pad_the_solved_root_as_the_solve_of_the_padded_root():
    # L^{-1} [F, 0] = [L^{-1} F, 0]: with two or more inducing rows, the
    # draw from the solved root padded with zero columns is bitwise the
    # draw from the solve of the padded root, against one factor (trtrs)
    # and against a stack of them (their inverses)
    rng = np.random.default_rng(9)
    M, nt, nu = 3, 4, 5
    for lead in [(), (2,)]:
        U, F, S = _se_scale(rng, M, nt, nu)
        A = rng.standard_normal(lead + (M, M))
        L_ii = de.cholesky_factor(S[:M, :M] + 0.1 * A @ np.swapaxes(A, -1, -2))
        feat = np.tril(rng.standard_normal(lead + (M, M)))
        padded = np.concatenate([feat, np.zeros(lead + (M, nu - M))], axis=-1)
        draws = [_draw_rows(root, de.triangular_solve(L_ii, root), L_ii, U, F, nu,
                            rd.RngStream(4, lead[0] if lead else None))
                 for root in (feat, padded)]
        assert all(np.array_equal(a.value, b.value) for a, b in zip(*draws)), lead


def test_gram_kernel_blocks_never_need_test_test_entries():
    # the test rows' Gram entries among themselves never enter: two test
    # roots that differ only in their second row, and so in every test-test
    # entry but the first, give identical first rows of K_ti and k_tt
    rng = np.random.default_rng(1)
    kp = KernelParams(log_sf2=0.3, log_lengthscales=-0.2)
    F_i, F_t = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    F_t2 = F_t.copy()
    F_t2[1] = rng.standard_normal(4)
    _, K1, k1 = gram_blocks_of_roots(kp, F_i, F_t, 4)
    _, K2, k2 = gram_blocks_of_roots(kp, F_i, F_t2, 4)
    assert np.array_equal(K1.value[0], K2.value[0]) and k1.value[0] == k2.value[0]
    assert not np.array_equal(K1.value[1], K2.value[1])


# -- prior layers ----------------------------------------------------------------------

def test_prior_layer_moments():
    # G | G_prev ~ W(K/nu, nu): mean K, var of entries (K_ij^2 + K_ii K_jj)/nu
    rng = np.random.default_rng(2)
    nu0 = 3
    X = rng.standard_normal((4, nu0))
    G0 = X @ X.T / nu0
    kp = KernelParams(log_sf2=0.1, log_lengthscales=np.log(0.6))
    nu = 5
    K = se_from_gram(kp, G0, nu0).value
    n = 30_000
    G = dwp_prior_layer(G0, kp, nu, rd.RngStream(7, n), nu_prev=nu0)[0].value
    mean = G.mean(axis=0)
    var = G.var(axis=0)
    var_ref = (K ** 2 + np.outer(np.diag(K), np.diag(K))) / nu
    se_m = np.sqrt(var_ref / n)
    assert np.all(np.abs(mean - K) < 4 * se_m)
    assert np.max(np.abs(var - var_ref) / var_ref) < 0.1


def test_prior_layer_density_matches_wishart():
    rng = np.random.default_rng(3)
    G0 = _spd(rng, 3) / 3
    kp = KernelParams()
    G, logp, feat = dwp_prior_layer(G0, kp, 5, rd.RngStream(1), nu_prev=3)
    K = se_from_gram(kp, G0, 3).value
    assert np.isclose(logp.value,
                      wishart_log_density(G.value, K / 5, 5).value, atol=1e-10)
    assert np.allclose(feat.value @ feat.value.T, G.value)


def test_prior_layer_singular_rank():
    rng = np.random.default_rng(4)
    G0 = _spd(rng, 5) / 5
    G, _, feat = dwp_prior_layer(G0, KernelParams(), 2, rd.RngStream(2), nu_prev=5)
    assert feat.value.shape == (5, 2)
    assert np.linalg.matrix_rank(G.value) == 2


@pytest.mark.parametrize("variant", ["prior", "base", "A", "AB"])
def test_root_form_density_matches_wishart_log_density(variant):
    # each Gram layer reads log p(G) from its sampled root F (G = F F^T) and
    # the leading block's log-determinant that its sampler forms; on
    # well-conditioned samples this equals the G-based public density
    rng = np.random.default_rng(24)
    M, nu = 5, 3
    G0 = _spd(rng, M) / M
    S = se_from_gram(KernelParams(), G0, M).value / nu
    if variant == "prior":
        G, logp, _ = dwp_prior_layer(G0, KernelParams(), nu, rd.RngStream(2), nu_prev=M)
    else:
        a, b, mu, sg = standard_bartlett_params(M, nu)
        A = np.eye(M) + 0.2 * rng.standard_normal((M, M)) if variant != "base" else None
        B = (np.tril(0.2 * rng.standard_normal((nu, nu)), -1) + np.diag(np.exp(
            0.2 * rng.standard_normal(nu)))) if variant == "AB" else None
        L_mix = np.linalg.cholesky(0.7 * S + 0.3 * _spd(rng, M) / M)
        G, _, feat, ld_block = gwish_full_density(rd._gwish_sample(
            L_mix, nu, a * np.exp(0.1 * rng.standard_normal(nu)), b, mu + 0.1, sg,
            rd.RngStream(2), A, B), nu, A)
        Ls = np.linalg.cholesky(S)
        logp = rd._wishart_log_density_root(de.triangular_solve(Ls, feat), Ls, nu, ld_block)
    ref = wishart_log_density(G.value, S, nu).value
    assert abs(logp.value - ref) <= 1e-10 * abs(ref)


# -- posterior layers --------------------------------------------------------------------

def test_posterior_layer_prior_reduction():
    # q -> 0 and standard Bartlett params: q(G) = p(G), increment = 0
    rng = np.random.default_rng(5)
    M, nu = 4, 6
    G0 = _spd(rng, M) / M
    layer = _posterior(M, nu, rng=rng, q=1e-12)
    factors = _prior_scale(G0, M, nu)
    for seed in range(5):
        _, _, inc = dwp_posterior_layer(layer, *factors, rd.RngStream(seed))
        assert abs(inc.value) < 1e-8, seed


def test_posterior_layer_variant_nesting_exact():
    # A = I and B = I reduce the richer variants to the base one exactly
    rng = np.random.default_rng(6)
    M, nu = 4, 3
    G0 = _spd(rng, M) / M
    outs = []
    for variant in ("base", "A", "AB"):
        layer = _posterior(M, nu, variant=variant, rng=np.random.default_rng(6),
                           spread=0.2)
        feat, _, inc = dwp_posterior_layer(layer, *_prior_scale(G0, M, nu), rd.RngStream(11))
        outs.append((feat.value @ feat.value.T, feat.value, inc.value))
    for G, feat, inc in outs[1:]:
        assert np.allclose(G, outs[0][0], atol=1e-12)
        assert np.allclose(feat, outs[0][1], atol=1e-12)
        assert np.isclose(inc, outs[0][2], atol=1e-10)


def test_posterior_layer_increment_mean_is_negative_kl():
    rng = np.random.default_rng(7)
    M, nu = 3, 4
    G0 = _spd(rng, M) / M
    layer = _posterior(M, nu, rng=rng, q=0.4, spread=0.15)
    streams = rd.RngStream(0, 3000)
    incs = dwp_posterior_layer(layer, *_prior_scale(G0, M, nu), streams)[2].value
    # KL >= 0, so the mean increment must not be significantly positive
    assert incs.mean() < 3 * incs.std() / np.sqrt(len(incs))


def test_posterior_layer_root_consistency():
    rng = np.random.default_rng(8)
    M, nu = 4, 2
    G0 = _spd(rng, M) / M
    layer = _posterior(M, nu, rng=rng, spread=0.1)
    # the root is L T: lower-trapezoidal with a positive diagonal, so its
    # Gram has rank min(M, nu) and the density reads the leading block's
    # log-determinant from the root's diagonal
    feat, _, _ = dwp_posterior_layer(layer, *_prior_scale(G0, M, nu), rd.RngStream(3))
    assert feat.value.shape == (M, min(M, nu))
    assert not np.any(np.triu(feat.value, 1)) and np.all(np.diag(feat.value) > 0)
    assert np.linalg.matrix_rank(feat.value @ feat.value.T) == min(M, nu)


# -- conditional test-point sampling ---------------------------------------------------------

def test_conditional_testpoints_moments():
    # per-point conditional: E[F_t] = S_ti S_ii^{-1} F_i and
    # E[G_ti] = E[F_t] F_i^T exactly; E[g_tt] = nu * schur + ||mean||^2
    rng = np.random.default_rng(9)
    M, nu, nt = 4, 3, 2
    U, F, S = _se_scale(rng, M, nt, nu)
    S_ii, S_ti = S[:M, :M], S[M:, :M]
    s_tt = np.diag(S)[M:]
    feat_i = rng.standard_normal((M, nu))
    mean_ref = S_ti @ np.linalg.solve(S_ii, feat_i)
    schur = s_tt - np.sum(S_ti * np.linalg.solve(S_ii, S_ti.T).T, axis=1)
    n = 40_000
    G_ti, g_tt = _gram_blocks(_testpoints(feat_i, U, F, S_ii, nu, rd.RngStream(5, n)))
    ref_ti = mean_ref @ feat_i.T
    ref_tt = nu * schur + np.sum(mean_ref ** 2, axis=1)
    sd_ti = np.sqrt(np.outer(schur, np.sum(feat_i ** 2, axis=1)) / n)
    assert np.all(np.abs(G_ti.mean(axis=0) - ref_ti) < 4 * sd_ti + 1e-9)
    assert np.all(np.abs(g_tt.mean(axis=0) - ref_tt) < 0.05 * np.abs(ref_tt) + 0.02)


def test_conditional_testpoints_zero_pads_singular_roots():
    rng = np.random.default_rng(10)
    M, nu = 4, 6
    feat_i = rng.standard_normal((M, 4))    # rank-deficient root, ntilde < nu
    U, F, S = _se_scale(rng, M, 1, nu)
    F_i, F_t = _testpoints(feat_i, U, F, S[:M, :M], nu, rd.RngStream(0))
    assert F_i.value.shape == (M, nu) and F_t.value.shape == (1, nu)
    assert np.array_equal(F_i.value, np.pad(feat_i, ((0, 0), (0, nu - 4))))


def test_gram_layer_pads_roots_narrower_than_nu():
    # at M < nu the Bartlett root is M wide: the layer hands on the root
    # padded with zero columns to M x nu, and draws the batch rows at the
    # padded solved root, bitwise as one conditional_draw there, with and
    # without a sample axis
    rng = np.random.default_rng(14)
    M, nu, nb = 3, 5, 4
    layer = _posterior(M, nu, rng=rng, spread=0.1)
    layer.kernel_params = KernelParams(log_sf2=0.1, log_lengthscales=0.2)
    U, F = rng.standard_normal((M, 2)), rng.standard_normal((nb, 2))
    for S in (None, 2):
        U_next, F_next, _, _ = layer.sample(U, F, rd.RngStream(7, S))
        lead = () if S is None else (S,)
        assert U_next.value.shape == lead + (M, nu) and not np.any(U_next.value[..., M:])
        S_ii, ls, sf2 = gram_kernel_blocks(layer.kernel_params, U, 1, 1.0 / nu)
        L_ii = de.cholesky_factor(S_ii)
        post_rng, rows_rng, _ = rd.RngStream(7, S).split(3)
        feat, Z, _ = dwp_posterior_layer(layer, S_ii, L_ii, post_rng)
        assert np.array_equal(U_next.value[..., :M], feat.value)
        Z_pad = np.concatenate([Z.value, np.zeros(lead + (M, nu - M))], axis=-1)
        want = rd.conditional_draw(L_ii, ls, sf2, U, F, Z_pad, rows_rng.normal((nb, nu)),
                                   scale=1.0 / nu)
        assert F_next.value.shape == lead + (nb, nu)
        assert np.array_equal(F_next.value, want.value), S


def test_conditional_testpoints_degenerate_at_inducing_row():
    # a test row identical to an inducing row reproduces that row's Gram
    # entries exactly (the conditional is a point mass there)
    rng = np.random.default_rng(11)
    M, nu = 3, 3
    U, _, S = _se_scale(rng, M, 0, nu)
    feat_i = rng.standard_normal((M, nu))
    G_ti, g_tt = _gram_blocks(_testpoints(feat_i, U, U[0:1], S, nu, rd.RngStream(1)))
    G_ii = feat_i @ feat_i.T
    assert np.max(np.abs(G_ti - G_ii[0:1, :])) < 1e-4
    assert abs(g_tt[0] - G_ii[0, 0]) < 1e-4


def test_conditional_testpoints_root_rotation_invariance():
    # replacing the root F_i by F_i Q changes nothing about (G_ti, g_tt)
    # in distribution: the conditional mean rotates with the root, so
    # G_ti = F_t F_i^T has the same mean. Both roots read the same normals,
    # so each draw's difference is one paired sample of mean zero, and each
    # entry's mean difference lies within 4 of its standard errors
    rng = np.random.default_rng(12)
    M, nu, nt = 3, 3, 2
    U, F, S = _se_scale(rng, M, nt, nu)
    feat_i = rng.standard_normal((M, nu))
    Q, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
    n = 30_000
    (G1, g1), (G2, g2) = [_gram_blocks(_testpoints(root, U, F, S[:M, :M], nu,
                                                   rd.RngStream(3, n)))
                          for root in (feat_i, feat_i @ Q)]
    for a, b in ((G1, G2), (g1, g2)):
        d = a - b
        assert np.max(np.abs(d.mean(axis=0)) / (4 * d.std(axis=0) / np.sqrt(n))) < 1


# -- full ELBO ---------------------------------------------------------------------------

LOG_NOISE = np.log(0.3)


def _elbo(state, Xt, y, total_n, rng, n_samples=1, kl_scale=1.0, log_noise=LOG_NOISE):
    """The deep-Wishart ELBO as the model runs it: mc_elbo over the layer
    loop, state being (layers, inducing inputs)."""
    return mc_elbo(*forward(*state, Xt, rd.RngStream(rng.seed, n_samples)), y, total_n,
                   log_noise, kl_scale)


def _small_state(rng, M=4, nu=3, depth=1, variant="base", D=2):
    """(layers, inducing inputs): depth Gram layers, each reading the one
    before (the first the inputs), and the output layer."""
    Xi = rng.standard_normal((M, D))
    layers = []
    for i in range(depth):
        layers.append(_posterior(M, nu, variant=variant,
                                 rng=np.random.default_rng(0), spread=0.1))
        layers[-1].kernel_params = KernelParams(log_sf2=0.1, log_lengthscales=0.2)
        layers[-1].nu_in = nu if i else 1
    final = DwpOutputLayer(V=rng.standard_normal((M, 1)), log_lambda=np.zeros(M),
                           nu_in=nu if depth else 1)
    return layers + [final], Xi


def test_elbo_rotation_invariance_of_inducing_inputs():
    rng = np.random.default_rng(13)
    state = _small_state(rng)
    Xt = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    e1 = _elbo(state, Xt, y, total_n=3, rng=rd.RngStream(21)).value
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    layers, Xi = state
    e2 = _elbo((layers, Xi @ Q), Xt @ Q, y, total_n=3, rng=rd.RngStream(21)).value
    assert np.isclose(e1, e2, atol=1e-10)


def test_elbo_variant_nesting_exact_under_same_seed():
    rng = np.random.default_rng(14)
    Xt = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    vals = []
    for variant in ("base", "A", "AB"):
        state = _small_state(np.random.default_rng(14), variant=variant)
        vals.append(_elbo(state, Xt, y, total_n=3, rng=rd.RngStream(33)).value)
    assert np.isclose(vals[0], vals[1], atol=1e-10)
    assert np.isclose(vals[0], vals[2], atol=1e-10)


def test_elbo_multi_sample_average():
    rng = np.random.default_rng(16)
    state = _small_state(rng)
    Xt = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    e = _elbo(state, Xt, y, total_n=6, rng=rd.RngStream(9), n_samples=3, kl_scale=0.7)
    # each term is the per-sample forward reading its row of each draw
    s2 = np.exp(LOG_NOISE)
    terms = []
    for st in sample_rows(9, 3):
        F, inc = forward(*state, Xt, st)
        ll = rd.normal_log_density(y, F.value[:, 0], s2).value.sum()
        terms.append(ll * 6 / 3 + 0.7 * inc.value)
    assert np.ptp(terms) > 0
    assert abs(e.value - np.mean(terms)) <= 1e-12


def test_elbo_gradients_excluding_gamma_shape():
    # finite differences are invalid through the gamma sampler's shape
    # parameter; every other parameter must pass
    rng = np.random.default_rng(17)
    M, nu, D = 3, 2, 2
    Xi = rng.standard_normal((M, D))
    Xt = rng.standard_normal((2, D))
    y = rng.standard_normal(2)
    nt = min(M, nu)
    a0, b0, mu0, sg0 = standard_bartlett_params(M, nu)
    def fn(ps):
        layer = GWishLayerPosterior(
            V=ps["V"], logit_q=ps["lq"], nu=nu,
            log_alpha=np.log(a0), log_beta=ps["lb"], mu=ps["mu"],
            log_sigma=ps["ls"], A_packed=ps["P"], B_packed=ps["B"],
            kernel_params=KernelParams(log_sf2=ps["lsf"], log_lengthscales=ps["lls"]))
        final = DwpOutputLayer(V=ps["Vf"], log_lambda=ps["llf"], nu_in=nu)
        return _elbo(([layer, final], ps["Xi"]), Xt, y, total_n=2, rng=rd.RngStream(41), log_noise=ps["ln"])
    rep = de.finite_diff_check(fn, {
        "V": np.linalg.cholesky(_spd(rng, M)) / M, "lq": np.asarray(-1.5),
        "lb": np.log(b0), "mu": mu0 + 0.1 * rng.standard_normal((M, nt)),
        "ls": np.log(sg0), "P": np.eye(M) + 0.05 * rng.standard_normal((M, M)),
        "B": 0.05 * rng.standard_normal((nt, nt)),
        "Vf": rng.standard_normal((M, 1)), "llf": np.zeros(M),
        "Xi": Xi, "lsf": np.asarray(0.1), "lls": np.asarray(0.2),
        "ln": np.asarray(-1.0)})
    assert rep["passed"], rep


def test_elbo_two_gram_layers_runs_and_is_finite():
    rng = np.random.default_rng(18)
    state = _small_state(rng, depth=2)
    Xt = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    e = _elbo(state, Xt, y, total_n=3, rng=rd.RngStream(1))
    assert np.isfinite(e.value)


# -- inducing extension -----------------------------------------------------------------

def test_extension_trivial_when_posterior_equals_prior():
    rng = np.random.default_rng(19)
    S = _spd(rng, 4)
    x, a, cert = wishart_inducing_extension(S[:3, :3], S[:3, 3], S[3, 3],
                                            S[:3, :3])
    assert np.allclose(x, S[:3, 3])
    assert np.isclose(a, S[3, 3])
    assert cert["weights_residual"] < 1e-10
    assert cert["schur_residual"] < 1e-10
    assert cert["iw_residual"] < 1e-10


def test_extension_certificate_zero_residuals():
    rng = np.random.default_rng(20)
    for trial in range(20):
        S = _spd(rng, 5)
        Psi = _spd(rng, 4)
        x, a, cert = wishart_inducing_extension(S[:4, :4], S[:4, 4], S[4, 4], Psi)
        assert cert["weights_residual"] < 1e-8, trial
        assert cert["schur_residual"] < 1e-8, trial


def test_extension_schur_complement_reproduces_prior():
    # the extended scale's conditional Schur complement equals the prior's
    rng = np.random.default_rng(21)
    S = _spd(rng, 4)
    Psi = _spd(rng, 3)
    x, a, _ = wishart_inducing_extension(S[:3, :3], S[:3, 3], S[3, 3], Psi)
    sol = np.linalg.solve(S[:3, :3], S[:3, 3])
    prior_schur = S[3, 3] - S[:3, 3] @ sol
    assert np.isclose(a - x @ np.linalg.solve(Psi, x), prior_schur)


def test_extension_inverse_wishart_residual_positive_when_scales_differ():
    rng = np.random.default_rng(22)
    S = _spd(rng, 4)
    Psi = _spd(rng, 3)
    _, _, cert = wishart_inducing_extension(S[:3, :3], S[:3, 3], S[3, 3], Psi)
    assert cert["iw_residual"] > 1e-6
