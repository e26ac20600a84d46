import numpy as np
import pytest

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.deep_models import GiDgpLayer, mc_elbo
from deepbayes.dwp import (DwpState, GWishLayerPosterior, dwp_conditional_testpoints,
                           dwp_forward, dwp_posterior_layer, gram_kernel_blocks,
                           standard_bartlett_params)
from deepbayes.kernels import KernelParams

from oracles import (dwp_prior_layer, gwish_full_density, sample_rows, se_from_gram,
                     wishart_inducing_extension, wishart_log_density)


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


def _prior_scale(G0, nu_prev, nu):
    """dwp_posterior_layer's prior scale K(G0)/nu at default kernel params
    and its factor."""
    S = de.elementwise("affine", se_from_gram(KernelParams(), G0, nu_prev), a=1.0 / nu)
    return S, de.cholesky_factor(S)


# -- kernel blocks from Gram blocks ------------------------------------------------

def test_gram_kernel_blocks_match_full_kernel():
    rng = np.random.default_rng(0)
    nu = 3
    F = rng.standard_normal((7, nu))
    G = F @ F.T / nu
    kp = KernelParams(log_sf2=0.2, log_lengthscales=0.1)
    K_full = se_from_gram(kp, G, nu).value
    i, t = [0, 1, 2, 3], [4, 5, 6]
    K_ii, K_ti, k_tt = gram_kernel_blocks(
        kp, G[np.ix_(i, i)], G[np.ix_(t, i)], np.diag(G)[t], nu)
    assert np.allclose(K_ii.value, K_full[np.ix_(i, i)], atol=1e-12)
    assert np.allclose(K_ti.value, K_full[np.ix_(t, i)], atol=1e-12)
    assert np.allclose(k_tt.value, np.diag(K_full)[t], atol=1e-12)


def test_gram_kernel_blocks_never_need_test_test_entries():
    # two Gram-completions that differ only in the test-test off-diagonal
    # entries must give identical blocks
    rng = np.random.default_rng(1)
    kp = KernelParams()
    G_ii = _spd(rng, 3)
    G_ti = rng.standard_normal((2, 3))
    g_tt = np.abs(rng.standard_normal(2)) + 1.0
    out1 = gram_kernel_blocks(kp, G_ii, G_ti, g_tt, 4)
    out2 = gram_kernel_blocks(kp, G_ii, G_ti, g_tt, 4)
    for a, b in zip(out1, out2):
        assert np.array_equal(a.value, b.value)


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
        logp = rd._wishart_log_density_root(feat, np.linalg.cholesky(S), nu, ld_block)
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
        G, feat, inc = dwp_posterior_layer(layer, *_prior_scale(G0, M, nu), rd.RngStream(11))
        outs.append((G.value, feat.value, inc.value))
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
    G, feat, _ = dwp_posterior_layer(layer, *_prior_scale(G0, M, nu), rd.RngStream(3))
    assert feat.value.shape == (M, min(M, nu))
    assert np.allclose(feat.value @ feat.value.T, G.value, atol=1e-12)


# -- conditional test-point sampling ---------------------------------------------------------

def test_conditional_testpoints_moments():
    # per-point conditional: E[F_t] = S_ti S_ii^{-1} F_i and
    # E[G_ti] = E[F_t] F_i^T exactly; E[g_tt] = nu * schur + ||mean||^2
    rng = np.random.default_rng(9)
    M, nu, nt = 4, 3, 2
    S = _spd(rng, M + nt) / (M + nt)
    S_ii, S_ti = S[:M, :M], S[M:, :M]
    s_tt = np.diag(S)[M:]
    feat_i = rng.standard_normal((M, nu))
    mean_ref = S_ti @ np.linalg.solve(S_ii, feat_i)
    schur = s_tt - np.sum(S_ti * np.linalg.solve(S_ii, S_ti.T).T, axis=1)
    n = 40_000
    G_ti, g_tt = dwp_conditional_testpoints(feat_i, np.linalg.cholesky(S_ii), S_ti, s_tt, nu,
                                            rd.RngStream(5, n))
    ref_ti = mean_ref @ feat_i.T
    ref_tt = nu * schur + np.sum(mean_ref ** 2, axis=1)
    sd_ti = np.sqrt(np.outer(schur, np.sum(feat_i ** 2, axis=1)) / n)
    assert np.all(np.abs(G_ti.value.mean(axis=0) - ref_ti) < 4 * sd_ti + 1e-9)
    assert np.all(np.abs(g_tt.value.mean(axis=0) - ref_tt) < 0.05 * np.abs(ref_tt) + 0.02)


def test_conditional_testpoints_zero_pads_singular_roots():
    rng = np.random.default_rng(10)
    M, nu = 4, 6
    feat_i = rng.standard_normal((M, 4))    # rank-deficient root, ntilde < nu
    S = _spd(rng, M + 1) / (M + 1)
    L_ii = np.linalg.cholesky(S[:M, :M])
    G_ti, g_tt = dwp_conditional_testpoints(feat_i, L_ii, S[M:, :M], np.diag(S)[M:], nu,
                                            rd.RngStream(0))
    assert G_ti.value.shape == (1, M) and g_tt.value.shape == (1,)
    with pytest.raises(ValueError):
        dwp_conditional_testpoints(rng.standard_normal((M, 7)), L_ii, S[M:, :M], np.diag(S)[M:],
                                   6, rd.RngStream(0))


def test_conditional_testpoints_degenerate_at_inducing_row():
    # a test row identical to an inducing row reproduces that row's Gram
    # entries exactly (the conditional is a point mass there)
    rng = np.random.default_rng(11)
    M, nu = 3, 3
    S_ii = _spd(rng, M) / M
    feat_i = rng.standard_normal((M, nu))
    G_ti, g_tt = dwp_conditional_testpoints(feat_i, np.linalg.cholesky(S_ii), S_ii[0:1, :],
                                            np.array([S_ii[0, 0]]), nu, rd.RngStream(1))
    G_ii = feat_i @ feat_i.T
    assert np.max(np.abs(G_ti.value - G_ii[0:1, :])) < 1e-4
    assert abs(g_tt.value[0] - G_ii[0, 0]) < 1e-4


def test_conditional_testpoints_root_rotation_invariance():
    # replacing the root F_i by F_i Q changes nothing about (G_ti, g_tt)
    # in distribution: the conditional mean rotates with the root, so
    # G_ti = F_t F_i^T has the same mean. Both roots read the same normals,
    # so each draw's difference is one paired sample of mean zero, and each
    # entry's mean difference lies within 4 of its standard errors
    rng = np.random.default_rng(12)
    M, nu, nt = 3, 3, 2
    S = _spd(rng, M + nt) / (M + nt)
    feat_i = rng.standard_normal((M, nu))
    Q, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
    n = 30_000
    L_ii = np.linalg.cholesky(S[:M, :M])
    (G1, g1), (G2, g2) = [dwp_conditional_testpoints(root, L_ii, S[M:, :M], np.diag(S)[M:], nu,
                                                     rd.RngStream(3, n))
                          for root in (feat_i, feat_i @ Q)]
    for a, b in ((G1, G2), (g1, g2)):
        d = a.value - b.value
        assert np.max(np.abs(d.mean(axis=0)) / (4 * d.std(axis=0) / np.sqrt(n))) < 1


# -- full ELBO ---------------------------------------------------------------------------

LOG_NOISE = np.log(0.3)


def _elbo(state, Xt, y, total_n, rng, n_samples=1, kl_scale=1.0, log_noise=LOG_NOISE):
    """The deep-Wishart ELBO as the model runs it: mc_elbo over dwp_forward."""
    return mc_elbo(lambda st: dwp_forward(state, Xt, st), y, total_n, n_samples, rng,
                   log_noise, kl_scale)


def _small_state(rng, M=4, nu=3, depth=1, variant="base", nu0=2):
    Xi = rng.standard_normal((M, nu0))
    layers = []
    for _ in range(depth):
        layers.append(_posterior(M, nu, variant=variant,
                                 rng=np.random.default_rng(0), spread=0.1))
        layers[-1].kernel_params = KernelParams(log_sf2=0.1, log_lengthscales=0.2)
    final = GiDgpLayer(V=rng.standard_normal((M, 1)), log_lambda=np.zeros(M))
    return DwpState(inducing_inputs=Xi, layers=layers, final_layer=final, nu0=nu0)


def test_elbo_rotation_invariance_of_inducing_inputs():
    rng = np.random.default_rng(13)
    state = _small_state(rng)
    Xt = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    e1 = _elbo(state, Xt, y, total_n=3, rng=rd.RngStream(21)).value
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    state.inducing_inputs = state.inducing_inputs @ Q
    e2 = _elbo(state, Xt @ Q, y, total_n=3, rng=rd.RngStream(21)).value
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
        F, inc = dwp_forward(state, Xt, st)
        ll = rd.normal_log_density(y, F.value[:, 0], s2).value.sum()
        terms.append(ll * 6 / 3 + 0.7 * inc.value)
    assert np.ptp(terms) > 0
    assert abs(e.value - np.mean(terms)) <= 1e-12


def test_elbo_gradients_excluding_gamma_shape():
    # finite differences are invalid through the gamma sampler's shape
    # parameter; every other parameter must pass
    rng = np.random.default_rng(17)
    M, nu, nu0 = 3, 2, 2
    Xi = rng.standard_normal((M, nu0))
    Xt = rng.standard_normal((2, nu0))
    y = rng.standard_normal(2)
    nt = min(M, nu)
    a0, b0, mu0, sg0 = standard_bartlett_params(M, nu)
    def fn(ps):
        layer = GWishLayerPosterior(
            V=ps["V"], logit_q=ps["lq"], nu=nu,
            log_alpha=np.log(a0), log_beta=ps["lb"], mu=ps["mu"],
            log_sigma=ps["ls"], A_packed=ps["P"], B_packed=ps["B"],
            kernel_params=KernelParams(log_sf2=ps["lsf"], log_lengthscales=ps["lls"]))
        final = GiDgpLayer(V=ps["Vf"], log_lambda=ps["llf"])
        state = DwpState(inducing_inputs=ps["Xi"], layers=[layer], final_layer=final, nu0=nu0)
        return _elbo(state, Xt, y, total_n=2, rng=rd.RngStream(41), log_noise=ps["ln"])
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
