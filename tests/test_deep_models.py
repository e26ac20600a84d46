import numpy as np
import pytest
import scipy.stats as sps
from scipy.linalg import solve_triangular

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.bench_cli import Dataset
from deepbayes.deep_models import (DsviDgpLayer, FacBnnLayer, GiBnnLayer,
                                   GiDgpLayer, PriorSpec, _gi_bnn_root, _gi_draw,
                                   forward, mc_elbo, scale_prior_terms)
from deepbayes.gp_models import GpState, SvgpState, gp_predict_lml, svgp_elbo
from deepbayes.kernels import KernelParams, se_ard_features
from deepbayes.models import DgpModel

from fingerprint import synthetic_200
from oracles import bnn_as_dgp_gram, mvn_log_density, sample_rows


def _chol(S):
    return np.linalg.cholesky(S)


def _with_bias(U):
    """psi(U) of a first layer: U with a column of ones appended."""
    return np.column_stack([U, np.ones(len(U))])


# -- priors -----------------------------------------------------------------------

def test_prior_variants_precision():
    from deepbayes.deep_models import _prior_precision_scalar
    assert _prior_precision_scalar(PriorSpec("standard"), 5).value == 1.0
    assert _prior_precision_scalar(PriorSpec("neal"), 5).value == 5.0
    # scale prior with s = 1 coincides with the unit-variance prior scaled by fanin
    got = _prior_precision_scalar(PriorSpec("scale"), 5, s=np.asarray(1.0))
    assert got.value == 5.0


def test_prior_rejects_unknown_variant():
    with pytest.raises(ValueError):
        PriorSpec("bogus")


def test_scale_prior_matched_posterior_has_zero_kl():
    s, kl = scale_prior_terms(PriorSpec("scale"), rd.RngStream(0))
    assert abs(kl.value) < 1e-12
    assert s.value > 0


def test_scale_prior_offsets_shift_posterior():
    p = PriorSpec("scale", alpha_off=1.0, beta_off=0.5)
    _, kl = scale_prior_terms(p, rd.RngStream(1))
    ref = rd.kl_gamma((np.asarray(3.0), np.asarray(2.5)),
                      (np.asarray(2.0), np.asarray(2.0))).value
    assert np.isclose(kl.value, ref)
    with pytest.raises(ValueError):
        scale_prior_terms(PriorSpec("scale", alpha_off=-1.0), rd.RngStream(0))


def test_nonscale_prior_contributes_nothing():
    s, kl = scale_prior_terms(PriorSpec("neal"), rd.RngStream(0))
    assert s.value == 1.0 and kl.value == 0.0


# -- global-inducing BNN layers -------------------------------------------------------

def test_gi_layer_vanishing_precision_recovers_prior():
    # Lambda -> 0: posterior reverts to the prior, so logp - logq -> 0
    rng = np.random.default_rng(0)
    U = rng.standard_normal((4, 2))
    layer = GiBnnLayer(V=rng.standard_normal((4, 2)),
                       log_lambda=np.full(4, -40.0))
    _, _, inc, _ = layer.sample(U, U, rd.RngStream(3))
    assert abs(inc.value) < 1e-10


def test_gi_layer_posterior_matches_ridge_regression():
    # the conditional posterior over weights is exactly Bayesian linear
    # regression of V on psi_U with per-row precisions Lambda
    rng = np.random.default_rng(1)
    M, d = 6, 3
    U = rng.standard_normal((M, d - 1))
    psi_U = _with_bias(U)
    V = rng.standard_normal((M, 1))
    log_lam = rng.standard_normal(M) * 0.5
    layer = GiBnnLayer(V=V, log_lambda=log_lam, prior=PriorSpec("neal"))
    lam = np.exp(log_lam)
    prec = d * np.eye(d) + psi_U.T @ (lam[:, None] * psi_U)
    S_ref = np.linalg.inv(prec)
    mean_ref = S_ref @ psi_U.T @ (lam * V[:, 0])
    # recover the implied posterior from 2000 draws, made in one call
    draws = layer._weights(U, d, None, rd.RngStream(1, 2000), False)[0].value[..., 0]
    se = np.sqrt(np.diag(S_ref) / len(draws))
    assert np.all(np.abs(draws.mean(0) - mean_ref) < 4 * se)
    assert np.max(np.abs(np.cov(draws.T) - S_ref)) < 0.15 * np.max(np.abs(S_ref))


def test_gi_layer_propagates_inducing_outputs():
    rng = np.random.default_rng(2)
    U = rng.standard_normal((4, 2))
    layer = GiBnnLayer(V=rng.standard_normal((4, 2)), log_lambda=np.zeros(4))
    W, _, U_next = layer._weights(U, 3, None, rd.RngStream(0), False)
    assert np.allclose(U_next.value, _with_bias(U) @ W.value)


def test_fac_layer_matched_to_prior_has_zero_increment():
    # q = p exactly: logp - logq = 0 for every draw
    d, width = 3, 2
    prior = PriorSpec("neal")
    layer = FacBnnLayer(mean_scaled=np.zeros((d, width)),
                        log_std=np.full((d, width), -0.5 * np.log(d)),
                        scale=1.0, prior=prior)
    _, _, inc, _ = layer.sample(None, np.ones((2, d - 1)), rd.RngStream(5))
    assert abs(inc.value) < 1e-12


def test_fac_layer_fanin_mismatch():
    layer = FacBnnLayer(mean_scaled=np.zeros((3, 1)), log_std=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        layer.sample(None, np.ones((2, 3)), rd.RngStream(0))      # fan-in 4 with the bias


# -- BNN ELBO ---------------------------------------------------------------------------

def test_bnn_elbo_zero_layers_is_average_log_likelihood():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(5)
    X1 = rng.standard_normal((5, 1))
    got = mc_elbo(lambda st: forward([], None, X1, st), y, 5, 3, rd.RngStream(0), np.log(0.5))
    ref = rd.normal_log_density(y, X1[:, 0], np.asarray(0.5)).value.sum()
    assert np.isclose(got.value, ref)


def test_bnn_elbo_matched_factorised_posterior_equals_prior_expectation():
    # q(W) = p(W): every Monte-Carlo term is exactly the data fit
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    prior = PriorSpec("neal")
    d0 = 3  # 2 inputs + bias
    layer = FacBnnLayer(mean_scaled=np.zeros((d0, 1)),
                        log_std=np.full((d0, 1), -0.5 * np.log(d0)),
                        prior=prior)
    e1 = mc_elbo(lambda st: forward([layer], None, X, st), y, 6, 4, rd.RngStream(7), 0.0)
    # the value is the average prior-sample log likelihood: each term is the
    # per-sample forward reading its row of each draw, with zero increment
    lls = []
    for st in sample_rows(7, 4):
        F, inc = forward([layer], None, X, st)
        assert abs(inc.value) <= 1e-12
        lls.append(rd.normal_log_density(y, F.value[:, 0], np.asarray(1.0)).value.sum())
    assert np.ptp(lls) > 0
    assert abs(e1.value - np.mean(lls)) <= 1e-12
    # kl scaling cannot change the value
    e2 = mc_elbo(lambda st: forward([layer], None, X, st), y, 6, 4, rd.RngStream(7), 0.0,
                 kl_scale=0.0)
    assert np.isclose(e1.value, e2.value, atol=1e-10)


def test_bnn_elbo_minibatch_partition_recovers_full_batch_data_term():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 1))
    y = rng.standard_normal(8)
    layer = FacBnnLayer(mean_scaled=rng.standard_normal((2, 1)) * 0.3,
                        log_std=np.full((2, 1), -1.0), prior=PriorSpec("neal"))
    # same weight draw via the same seed: scaled batch terms average to the full
    def elbo(Xb, yb):
        return mc_elbo(lambda st: forward([layer], None, Xb, st), yb, 8, 1, rd.RngStream(9), 0.0)
    full = elbo(X, y)
    parts = [elbo(X[i:i + 4], y[i:i + 4]) for i in (0, 4)]
    assert np.isclose(np.mean([p.value for p in parts]), full.value, atol=1e-9)


def test_bnn_elbo_gi_requires_inducing_inputs():
    layer = GiBnnLayer(V=np.zeros((3, 1)), log_lambda=np.zeros(3))
    with pytest.raises(ValueError):
        mc_elbo(lambda st: forward([layer], None, np.zeros((2, 1)), st), np.zeros(2), 2, 1,
                rd.RngStream(0), 0.0)


def test_bnn_elbo_stays_below_analytic_lml_linear_model():
    # depth-1 linear BNN == Bayesian linear regression; the stochastic bound
    # must stay below the exact marginal likelihood on average
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 1))
    y = (0.7 * X[:, 0] + 0.1 * rng.standard_normal(10))
    d0 = 2  # input + bias
    prior = PriorSpec("neal")
    layer = FacBnnLayer(mean_scaled=rng.standard_normal((d0, 1)) * 0.2,
                        log_std=np.full((d0, 1), -1.2), prior=prior)
    vals = [mc_elbo(lambda st: forward([layer], None, X, st), y, 10, 1,
                    rd.RngStream(1000 + k), np.log(0.25)).value
            for k in range(300)]
    # exact marginal: weights ~ N(0, I/d0), features (x, 1)
    phi = np.concatenate([X, np.ones((10, 1))], axis=1)
    cov = phi @ phi.T / d0 + 0.25 * np.eye(10)
    lml = mvn_log_density(y, np.zeros(10), cov=cov).value
    m, s = np.mean(vals), np.std(vals) / np.sqrt(len(vals))
    assert m < lml + 3 * s


def test_bnn_elbo_gradients():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 1))
    y = rng.standard_normal(5)
    U0 = rng.standard_normal((3, 1))
    def fn(ps):
        layers = [GiBnnLayer(V=ps["V0"], log_lambda=ps["ll0"],
                             prior=PriorSpec("neal")),
                  GiBnnLayer(V=ps["V1"], log_lambda=ps["ll1"],
                             prior=PriorSpec("neal"))]
        return mc_elbo(lambda st: forward(layers, ps["U0"], X, st),
                       y, 5, 2, rd.RngStream(11), ps["ln"])
    rep = de.finite_diff_check(fn, {
        "V0": rng.standard_normal((3, 2)), "ll0": rng.standard_normal(3) * 0.3,
        "V1": rng.standard_normal((3, 1)), "ll1": rng.standard_normal(3) * 0.3,
        "U0": U0, "ln": np.asarray(-1.0)})
    assert rep["passed"], rep


def test_gi_linear_last_layer_on_fixed_features_is_blr():
    # single linear layer (layer index 0 passes inputs through): with
    # Lambda -> infinity the sample pins to the ridge mean; compare the
    # posterior mean/cov against Bayesian linear regression directly
    rng = np.random.default_rng(8)
    M, d = 8, 3
    U = rng.standard_normal((M, d - 1))
    psi_U = _with_bias(U)
    V = rng.standard_normal((M, 1))
    noise = 0.3
    layer = GiBnnLayer(V=V, log_lambda=np.full(M, -np.log(noise)),
                       prior=PriorSpec("neal"))
    draws = np.stack([layer._weights(U, d, None, rd.RngStream(s), True)[0].value[:, 0]
                      for s in range(4000)])
    prec = d * np.eye(d) + psi_U.T @ psi_U / noise
    S_ref = np.linalg.inv(prec)
    m_ref = S_ref @ psi_U.T @ V[:, 0] / noise
    se = np.sqrt(np.diag(S_ref) / draws.shape[0])
    assert np.all(np.abs(draws.mean(0) - m_ref) < 4 * se)


# -- global-inducing DGP layers ----------------------------------------------------------

def test_gi_dgp_vanishing_precision_recovers_prior():
    rng = np.random.default_rng(9)
    U_prev = rng.standard_normal((5, 1))
    F_prev = rng.standard_normal((4, 1))
    layer = GiDgpLayer(V=rng.standard_normal((5, 1)), log_lambda=np.full(5, -40.0),
                       kernel_params=KernelParams())
    _, _, inc, _ = layer.sample(U_prev, F_prev, rd.RngStream(2))
    assert abs(inc.value) < 1e-10


def test_gi_dgp_large_precision_pins_inducing_outputs():
    rng = np.random.default_rng(10)
    U_prev = rng.standard_normal((5, 1))
    V = rng.standard_normal((5, 1))
    layer = GiDgpLayer(V=V, log_lambda=np.full(5, 30.0),
                       kernel_params=KernelParams())
    U, _, _, _ = layer.sample(U_prev, rng.standard_normal((3, 1)), rd.RngStream(3))
    assert np.max(np.abs(U.value - V)) < 1e-5


def test_gi_dgp_identity_mean_function():
    rng = np.random.default_rng(11)
    U_prev = rng.standard_normal((4, 1))
    F_prev = rng.standard_normal((3, 1))
    layer = GiDgpLayer(V=np.zeros((4, 1)), log_lambda=np.full(4, 30.0),
                       kernel_params=KernelParams(),
                       mean_function="identity")
    U, F, _, _ = layer.sample(U_prev, F_prev, rd.RngStream(4))
    # inducing outputs pinned to V = 0, so the identity mean leaves U = U_prev
    assert np.max(np.abs(U.value - U_prev)) < 1e-5


def test_gi_dgp_batch_outputs_follow_posterior_gp_mean():
    # with observations pinned at the inducing points (huge Lambda, V = targets)
    # the batch outputs are draws around the noise-free GP posterior mean
    rng = np.random.default_rng(12)
    U_prev = np.linspace(-2, 2, 7).reshape(-1, 1)
    V = np.sin(U_prev)
    F_prev = np.array([[0.3], [-1.1]])
    layer = GiDgpLayer(V=V, log_lambda=np.full(7, 30.0),
                       kernel_params=KernelParams())
    streams = rd.RngStream(0, 4000)
    draws = layer.sample(U_prev, F_prev, streams)[1].value[..., 0]
    gp = GpState(log_noise=-60.0)
    mean, var, _ = gp_predict_lml(gp, U_prev, V[:, 0], X_star=F_prev)
    se = np.sqrt(np.maximum(var.value, 1e-12) / draws.shape[0]) + 1e-4
    assert np.all(np.abs(draws.mean(0) - mean.value) < 5 * se)


def test_gi_dgp_increment_has_nonpositive_mean():
    # E_q[logp - logq] = -KL(q || p) <= 0
    rng = np.random.default_rng(13)
    U_prev = rng.standard_normal((4, 1))
    layer = GiDgpLayer(V=rng.standard_normal((4, 1)), log_lambda=np.zeros(4),
                       kernel_params=KernelParams())
    # 3000 draws in one call, each at inputs of its own
    incs = layer.sample(U_prev, rng.standard_normal((3000, 2, 1)),
                        rd.RngStream(13, 3000))[2].value
    assert incs.mean() < 3 * incs.std() / np.sqrt(len(incs))


@pytest.mark.parametrize("root", ["scalar", "scalar per sample", "single factor",
                                  "stacked factors"])
def test_gi_increment_is_the_log_density_ratio_at_the_draw(root):
    # the four roots the GI core serves: a BNN layer's (1, 1) root (prior:
    # neal) or (S, 1, 1) one (prior: scale) with A = psi_U, and chol(K_uu)
    # of a DGP's first layer or stacked one per sample (deeper layers) with
    # A = I. The increment is sum_cols log N(x; 0, L L^T) - log N(x; Mean, Cov)
    # at the drawn X, Cov = L (I + B^T Lambda B)^{-1} L^T with B = A L and
    # Mean = Cov A^T Lambda V, all formed in numpy
    rng = np.random.default_rng(21)
    S, M, d, w = 3, 6, 4, 2
    log_lam = 0.5 * rng.standard_normal(M)
    V = rng.standard_normal((M, w))
    if root.startswith("scalar"):
        A = rng.standard_normal((M, d))
        prior, s = ((PriorSpec("neal"), None) if root == "scalar" else
                    (PriorSpec("scale"), rng.gamma(2.0, 0.5, (S, 1, 1))))
        L = _gi_bnn_root(prior, d, s)
        LinvX, inc = _gi_draw(L, A, log_lam, V, rd.RngStream(4, S))
        X = de.mul(L, LinvX)        # the weights, as GiBnnLayer forms them
        roots = np.broadcast_to(L.value, (S, 1, 1)) * np.eye(d)
    else:
        G = rng.standard_normal((S if root == "stacked factors" else 1, M, M))
        K = G @ np.swapaxes(G, -1, -2) / M + np.eye(M)     # well-conditioned K_uu
        L = de.cholesky_factor(K if root == "stacked factors" else K[0])
        LinvX, inc = _gi_draw(L, None, log_lam, V, rd.RngStream(4, S))
        X = de.matmul(L, LinvX)     # the inducing outputs, as a GI deep-GP layer forms them
        A, roots = np.eye(M), np.broadcast_to(L.value, (S, M, M))
    lam = np.exp(log_lam)
    for i, Li in enumerate(roots):
        B = A @ Li
        cov = Li @ np.linalg.inv(np.eye(len(Li)) + B.T @ (lam[:, None] * B)) @ Li.T
        cov = 0.5 * (cov + cov.T)
        mean = cov @ A.T @ (lam[:, None] * V)
        want = sum(mvn_log_density(x, np.zeros(len(x)), Li @ Li.T).value
                   - mvn_log_density(x, m, cov).value
                   for x, m in zip(X.value[i].T, mean.T))
        assert abs(inc.value[i] - want) <= 1e-10 * abs(want)
        np.testing.assert_allclose(LinvX.value[i], solve_triangular(Li, X.value[i], lower=True),
                                   rtol=1e-10, atol=1e-12)


def test_gi_dgp_at_its_exact_optimum_reads_the_exact_lml():
    # a depth-1 GI deep GP with Z = X, pseudo-observations V = y and
    # precisions 1/s2 has the exact posterior as q(u), and f = u at the
    # inputs, so each sample's log p(y | f) + log p(u) - log q(u) is the
    # exact log marginal likelihood; conditional_sample's 1e-12 variance
    # floor leaves a gap of order 1e-5 nats
    full, n, s2 = synthetic_200(0), 30, 0.1
    ds = Dataset(X_train=full.X_train[:n], y_train=full.y_train[:n],
                 X_test=full.X_test, y_test=full.y_test)
    model = DgpModel(ds, posterior="gi", depth=1, M=n)
    p = model.init_params()
    p.update(V0=ds.y_train[:, None].copy(), lam0=np.full(n, -np.log(s2)),
             log_noise_s=np.asarray(np.log(s2) / 10))
    gp = GpState(kernel_params=KernelParams(log_sf2=p["log_sf2_0"],
                                            log_lengthscales=p["log_ls_0"]),
                 log_noise=np.log(s2))
    lml = gp_predict_lml(gp, ds.X_train, ds.y_train)[2].value

    def objective(params, seed):
        return model.objective(params, ds.X_train, ds.y_train, n, 1, rd.RngStream(seed),
                               1.0).value

    assert max(abs(objective(p, seed) - lml) for seed in range(20)) < 1e-4
    # away from the optimum the bound is strictly below the LML
    assert objective(dict(p, V0=0.5 * p["V0"]), 0) < lml - 1.0


# -- doubly-stochastic DGP layers -----------------------------------------------------------

def test_dsvi_prior_matched_posterior_zero_kl_and_prior_marginals():
    rng = np.random.default_rng(14)
    Z = rng.standard_normal((4, 1))
    kp = KernelParams(log_sf2=0.2, log_lengthscales=0.1)
    Kzz = se_ard_features(kp, Z).value
    layer = DsviDgpLayer(Z=Z, m=np.zeros((4, 1)),
                         S_chol=_chol(Kzz + 1e-10 * np.eye(4))[None, :, :],
                         kernel_params=kp)
    F = rng.standard_normal((5, 1))
    means, vars_, inc = layer.marginals(F)
    assert abs(inc.value) < 1e-6
    # marginals reduce to the prior: mean 0, variance = kernel diagonal
    kdiag = np.diag(se_ard_features(kp, F).value)
    assert np.allclose(means.value[0], 0.0, atol=1e-10)
    assert np.allclose(vars_.value[0], kdiag, atol=1e-6)


def test_dsvi_depth_one_elbo_equals_sparse_gp_bound():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((8, 1))
    y = np.sin(X[:, 0])
    Z = rng.standard_normal((4, 1))
    m = rng.standard_normal((4, 1))
    A = rng.standard_normal((4, 4))
    S = A @ A.T + 4 * np.eye(4)
    kp = KernelParams(log_sf2=0.1, log_lengthscales=0.2)
    layer = DsviDgpLayer(Z=Z, m=m, S_chol=_chol(S)[None, :, :],
                         kernel_params=kp)
    means, vars_, inc = layer.marginals(X)
    s2 = 0.3
    ell = rd.normal_log_density(y, means.value[0], np.asarray(s2)).value.sum() \
        - vars_.value[0].sum() / (2 * s2)
    elbo_dgp = ell + inc.value          # the increment is -KL
    svgp = SvgpState(Z=Z, m=m[:, 0], S_chol=_chol(S), kernel_params=kp,
                     log_noise=np.log(s2))
    elbo_ref = svgp_elbo(svgp, X, y, total_n=8).value
    assert np.isclose(elbo_dgp, elbo_ref, atol=1e-10)


def test_dsvi_sample_moments_match_marginals():
    rng = np.random.default_rng(16)
    Z = rng.standard_normal((4, 1))
    A = rng.standard_normal((4, 4))
    layer = DsviDgpLayer(Z=Z, m=rng.standard_normal((4, 1)),
                         S_chol=_chol(A @ A.T + 4 * np.eye(4))[None, :, :],
                         kernel_params=KernelParams())
    F = rng.standard_normal((3, 1))
    means, vars_, _ = layer.marginals(F)
    n = 20000
    draws = layer.sample(None, F, rd.RngStream(0, n))[1].value[..., 0]
    se = np.sqrt(vars_.value[0] / n)
    assert np.all(np.abs(draws.mean(0) - means.value[0]) < 4 * se)
    assert np.all(np.abs(draws.var(0) - vars_.value[0]) < 0.1 * vars_.value[0])


def test_dsvi_two_outputs_sample_each_from_its_own_marginals():
    # the layer's width is its number of output roots: two roots give two
    # columns, each drawn from its own marginals and stream, and two KL terms
    rng = np.random.default_rng(19)
    Z = rng.standard_normal((4, 1))
    A, B = rng.standard_normal((2, 4, 4))
    layer = DsviDgpLayer(Z=Z, m=rng.standard_normal((4, 2)),
                         S_chol=np.stack([_chol(A @ A.T + 4 * np.eye(4)),
                                          _chol(0.1 * B @ B.T + np.eye(4))]),
                         kernel_params=KernelParams())
    F = rng.standard_normal((3, 1))
    means, vars_, inc = layer.marginals(F)
    n = 4000
    draws = layer.sample(None, F, rd.RngStream(3, n))[1].value
    assert draws.shape == (n, 3, 2)
    for lam in range(2):
        se = np.sqrt(vars_.value[lam] / n)
        assert np.all(np.abs(draws[..., lam].mean(0) - means.value[lam]) < 4 * se)
        assert np.all(np.abs(draws[..., lam].var(0) - vars_.value[lam]) < 0.1 * vars_.value[lam])
    assert abs(np.corrcoef(draws[:, 0, 0], draws[:, 0, 1])[0, 1]) < 0.1
    one = [DsviDgpLayer(Z=Z, m=layer.m[:, [lam]], S_chol=layer.S_chol[[lam]],
                        kernel_params=KernelParams()) for lam in range(2)]
    incs = [lay.marginals(F)[2].value for lay in one]
    assert np.isclose(inc.value, sum(incs), rtol=1e-12)


def test_dsvi_identity_mean_function_shifts_samples():
    rng = np.random.default_rng(17)
    Z = rng.standard_normal((3, 1))
    base = DsviDgpLayer(Z=Z, m=np.zeros((3, 1)),
                        S_chol=(1e-6 * np.eye(3))[None, :, :],
                        kernel_params=KernelParams())
    ident = DsviDgpLayer(Z=Z, m=np.zeros((3, 1)),
                         S_chol=(1e-6 * np.eye(3))[None, :, :],
                         kernel_params=KernelParams(),
                         mean_function="identity")
    F = rng.standard_normal((4, 1))
    f0 = base.sample(None, F, rd.RngStream(6))[1]
    f1 = ident.sample(None, F, rd.RngStream(6))[1]
    assert np.allclose(f1.value - f0.value, F)


# -- BNN layers as degenerate-kernel DGP layers ------------------------------------------

def test_bnn_gram_identity_activation_is_scaled_outer_product():
    rng = np.random.default_rng(18)
    F = rng.standard_normal((4, 3))
    G = bnn_as_dgp_gram(PriorSpec("neal"), F, activation="identity").value
    assert np.allclose(G, F @ F.T / 3)
    G_std = bnn_as_dgp_gram(PriorSpec("standard"), F, activation="identity").value
    assert np.allclose(G_std, F @ F.T)


def test_bnn_gram_rank_bounded_by_fanin():
    rng = np.random.default_rng(19)
    F = rng.standard_normal((6, 2))
    G = bnn_as_dgp_gram(PriorSpec("neal"), F).value
    assert np.linalg.matrix_rank(G) <= 2
    assert np.min(np.linalg.eigvalsh(G)) > -1e-10


def test_bnn_gram_matches_layer_output_covariance():
    # K = psi(F) psi(F)^T / fanin is the conditional covariance of one layer's
    # outputs under the 1/fanin weight prior; verify by direct sampling
    rng = np.random.default_rng(20)
    F = rng.standard_normal((4, 3))
    G = bnn_as_dgp_gram(PriorSpec("neal"), F).value
    psi = np.maximum(F, 0.0)
    n = 100_000
    W = rng.standard_normal((3, n)) / np.sqrt(3)
    outs = psi @ W                                    # (4, n) single-unit outputs
    emp = outs @ outs.T / n
    se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n)
    assert np.all(np.abs(emp - G) < 4 * se + 1e-12)


def test_bnn_gram_scale_prior_divides_by_s():
    rng = np.random.default_rng(21)
    F = rng.standard_normal((3, 2))
    G1 = bnn_as_dgp_gram(PriorSpec("scale"), F, s=1.0).value
    G2 = bnn_as_dgp_gram(PriorSpec("scale"), F, s=4.0).value
    assert np.allclose(G1, 4.0 * G2)
