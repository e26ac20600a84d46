"""Each fused op against its composed reference.

The references below build the same quantity from the engine's elementary
ops, the way the library did before each composite became one tape node.
Every fused op must pass a finite-difference check and agree with its
reference to 1e-12 relative, in value and in every gradient.
"""
import functools

import numpy as np
import pytest
from scipy.special import multigammaln

from deepbayes import diff_engine as de
from deepbayes import kernels
from deepbayes import rand_dist as rd
from deepbayes.bench_cli import ExperimentConfig, _make_model, gen_cubic_toy
from deepbayes.deep_models import _gi_draw
from deepbayes.diff_engine import as_tensor
from deepbayes.gp_models import GpState, gp_predict_lml
from deepbayes.kernels import KernelParams, _gram_se_params, _se_gram, se_ard_features

from oracles import (_chol_inverse, add_diagonal, conditional_chain, getitem, gi_posterior,
                     gi_sample, gp_chain, gwish_full_density, logdet_psd, mvn_log_density)

LOG2PI = float(np.log(2.0 * np.pi))


# -- composed references -----------------------------------------------------------

def _ref_sqdist(sq_rows, cross, sq_cols, scale):
    d2 = de.add(de.sub(sq_rows, de.elementwise("affine", cross, a=2.0)), sq_cols)
    if scale != 1.0:
        d2 = de.elementwise("affine", d2, a=float(scale))
    v = d2.value
    if np.any(v < -1e-10):
        raise ValueError("squared distance negative beyond tolerance")
    return de.mul(d2, as_tensor((v >= 0).astype(np.float64)))


def _ref_se_ard(params, X, X2=None):
    X = as_tensor(X)
    X2 = X if X2 is None else as_tensor(X2)
    ls = params.lengthscales()
    Xs, Xs2 = de.div(X, ls), de.div(X2, ls)
    n1 = de.tsum(de.elementwise("square", Xs), axis=1, keepdims=True)
    n2 = de.tsum(de.elementwise("square", Xs2), axis=1, keepdims=True)
    d2 = _ref_sqdist(n1, de.matmul(Xs, de.transpose(Xs2)), de.transpose(n2), 1.0)
    return de.mul(params.sf2(), de.elementwise("exp", de.elementwise("affine", d2, a=-0.5)))


def _ref_se_gram(rows, cross, cols, scale, sf2, ls):
    rows, cols = as_tensor(rows), as_tensor(cols)
    d2 = _ref_sqdist(de.reshape(rows, (rows.value.shape[0], 1)), cross,
                     de.reshape(cols, (1, cols.value.shape[0])), scale)
    l2 = de.elementwise("square", ls)
    return de.mul(sf2, de.elementwise("exp", de.elementwise("affine", de.div(d2, l2), a=-0.5)))


def _ref_normal(x, mean, var):
    diff = de.sub(x, mean)
    quad = de.div(de.elementwise("square", diff), var)
    return de.tsum(de.elementwise("affine", de.add(de.elementwise("log", var), quad),
                                  a=-0.5, b=-0.5 * LOG2PI))


def _ref_mvn(y, mean, cov):
    L = de.cholesky_factor(cov)
    w = de.triangular_solve(L, de.sub(y, mean))
    quad = de.tsum(de.elementwise("square", w))
    return de.elementwise("affine", de.add(quad, de.log_diag_sum(L, 2.0)),
                          a=-0.5, b=-0.5 * as_tensor(y).value.shape[0] * LOG2PI)


def _ref_add_diagonal(a, d):
    a = as_tensor(a)
    return de.add(a, de.mul(d, as_tensor(np.eye(a.value.shape[-1]))))


def _ref_wishart_root(F, Ls, nu, ld_block):
    F, Ls = as_tensor(F), as_tensor(Ls)
    N, ntilde = F.value.shape
    const = (0.5 * nu * (ntilde - N) * np.log(np.pi) - 0.5 * nu * N * np.log(2.0)
             - float(multigammaln(0.5 * nu, ntilde)))
    tr = de.tsum(de.elementwise("square", de.triangular_solve(Ls, F)))
    out = de.elementwise("affine", de.tsum(de.elementwise("log", de.diag_part(Ls))),
                         a=-nu, b=const)
    out = de.add(out, de.elementwise("affine", ld_block, a=0.5 * (nu - N - 1)))
    return de.add(out, de.elementwise("affine", tr, a=-0.5))


def _ref_conditional_variance(L, K_uf, k_ff):
    W = de.triangular_solve(L, K_uf)
    return de.sub(k_ff, de.tsum(de.elementwise("square", W), axis=0))


def _ref_conditional_sample(mean, var, rng):
    mean, var = as_tensor(mean), as_tensor(var)
    n = var.value.shape[0]
    var = de.add(de.mul(var, as_tensor((var.value > 0).astype(np.float64))),
                 as_tensor(np.full(n, 1e-12)))
    xi = as_tensor(rng.normal(mean.value.shape))
    std = de.elementwise("sqrt", var)
    if mean.value.ndim == 2:
        std = de.reshape(std, (n, 1))
    return de.add(mean, de.mul(std, xi))


def _ref_gwish(L, nu, alpha, beta, mu, sigma, rng, A_packed=None, B=None):
    """The generalized Wishart sample and log density, composed per sample."""
    L = as_tensor(L)
    N = L.value.shape[0]
    ntilde = min(N, nu)
    alpha, beta, mu, sigma = map(as_tensor, (alpha, beta, mu, sigma))
    gamma_rng, normal_rng = rng.split(2)
    tsq = rd.gamma_sample_reparam(alpha, beta, gamma_rng)
    tdiag = de.elementwise("sqrt", tsq)
    xi = as_tensor(normal_rng.normal((N, ntilde)))
    below = np.tril(np.ones((N, ntilde)), k=-1)
    T = de.mul(de.add(mu, de.mul(sigma, xi)), as_tensor(below))
    T = de.add(T, de.matmul(as_tensor(np.eye(N, ntilde)), de.diag_embed(tdiag)))
    feat = T
    if B is not None:
        feat = de.matmul(feat, B)
    if A_packed is not None:
        feat = de.matmul(rd.lu_packed_matrix(A_packed), feat)
    ATB = feat
    feat = de.matmul(L, feat)
    G = de.matmul(feat, de.transpose(feat))
    exps_all = np.minimum(np.arange(1, N + 1), nu).astype(np.float64)
    exps_top = np.arange(N, N - ntilde, -1, dtype=np.float64)
    log_ld = de.elementwise("log", de.diag_part(L))
    logq = de.elementwise("affine", de.tsum(de.mul(log_ld, as_tensor(exps_all))), a=-1.0)
    top = getitem(log_ld, slice(0, ntilde))
    logq = de.sub(logq, de.tsum(de.mul(top, as_tensor(exps_top))))
    gam = de.add(
        de.sub(de.mul(alpha, de.elementwise("log", beta)), rd.lgamma(alpha)),
        de.sub(de.mul(de.sub(alpha, as_tensor(np.ones(ntilde))), de.elementwise("log", tsq)),
               de.mul(beta, tsq)))
    logq = de.add(logq, de.tsum(gam))
    log_t = de.elementwise("log", tdiag)
    logq = de.sub(logq, de.tsum(de.mul(log_t, as_tensor(exps_top - 1.0))))
    var = de.elementwise("square", sigma)
    diff = de.mul(de.sub(T, mu), as_tensor(below))
    terms = de.elementwise("affine", de.add(de.elementwise("log", var),
                                            de.div(de.elementwise("square", diff), var)),
                           a=-0.5, b=-0.5 * LOG2PI)
    logq = de.add(logq, de.tsum(de.mul(terms, as_tensor(below))))
    if B is not None:
        log_b = de.elementwise("log", de.diag_part(B))
        logq = de.sub(logq, de.tsum(de.mul(log_b, as_tensor(2.0 * exps_top))))
    if A_packed is None:
        ld_block = de.elementwise("affine", de.tsum(de.elementwise("log", de.diag_part(feat))),
                                  a=2.0)
    else:
        S = getitem(ATB, slice(0, ntilde))
        db = logdet_psd(de.matmul(S, de.transpose(S)))
        half_cb = de.tsum(log_t) if B is None else de.add(de.tsum(log_t), de.tsum(log_b))
        logq = de.add(logq, de.elementwise(
            "affine", de.sub(db, de.elementwise("affine", half_cb, a=2.0)), a=0.5 * (nu - N - 1)))
        logq = de.sub(logq, de.elementwise("affine", rd.lu_packed_logdet(A_packed), a=float(nu)))
        ld_block = de.add(db, de.elementwise("affine", de.tsum(top), a=2.0))
    return G, logq, feat, ld_block


# -- comparison harness -------------------------------------------------------------

def _value_and_grads(fn, params):
    with de.Tape() as tape:
        ps = {k: tape.param(np.asarray(v, dtype=np.float64).copy(), k) for k, v in params.items()}
        out = fn(ps)
        grads = de.backward_pass(out)
        n = len(tape._nodes)
    return float(out.value), {k: grads.get(k, np.zeros_like(np.asarray(v, dtype=float)))
                              for k, v in params.items()}, n


def _assert_matches_reference(fused, ref, params, tol=1e-12, grad_tol=None):
    v1, g1, n1 = _value_and_grads(fused, params)
    v2, g2, n2 = _value_and_grads(ref, params)
    assert abs(v1 - v2) <= tol * max(abs(v2), 1e-300), (v1, v2)
    for k in params:
        scale = max(np.max(np.abs(g2[k])), 1e-300)
        assert np.max(np.abs(g1[k] - g2[k])) <= (grad_tol or tol) * scale, (k, g1[k], g2[k])
    assert n1 < n2      # the fused form builds fewer tape nodes
    rep = de.finite_diff_check(fused, params)
    assert rep["passed"], rep


# -- SE kernels ------------------------------------------------------------------------

def _kp(ps):
    return KernelParams(log_sf2=ps["log_sf2"], log_lengthscales=ps["log_ls"])


@pytest.mark.parametrize("ls_shape,cross", [((), False), ((3,), False), ((3,), True),
                                            ((1,), True)])
def test_se_kernel_features_matches_reference(ls_shape, cross):
    rng = np.random.default_rng(1)
    params = {"X": rng.standard_normal((5, 3)), "log_sf2": np.asarray(0.3),
              "log_ls": 0.2 * rng.standard_normal(ls_shape)}
    if cross:
        params["X2"] = rng.standard_normal((4, 3))

    def make(kernel):
        def fn(ps):
            K = kernel(_kp(ps), ps["X"], ps.get("X2"))
            return de.tsum(de.mul(K, as_tensor(np.cos(np.arange(K.value.size)).reshape(
                K.value.shape))))
        return fn

    _assert_matches_reference(make(se_ard_features), make(_ref_se_ard), params)


def test_se_kernel_clamped_distances_match_reference():
    # repeated rows give squared distances that round to small negatives;
    # both forms clamp them to zero and pass no gradient through them
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 4)) * 7.3
    X = np.concatenate([X, X[::-1], X], axis=0)
    params = {"X": X, "log_sf2": np.asarray(-0.1), "log_ls": np.full(4, 0.4)}

    def make(kernel):
        return lambda ps: de.tsum(de.elementwise("square", kernel(_kp(ps), ps["X"])))

    v1, g1, _ = _value_and_grads(make(se_ard_features), params)
    v2, g2, _ = _value_and_grads(make(_ref_se_ard), params)
    assert abs(v1 - v2) <= 1e-12 * abs(v2)
    for k in params:
        assert np.max(np.abs(g1[k] - g2[k])) <= 1e-10 * max(np.max(np.abs(g2[k])), 1.0), k


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_se_kernel_gram_matches_reference(scale):
    rng = np.random.default_rng(3)
    F = rng.standard_normal((6, 3))
    params = {"F": F, "Ft": rng.standard_normal((4, 3)), "log_sf2": np.asarray(0.2),
              "log_ls": np.asarray(-0.3)}

    def make(kernel):
        def fn(ps):
            G = de.matmul(ps["F"], de.transpose(ps["F"]))
            G_ti = de.matmul(ps["Ft"], de.transpose(ps["F"]))
            g_tt = de.tsum(de.elementwise("square", ps["Ft"]), axis=1)
            gi = de.diag_part(G)
            sf2, ls = _gram_se_params(_kp(ps))
            K_ii = kernel(gi, G, gi, scale, sf2, ls)
            K_ti = kernel(g_tt, G_ti, gi, scale, sf2, ls)
            return de.add(logdet_psd(de.add(K_ii, as_tensor(np.eye(6)))),
                          de.tsum(de.elementwise("square", K_ti)))
        return fn

    _assert_matches_reference(make(_se_gram), make(_ref_se_gram), params)


# -- densities ---------------------------------------------------------------------------

@pytest.mark.parametrize("var_shape", [(), (4, 3)])
def test_normal_log_density_matches_reference(var_shape):
    rng = np.random.default_rng(4)
    params = {"x": rng.standard_normal((4, 3)), "m": rng.standard_normal((4, 3)),
              "log_v": 0.3 * rng.standard_normal(var_shape)}

    def make(density):
        return lambda ps: density(ps["x"], ps["m"], de.elementwise("exp", ps["log_v"]))

    _assert_matches_reference(make(rd.normal_log_density), make(_ref_normal), params)


def _mvn_params(n, rng):
    return {"y": rng.standard_normal(n), "m": 0.3 * rng.standard_normal(n),
            "R": rng.standard_normal((n, n)) / np.sqrt(n)}


def _mvn_cov(ps):
    return add_diagonal(de.matmul(ps["R"], de.transpose(ps["R"])), 0.5)


@pytest.mark.parametrize("with_chol", [False, True])
def test_mvn_log_density_matches_reference(with_chol):
    # the factor, when passed, is read by value: the gradient reaches cov
    # through the density alone
    params = _mvn_params(6, np.random.default_rng(11))

    def fused(ps):
        cov = _mvn_cov(ps)
        chol = de.cholesky_factor(cov) if with_chol else None
        return mvn_log_density(ps["y"], ps["m"], cov, chol=chol)

    _assert_matches_reference(fused, lambda ps: _ref_mvn(ps["y"], ps["m"], _mvn_cov(ps)),
                              params, grad_tol=1e-10)


def test_mvn_log_density_on_the_jitter_ladder_matches_reference():
    # a rank-3 covariance of size 5, shifted to be slightly indefinite, fails
    # the plain Cholesky; both forms factorise it with the same jitter and
    # agree on the jittered density. The jittered factor's condition number
    # is about 1e8, so R's gradient, which cancels cov^{-1}-sized terms, is
    # rounding-determined to about 1e8 eps in either form.
    rng = np.random.default_rng(12)
    R = rng.standard_normal((5, 3))
    params = {"y": R @ rng.standard_normal(3), "m": np.zeros(5), "R": R}

    def cov(ps):
        return add_diagonal(de.matmul(ps["R"], de.transpose(ps["R"])), -1e-9)

    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov({"R": as_tensor(R)}).value)
    v1, g1, _ = _value_and_grads(lambda ps: mvn_log_density(ps["y"], ps["m"], cov(ps)),
                                 params)
    v2, g2, _ = _value_and_grads(lambda ps: _ref_mvn(ps["y"], ps["m"], cov(ps)), params)
    assert abs(v1 - v2) <= 1e-12 * abs(v2)
    for k, tol in (("y", 1e-12), ("m", 1e-12), ("R", 1e-7)):
        assert np.max(np.abs(g1[k] - g2[k])) <= tol * np.max(np.abs(g2[k])), k


def test_mvn_log_density_cotangent_guard_names_the_op():
    # a finite forward whose backward overflows: d log(z) / dz = 1 / 1e-313
    with de.Tape() as tape, np.errstate(over="ignore", divide="ignore"):
        y = tape.param(np.array([0.3, -0.2]), "y")
        dens = mvn_log_density(y, np.zeros(2), np.eye(2))
        out = de.elementwise("log", de.mul(de.elementwise("exp", dens), as_tensor(1e-310)))
        assert np.isfinite(out.value)
        with pytest.raises(FloatingPointError,
                           match="non-finite values in cotangent of op 'mvn_log_density'"):
            de.backward_pass(out)


def test_chol_inverse_matches_inverse():
    # 600 rows span three 256-row blocks of the in-place fill; stacks go
    # one matrix at a time
    rng = np.random.default_rng(13)
    for shape in [(600, 600), (3, 4, 4)]:
        A = rng.standard_normal(shape)
        S = A @ np.swapaxes(A, -1, -2) + shape[-1] * np.eye(shape[-1])
        inv = _chol_inverse(np.linalg.cholesky(S))
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
        assert np.allclose(inv, np.linalg.inv(S), rtol=1e-10, atol=1e-13)


def test_chol_inverse_of_a_factor_is_a_fortran_ordered_full_inverse():
    rng = np.random.default_rng(15)
    for shape in [(600, 600), (3, 20, 20)]:
        A = rng.standard_normal(shape)
        S = A @ np.swapaxes(A, -1, -2) + shape[-1] * np.eye(shape[-1])
        inv = _chol_inverse(de.cholesky_factor(S).value)
        assert all(inv[i].flags.f_contiguous for i in np.ndindex(shape[:-2]))
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
        ref = np.linalg.inv(S)
        assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4)])
def test_add_diagonal_matches_reference(shape):
    rng = np.random.default_rng(14)
    params = {"K": rng.standard_normal(shape), "log_s": np.asarray(-0.7)}
    weights = np.cos(np.arange(np.prod(shape))).reshape(shape)

    def make(add_diag):
        return lambda ps: de.tsum(de.mul(add_diag(ps["K"], de.elementwise("exp", ps["log_s"])),
                                         as_tensor(weights)))

    _assert_matches_reference(make(add_diagonal), make(_ref_add_diagonal), params)


def test_gp_training_step_skips_the_cholesky_adjoint(monkeypatch):
    # the exact GP's LML is one node whose backward runs no Cholesky adjoint
    calls = []
    phi = de._phi
    monkeypatch.setattr(de, "_phi", lambda x: calls.append(1) or phi(x))
    ds = gen_cubic_toy(0)
    model = _make_model(ExperimentConfig(model="gp"), ds)
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in model.init_params().items()}
        lml = model.objective(p, ds.X_train, ds.y_train, 40, 1, rd.RngStream(0), 1.0)
        grads = de.backward_pass(lml)
    assert set(grads) == set(p) and not calls
    # differentiating a prediction of the generic chain does run it
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in model.init_params().items()}
        st, X = model._state_and_features(p, ds.X_train)
        mean, _, _ = gp_chain(lambda a, b: se_ard_features(st.kernel_params, a, b),
                              st.noise_var(), X, ds.y_train, ds.X_test)
        de.backward_pass(de.tsum(mean))
    assert calls


def test_wishart_root_density_matches_reference():
    rng = np.random.default_rng(5)
    N, nu = 5, 3
    params = {"F": np.tril(rng.standard_normal((N, nu))) + 2 * np.eye(N, nu),
              "Ls": np.tril(0.3 * rng.standard_normal((N, N))) + np.eye(N),
              "ld": np.asarray(0.7)}

    def make(density):
        return lambda ps: density(ps["F"], ps["Ls"], nu, ps["ld"])

    _assert_matches_reference(make(rd._wishart_log_density_root), make(_ref_wishart_root),
                              params)


def test_log_diag_sum_matches_reference():
    rng = np.random.default_rng(6)
    w = np.array([1.0, -2.0, 0.5])
    params = {"L": np.tril(rng.standard_normal((3, 3))) + 3 * np.eye(3)}
    _assert_matches_reference(
        lambda ps: de.log_diag_sum(ps["L"], w),
        lambda ps: de.tsum(de.mul(de.elementwise("log", de.diag_part(ps["L"])), as_tensor(w))),
        params)
    with pytest.raises(ValueError, match="non-positive diagonal"):
        de.log_diag_sum(-np.eye(2))


# -- Gaussian conditionals ------------------------------------------------------------------

def test_conditional_variance_matches_reference():
    rng = np.random.default_rng(7)
    params = {"L": np.tril(0.3 * rng.standard_normal((4, 4))) + np.eye(4),
              "K_uf": rng.standard_normal((4, 6)), "k_ff": 5.0 + rng.random(6)}

    def make(conditional):
        return lambda ps: de.tsum(de.elementwise("square", conditional(
            ps["L"], ps["K_uf"], ps["k_ff"])))

    _assert_matches_reference(
        make(lambda L, K, k: rd.gaussian_conditional(L, K, k)[1]),
        make(_ref_conditional_variance), params)


@pytest.mark.parametrize("ndim", [1, 2])
def test_conditional_sample_matches_reference(ndim):
    rng = np.random.default_rng(8)
    shape = (5,) if ndim == 1 else (5, 3)
    # one variance clamps (negative), the rest are positive
    params = {"mean": rng.standard_normal(shape),
              "var": np.array([0.5, 1.2, -1e-9, 0.3, 2.0])}

    def make(sample):
        def fn(ps):
            out = sample(ps["mean"], ps["var"], rd.RngStream(9))
            return de.tsum(de.elementwise("square", out))
        return fn

    v1, g1, n1 = _value_and_grads(make(rd.conditional_sample), params)
    v2, g2, n2 = _value_and_grads(make(_ref_conditional_sample), params)
    assert abs(v1 - v2) <= 1e-12 * abs(v2) and n1 < n2
    for k in params:
        assert np.max(np.abs(g1[k] - g2[k])) <= 1e-12 * np.max(np.abs(g2[k])), k
    # finite differences away from the clamp
    params["var"] = np.abs(params["var"]) + 0.1
    assert de.finite_diff_check(make(rd.conditional_sample), params)["passed"]


# -- generalized Wishart ---------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["base", "A", "AB"])
def test_gwish_sample_and_logpdf_matches_reference(variant):
    # shape (log_alpha) excluded from finite differences: the gamma sampler's
    # shape gradient is implicit and its rejection path is discontinuous
    rng = np.random.default_rng(10)
    N, nu = 4, 3
    nt = min(N, nu)
    params = {"log_beta": np.log(0.5) + 0.1 * rng.standard_normal(nt),
              "mu": 0.2 * rng.standard_normal((N, nt)),
              "log_sigma": 0.1 * rng.standard_normal((N, nt)),
              "Lraw": np.tril(0.2 * rng.standard_normal((N, N)), -1) + np.eye(N)}
    if variant != "base":
        params["P"] = np.eye(N) + 0.1 * rng.standard_normal((N, N))
    if variant == "AB":
        params["B"] = np.tril(0.2 * rng.standard_normal((nt, nt)), -1) + 1.2 * np.eye(nt)
    alpha = 0.5 * (nu - np.arange(1, nt + 1) + 1.0) + 0.3

    def make(fused):
        def fn(ps):
            beta = de.elementwise("exp", ps["log_beta"])
            sigma = de.elementwise("exp", ps["log_sigma"])
            args = (ps.get("P"), ps.get("B"))
            if fused:
                out = gwish_full_density(rd._gwish_sample(
                    ps["Lraw"], nu, alpha, beta, ps["mu"], sigma, rd.RngStream(11), *args),
                    nu, args[0])
            else:
                out = _ref_gwish(ps["Lraw"], nu, alpha, beta, ps["mu"], sigma,
                                 rd.RngStream(11), *args)
            G, logq, feat, ld_block = out
            return de.add(de.add(logq, de.elementwise("affine", ld_block, a=0.3)),
                          de.add(de.mul(de.tsum(de.elementwise("square", G)), 1e-2),
                                 de.mul(de.tsum(feat), 0.1)))
        return fn

    _assert_matches_reference(make(True), make(False), params)


# -- the global-inducing draw ---------------------------------------------------------------

_GI_CASES = ("scalar root", "scalar root per sample", "single factor", "stacked factors",
             "factor off the jitter ladder", "factor, increment unread")


def _gi_case(case, rng):
    """(fused, reference, params) for _gi_draw on one of the roots it serves:
    a BNN layer's (1, 1) root (prior: neal) with A = psi_U, its (S, 1, 1) one
    (prior: scale) with a stacked psi_U, chol(K_uu) of a DGP's first layer
    or stacked one per sample (deeper layers) with A = I, a factor of a
    K_uu that only the jitter ladder factorises (rank M - 2, shifted by
    -1e-9 I), and a factor whose draw's increment the objective does not
    read."""
    S, M, d, w = 3, 6, 4, 2
    params = {"lam": 0.5 * rng.standard_normal(M), "V": rng.standard_normal((M, w))}
    if case.startswith("scalar"):
        lead = (S,) if case.endswith("per sample") else ()
        params.update(A=rng.standard_normal(lead + (M, d)),
                      r=-0.3 + 0.2 * rng.standard_normal(lead))

        def operands(ps):
            return de.reshape(de.elementwise("exp", ps["r"]), lead + (1, 1)), ps["A"]
    else:
        ladder = case.endswith("ladder")
        params["R"] = rng.standard_normal((S if case == "stacked factors" else 1, M,
                                           M - 2 if ladder else M)) / np.sqrt(M)

        def operands(ps):
            K = de.matmul(ps["R"], de.transpose(ps["R"]))
            K = add_diagonal(K if case == "stacked factors" else de.reshape(K, (M, M)),
                             -1e-9 if ladder else 1.0)
            return de.cholesky_factor(K), None

    def objective(draw):
        def fn(ps):
            X, LinvX, inc = draw(*operands(ps), ps["lam"], ps["V"], rd.RngStream(7, S))
            out = de.add(_wsum(X), _wsum(LinvX))
            return out if case.endswith("unread") else de.add(out, _wsum(inc))
        return fn

    return (objective(_gi_draw_x),
            objective(lambda L, A, lam, V, rng: gi_sample(gi_posterior(L, A, lam, V), rng)),
            params)


def _gi_draw_x(L, A, log_lambda, V, rng):
    """_gi_draw with X = L L^{-1} X formed as the layers form it."""
    LinvX, inc = _gi_draw(L, A, log_lambda, V, rng)
    return (de.matmul if A is None else de.mul)(L, LinvX), LinvX, inc


@pytest.mark.parametrize("case", _GI_CASES)
def test_gi_draw_matches_reference(case):
    fused, ref, params = _gi_case(case, np.random.default_rng(31))
    if not case.endswith("ladder"):
        _assert_matches_reference(fused, ref, params, grad_tol=1e-10)
        return
    # the plain Cholesky fails; both forms read the same jittered factor.
    # Finite differences are left out: a step of 1e-5 in R moves K's
    # smallest eigenvalue, and the jitter, far beyond the shift
    R = params["R"][0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(R @ R.T - 1e-9 * np.eye(len(R)))
    v1, g1, n1 = _value_and_grads(fused, params)
    v2, g2, n2 = _value_and_grads(ref, params)
    assert abs(v1 - v2) <= 1e-12 * abs(v2) and n1 < n2
    for k in params:
        assert np.max(np.abs(g1[k] - g2[k])) <= 1e-10 * np.max(np.abs(g2[k])), k


def test_gi_draw_cotangent_guard_names_the_op():
    # a finite forward whose backward overflows: d log(y) / dy = 1 / 1e-310
    L = np.linalg.cholesky(np.eye(4) + 0.1)
    with de.Tape() as tape, np.errstate(over="ignore", divide="ignore"):
        V = tape.param(np.random.default_rng(32).standard_normal((4, 2)), "V")
        LinvX = _gi_draw(L, None, np.zeros(4), V, rd.RngStream(7))[0]
        out = de.elementwise("log", de.mul(de.elementwise("exp", de.tsum(LinvX)),
                                           as_tensor(1e-310)))
        assert np.isfinite(out.value)
        with pytest.raises(FloatingPointError,
                           match="non-finite values in cotangent of op 'gi_draw'"):
            de.backward_pass(out)


# -- the prior conditional draw ------------------------------------------------------------------

_COND_CASES = ("one factor, stacked Z", "stacked factors", "triangular L without a factor",
               "stack past the condition guard")


def _cond_case(case, rng):
    """(fused, reference, params) for conditional_draw on one of the
    operands it serves: chol(K_uu) of a deep GP's first layer against a
    stack of solved inducing values Z, stacked factors (deeper layers and
    the DWP's Gram layers), a lower-triangular L that carries no _Factor
    (solved by trtrs, one sample without a sample axis), and a stack of
    factors whose condition number sends it back from the inverses to
    trtrs: K_uu = D (R R^T + I) D with D = diag(1, 1, 1, 1, 1e-3), so that
    kappa_1(L) is about 2e3 while K_uu stays smooth in R. k_ff keeps every
    variance clear of the clamp."""
    S, M, n, w = 3, 5, 4, 2
    lead = (S,) if case in ("stacked factors", "stack past the condition guard") else ()
    if case == "triangular L without a factor":
        params = {"L": np.tril(0.3 * rng.standard_normal((M, M))) + np.eye(M),
                  "Z": rng.standard_normal((M, w))}
    else:
        params = {"R": rng.standard_normal(lead + (M, M)) / np.sqrt(M),
                  "Z": rng.standard_normal((S, M, w))}
    params["K_fu"] = rng.standard_normal(lead + (n, M))
    scale = np.ones(M)
    if case == "stack past the condition guard":
        scale[-1] = 1e-3

    def factor(ps):
        if "L" in ps:
            return ps["L"]
        K = add_diagonal(de.matmul(ps["R"], de.transpose(ps["R"])), 1.0)
        return de.cholesky_factor(de.mul(K, as_tensor(np.outer(scale, scale))))

    L = factor({k: as_tensor(v) for k, v in params.items()}).value
    W = np.linalg.solve(L, np.swapaxes(params["K_fu"], -1, -2))
    params["k_ff"] = 1.0 + 2.0 * np.sum(W * W, axis=-2) + rng.random(lead + (n,))
    samples = None if case == "triangular L without a factor" else S

    def objective(draw):
        return lambda ps: _wsum(draw(factor(ps), ps["K_fu"], ps["k_ff"], ps["Z"],
                                     rd.RngStream(9, samples)))

    return objective(rd.conditional_draw), objective(conditional_chain), params


@pytest.mark.parametrize("case", _COND_CASES)
def test_conditional_draw_matches_reference(case):
    fused, ref, params = _cond_case(case, np.random.default_rng(41))
    if case.startswith("stack"):
        # the guard keeps the inverses of the first stack, not of the second
        R = params["R"]
        scale = np.array([1.0, 1.0, 1.0, 1.0, 1e-3 if case.endswith("guard") else 1.0])
        K = (R @ np.swapaxes(R, -1, -2) + np.eye(5)) * np.outer(scale, scale)
        assert (de._tri_inverse(np.linalg.cholesky(K)) is None) == case.endswith("guard")
    assert _value_and_grads(fused, params)[0] == _value_and_grads(ref, params)[0]
    _assert_matches_reference(fused, ref, params, grad_tol=1e-10)


def test_conditional_draw_cotangent_guard_names_the_op():
    # a finite forward whose backward overflows: d log(y) / dy = 1 / 1e-310
    L = np.linalg.cholesky(np.eye(3) + 0.1)
    with de.Tape() as tape, np.errstate(over="ignore", divide="ignore"):
        K = tape.param(np.random.default_rng(42).standard_normal((2, 3)), "K")
        F = rd.conditional_draw(L, K, np.full(2, 5.0), np.ones((3, 1)), rd.RngStream(7))
        out = de.elementwise("log", de.mul(de.elementwise("exp", de.tsum(F)),
                                           as_tensor(1e-310)))
        assert np.isfinite(out.value)
        with pytest.raises(FloatingPointError,
                           match="non-finite values in cotangent of op 'conditional_draw'"):
            de.backward_pass(out)


# -- the finite guard ---------------------------------------------------------------------------

def test_nonfinite_op_output_names_its_op():
    # as a replay of a failed step or evaluation checks each tensor
    with de.check_each_tensor(), de.Tape() as tape:
        x = tape.param(np.array([1.0, 800.0]), "x")
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError,
                               match="non-finite values in output of op 'exp'"):
                de.elementwise("exp", x)
        with pytest.raises(FloatingPointError,
                           match="non-finite values in output of op 'normal_log_density'"):
            with np.errstate(over="ignore"):
                rd.normal_log_density(de.elementwise("affine", x, a=1e154),
                                      np.zeros(2), np.asarray(1e-300))
        with pytest.raises(FloatingPointError,
                           match="non-finite values in output of op 'se_kernel'"):
            with np.errstate(over="ignore", invalid="ignore"):
                # squared norms overflow, so their difference is NaN
                se_ard_features(KernelParams(),
                                de.elementwise("affine", de.reshape(x, (2, 1)), a=1e200))
        with pytest.raises(FloatingPointError,
                           match="non-finite values in input of op 'gi_draw'"):
            with np.errstate(over="ignore", invalid="ignore"):
                # B^T Lambda V overflows, while I + B^T Lambda B is 1 + 1.01:
                # the solve against C stops it before LAPACK sees it
                _gi_draw(de.reshape(de.elementwise("affine", de.tsum(x), a=1e-152 / 801.0),
                                    (1, 1)), None, np.array([700.0]), np.array([[1e200]]),
                         rd.RngStream(0))


def test_nonfinite_constants_and_parameters_trip_the_guard():
    with de.check_each_tensor():
        with pytest.raises(FloatingPointError, match="non-finite values in constant"):
            as_tensor(np.array([1.0, np.nan]))
        with pytest.raises(FloatingPointError, match="non-finite values in parameter 'w'"):
            with de.Tape() as tape:
                tape.param(np.array([np.inf]), "w")
    # outside a replay a tensor is not checked as it is built
    assert np.isnan(as_tensor(np.array([1.0, np.nan])).value[1])


def _exact_gp_lml(log_noise):
    X = np.random.default_rng(34).standard_normal((4, 2))
    return gp_predict_lml(GpState(log_noise=log_noise), X, X[:, 0])[2]


_NAN = np.array([[1.0, 0.5], [np.nan, 1.0]])     # passes _check_symmetric
_LAPACK_INPUTS = {      # case: (op, call)
    "cholesky_factor": ("cholesky_factor", lambda: de.cholesky_factor(_NAN)),
    "cholesky_factor stack": ("cholesky_factor",
                              lambda: de.cholesky_factor(np.stack([np.eye(2), 2.0 * _NAN]))),
    "gi_draw": ("gi_draw", lambda: _gi_draw(np.array([[1.0, 0.0], [np.nan, 1.0]]), None,
                                            np.zeros(2), np.ones((2, 1)), rd.RngStream(0))),
    "exact_gp_lml": ("exact_gp_lml", lambda: _exact_gp_lml(800.0)),
    "triangular_solve rhs": ("triangular_solve",
                             lambda: de.triangular_solve(np.eye(2), np.array([[1.0], [np.nan]]))),
    "triangular_solve factor": ("triangular_solve",
                                lambda: de.triangular_solve(_NAN, np.ones((2, 1)))),
    "conditional_draw": ("conditional_draw", lambda: rd.conditional_draw(
        de.cholesky_factor(np.eye(2)), np.array([[np.inf, 0.0]]), np.ones(1), np.ones((2, 1)),
        rd.RngStream(0))),
}


@pytest.mark.parametrize("case", list(_LAPACK_INPUTS))
def test_nonfinite_lapack_input_names_its_op(case):
    # a matrix with inf or NaN is stopped before LAPACK sees it, with an
    # error that names the op, not the jitter ladder's or a solver's
    op, call = _LAPACK_INPUTS[case]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as err:
        call()
    assert str(err.value) == f"non-finite values in input of op {op!r}"


def _potrf_fails(monkeypatch):
    # a potrf that always reports a failing pivot 3, so the ladder tops out
    potrf = de._POTRF
    monkeypatch.setattr(de, "_POTRF", lambda *a, **k: (potrf(*a, **k)[0], 3))


def _trtri_reports_info_1(*args):
    # a leaf trtri of the blocked inverse that finds a zero at its first
    # diagonal entry: it sets info, its last argument
    args[-1].value = 1


def _exact_gp_step():
    # the exact GP's LML node and its backward, on 5 rows
    X = np.random.default_rng(33).standard_normal((5, 2))
    with de.Tape() as tape:
        state = GpState(log_noise=tape.param(np.asarray(-1.0), "log_noise"))
        de.backward_pass(gp_predict_lml(state, X, np.sin(X[:, 0]))[2])


def _sqdist_shifted(monkeypatch):
    # every squared distance the kernel forms, less 1: far below the
    # clamp's tolerance, which finite inputs to one SE-ARD kernel never reach
    clamp = kernels._clamp_sqdist
    monkeypatch.setattr(kernels, "_clamp_sqdist", lambda d2, *a: clamp(d2 - 1.0, *a))


_GUARDS = {     # case: (error, message before " in op '<op>'", op, setup and call)
    "log_diag_sum": (ValueError, "log domain violation: non-positive diagonal", "log_diag_sum",
                     lambda mp: de.log_diag_sum(np.diag([1.0, -1.0]))),
    "wishart_log_density": (
        ValueError, "log domain violation: non-positive diagonal", "wishart_log_density",
        lambda mp: rd._wishart_log_density_root(np.eye(2), np.diag([1.0, -1.0]), 3.0, 0.0)),
    "gamma_sample": (ValueError, "gamma parameters must be positive", "gamma_sample",
                     lambda mp: rd.gamma_sample_reparam(-1.0, 1.0, rd.RngStream(0))),
    "kl_gamma": (ValueError, "gamma parameters must be positive", "kl_gamma",
                 lambda mp: rd.kl_gamma((1.0, -1.0), (1.0, 1.0))),
    "normal_log_density": (ValueError, "log domain violation: non-positive variance",
                           "normal_log_density",
                           lambda mp: rd.normal_log_density(0.0, 0.0, -1.0)),
    "se_kernel clamp (Gram)": (
        ValueError, "squared distance negative beyond tolerance", "se_kernel",
        lambda mp: _se_gram(np.ones(1), np.full((1, 1), 5.0), np.ones(1), 1.0,
                            *_gram_se_params(KernelParams()))),
    "se_kernel clamp (features)": (
        ValueError, "squared distance negative beyond tolerance", "se_kernel",
        lambda mp: _sqdist_shifted(mp) or se_ard_features(KernelParams(), np.eye(3))),
    "exact_gp_lml clamp": (ValueError, "squared distance negative beyond tolerance",
                           "exact_gp_lml", lambda mp: _sqdist_shifted(mp) or _exact_gp_step()),
    "exact_gp_lml potri": (
        np.linalg.LinAlgError, "potri failed: info 1", "exact_gp_lml",
        lambda mp: mp.setattr(de, "_DTRTRI", _trtri_reports_info_1) or _exact_gp_step()),
    "cholesky_factor ladder": (
        np.linalg.LinAlgError, "matrix not positive definite after max jitter (pivot 2 of 2)",
        "cholesky_factor", lambda mp: de.cholesky_factor(np.diag([1.0, -1.0]))),
    # G = I + B^T Lambda B is positive definite, so potrf is made to fail
    "gi_draw ladder": (
        np.linalg.LinAlgError, "matrix not positive definite after max jitter (pivot 3 of 4)",
        "gi_draw", lambda mp: _potrf_fails(mp) or _gi_draw(
            np.eye(4), None, np.zeros(4), np.ones((4, 2)), rd.RngStream(0))),
    "exact_gp_lml ladder": (
        np.linalg.LinAlgError, "matrix not positive definite after max jitter (pivot 3 of 5)",
        "exact_gp_lml", lambda mp: _potrf_fails(mp) or _exact_gp_step()),
}


@pytest.mark.parametrize("case", list(_GUARDS))
def test_numerical_guards_name_their_op(case, monkeypatch):
    error, text, op, trip = _GUARDS[case]
    with pytest.raises(error) as err:
        trip(monkeypatch)
    assert str(err.value) == f"{text} in op {op!r}"


def test_guard_scans_when_the_sum_overflows():
    # a finite array whose sum overflows passes; one inf among finite values fails
    big = np.full(4, 1e308)
    with de.check_each_tensor():
        with np.errstate(over="ignore"):
            assert np.all(as_tensor(big).value == big)
        with pytest.raises(FloatingPointError):
            as_tensor(np.array([1e308, -1e308, np.inf]))


# -- copy-free backward -------------------------------------------------------------

def _read_only_grads(fn, params):
    """fn's gradients from a backward pass that hands every VJP a read-only
    cotangent: backward_pass passes cotangents on without copying them, so a
    VJP that wrote into its cotangent could change another node's."""
    def frozen(vjp):
        def call(g):
            if isinstance(g, np.ndarray):   # not a numpy scalar, which is immutable
                g.flags.writeable = False
            return vjp(g)
        return call

    with de.Tape() as tape:
        ps = {k: tape.param(np.asarray(v, dtype=np.float64).copy(), k) for k, v in params.items()}
        out = fn(ps)
        for node in tape._nodes:
            if node._vjp is not None:
                node._vjp = frozen(node._vjp)
        return de.backward_pass(out)


def _assert_backward_copy_free(fn, params):
    got = _read_only_grads(fn, params)
    _, want, _ = _value_and_grads(fn, params)
    for k, g in got.items():
        assert np.array_equal(g, want[k]), k
        # each gradient is an array of its own that the caller may update
        assert g.flags.owndata and g.flags.writeable, k


def _wsum(t):
    """A scalar that weighs each entry of t differently."""
    t = as_tensor(t)
    return de.tsum(de.mul(t, as_tensor(np.cos(np.arange(t.value.size)).reshape(t.value.shape))))


def _spd_stack(R):
    return add_diagonal(de.matmul(R, de.transpose(R)), 4.0)


_RNG = np.random.default_rng(21)
_CORE = {
    "matmul": (lambda ps: de.add(_wsum(de.matmul(ps["A"], ps["B"])),
                                 _wsum(de.matmul(ps["M"], ps["v"]))),
               {"A": _RNG.standard_normal((2, 3, 4)), "B": _RNG.standard_normal((4, 2)),
                "M": _RNG.standard_normal((3, 4)), "v": _RNG.standard_normal(4)}),
    "arithmetic": (lambda ps: _wsum(de.div(de.mul(de.sub(de.add(ps["A"], ps["v"]), ps["M"]),
                                                  ps["A"]), de.elementwise("exp", ps["v"]))),
                   {"A": _RNG.standard_normal((2, 3, 4)), "M": _RNG.standard_normal((3, 4)),
                    "v": _RNG.standard_normal(4)}),
    "shape": (lambda ps: _wsum(de.concat([
        de.reshape(de.tsum(de.transpose(ps["A"]), axis=0), (1, 12)),
        de.reshape(getitem(ps["A"], (Ellipsis, slice(1, 3), slice(None))), (1, 16)),
        de.reshape(getitem(ps["A"], (np.array([0, 1, 1]), 0)), (1, 12))], axis=1)),
        {"A": _RNG.standard_normal((2, 3, 4))}),
    "diagonal": (lambda ps: de.add(
        _wsum(de.diag_embed(de.diag_part(add_diagonal(ps["A"], ps["s"])))),
        _wsum(de.log_diag_sum(de.elementwise("exp", ps["A"]), np.arange(1.0, 5.0)))),
        {"A": _RNG.standard_normal((2, 4, 4)), "s": np.asarray(0.3)}),
    "elementwise": (lambda ps: functools.reduce(de.add, (
        _wsum(de.elementwise(tag, de.elementwise("affine", de.elementwise("exp", ps["x"]),
                                                 b=0.5), a=1.5, b=-0.2))
        for tag in ("exp", "log", "square", "reciprocal", "affine", "sqrt", "sigmoid")),
        _wsum(de.elementwise("relu", ps["x"]))),
        {"x": _RNG.standard_normal((3, 4))}),
    "factorisations": (lambda ps: de.add(de.add(
        _wsum(de.triangular_solve(de.cholesky_factor(_spd_stack(ps["R"])), ps["B"], trans=True)),
        _wsum(de.triangular_solve(ps["L"], ps["v"]))), _wsum(logdet_psd(_spd_stack(ps["R"])))),
        {"R": _RNG.standard_normal((2, 4, 4)), "B": _RNG.standard_normal((4, 3)),
         "L": np.tril(_RNG.standard_normal((4, 4))) + 3 * np.eye(4),
         "v": _RNG.standard_normal(4)}),
}


@pytest.mark.parametrize("case", sorted(_CORE))
def test_core_op_backward_leaves_its_cotangents_alone(case):
    _assert_backward_copy_free(*_CORE[case])


def _fused_cases():
    """(fused, reference, params) for each fused op the tests above hold
    against a reference."""
    rng = np.random.default_rng(22)
    X = {"X": rng.standard_normal((5, 3)), "X2": rng.standard_normal((4, 3)),
         "log_sf2": np.asarray(0.3), "log_ls": 0.2 * rng.standard_normal(3)}
    gram = {"F": rng.standard_normal((6, 3)), "Ft": rng.standard_normal((4, 3)),
            "log_sf2": np.asarray(0.2), "log_ls": np.asarray(-0.3)}

    def gram_fn(kernel):
        def fn(ps):
            G = de.matmul(ps["F"], de.transpose(ps["F"]))
            gi = de.diag_part(G)
            sf2, ls = _gram_se_params(_kp(ps))
            G_ti = de.matmul(ps["Ft"], de.transpose(ps["F"]))
            g_tt = de.tsum(de.elementwise("square", ps["Ft"]), axis=1)
            return de.add(_wsum(kernel(gi, G, gi, 3.0, sf2, ls)),
                          _wsum(kernel(g_tt, G_ti, gi, 3.0, sf2, ls)))
        return fn

    N, nu, nt = 4, 3, 3
    gw = {"log_beta": np.log(0.5) + 0.1 * rng.standard_normal(nt),
          "mu": 0.2 * rng.standard_normal((N, nt)),
          "log_sigma": 0.1 * rng.standard_normal((N, nt)),
          "Lraw": np.tril(0.2 * rng.standard_normal((N, N)), -1) + np.eye(N),
          "P": np.eye(N) + 0.1 * rng.standard_normal((N, N)),
          "B": np.tril(0.2 * rng.standard_normal((nt, nt)), -1) + 1.2 * np.eye(nt)}
    alpha = 0.5 * (nu - np.arange(1, nt + 1) + 1.0) + 0.3

    def gwish_fn(fused):
        def fn(ps):
            beta = de.elementwise("exp", ps["log_beta"])
            sigma = de.elementwise("exp", ps["log_sigma"])
            if fused:
                out = gwish_full_density(rd._gwish_sample(
                    ps["Lraw"], nu, alpha, beta, ps["mu"], sigma, rd.RngStream(11), ps["P"],
                    ps["B"]), nu, ps["P"])
            else:
                out = _ref_gwish(ps["Lraw"], nu, alpha, beta, ps["mu"], sigma,
                                 rd.RngStream(11), ps["P"], ps["B"])
            G, logq, feat, ld_block = out
            return de.add(de.add(logq, ld_block), de.add(_wsum(G), _wsum(feat)))
        return fn

    def mvn_fn(with_chol):
        def fn(ps):
            cov = _mvn_cov(ps)
            return mvn_log_density(ps["y"], ps["m"], cov,
                                      chol=de.cholesky_factor(cov) if with_chol else None)
        return fn

    cond = {"L": np.tril(0.3 * rng.standard_normal((4, 4))) + np.eye(4),
            "K_uf": rng.standard_normal((4, 6)), "k_ff": 5.0 + rng.random(6)}
    return {
        "se_kernel": (lambda ps: _wsum(se_ard_features(_kp(ps), ps["X"])),
                      lambda ps: _wsum(_ref_se_ard(_kp(ps), ps["X"])), X),
        "se_kernel_cross": (lambda ps: _wsum(se_ard_features(_kp(ps), ps["X"], ps["X2"])),
                            lambda ps: _wsum(_ref_se_ard(_kp(ps), ps["X"], ps["X2"])), X),
        "se_gram": (gram_fn(_se_gram), gram_fn(_ref_se_gram), gram),
        "normal_log_density": (
            lambda ps: rd.normal_log_density(ps["x"], ps["m"], de.elementwise("exp", ps["v"])),
            lambda ps: _ref_normal(ps["x"], ps["m"], de.elementwise("exp", ps["v"])),
            {"x": rng.standard_normal((4, 3)), "m": rng.standard_normal((4, 3)),
             "v": 0.3 * rng.standard_normal((4, 3))}),
        "mvn_log_density": (mvn_fn(False), lambda ps: _ref_mvn(ps["y"], ps["m"], _mvn_cov(ps)),
                            _mvn_params(6, rng)),
        "mvn_log_density_chol": (mvn_fn(True),
                                 lambda ps: _ref_mvn(ps["y"], ps["m"], _mvn_cov(ps)),
                                 _mvn_params(6, rng)),
        "wishart_root": (lambda ps: rd._wishart_log_density_root(ps["F"], ps["Ls"], 3, ps["ld"]),
                         lambda ps: _ref_wishart_root(ps["F"], ps["Ls"], 3, ps["ld"]),
                         {"F": np.tril(rng.standard_normal((5, 3))) + 2 * np.eye(5, 3),
                          "Ls": np.tril(0.3 * rng.standard_normal((5, 5))) + np.eye(5),
                          "ld": np.asarray(0.7)}),
        "conditional_variance": (
            lambda ps: _wsum(rd.gaussian_conditional(ps["L"], ps["K_uf"], ps["k_ff"])[1]),
            lambda ps: _wsum(_ref_conditional_variance(ps["L"], ps["K_uf"], ps["k_ff"])), cond),
        "conditional_sample": (
            lambda ps: _wsum(rd.conditional_sample(ps["mean"], ps["var"], rd.RngStream(9))),
            lambda ps: _wsum(_ref_conditional_sample(ps["mean"], ps["var"], rd.RngStream(9))),
            {"mean": rng.standard_normal((5, 3)), "var": np.array([0.5, 1.2, -1e-9, 0.3, 2.0])}),
        "gwish_sample_and_logpdf": (gwish_fn(True), gwish_fn(False), gw),
        **{f"gi_draw ({case})": _gi_case(case, rng) for case in _GI_CASES},
        **{f"conditional_draw ({case})": _cond_case(case, rng) for case in _COND_CASES},
    }


_FUSED = _fused_cases()


@pytest.mark.parametrize("case", sorted(_FUSED))
def test_fused_op_backward_leaves_its_cotangents_alone(case):
    fused, ref, params = _FUSED[case]
    _assert_backward_copy_free(fused, params)
    _assert_backward_copy_free(ref, params)


@pytest.mark.parametrize("kind", ["blr", "gp", "dkl", "svgp", "bnn-gi", "bnn-fac", "dgp-gi",
                                  "dgp-dsvi", "dwp", "dwp-a", "dwp-ab"])
def test_model_backward_leaves_its_cotangents_alone(kind):
    ds = gen_cubic_toy(0)
    model = _make_model(ExperimentConfig(model=kind, depth=3 if kind.startswith("dwp") else 2,
                                         widths=(5, 5), M=10), ds)
    _assert_backward_copy_free(
        lambda ps: model.objective(ps, ds.X_train, ds.y_train, 40, 3, rd.RngStream(123), 0.7),
        model.init_params())
