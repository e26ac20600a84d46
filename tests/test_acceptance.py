"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS line with the
measured quantity, and enforces its own wall-clock budget. The tests are
independent and runnable in any order.
"""

import time

import numpy as np
import pytest
from scipy import stats

from deepbayes import bench_cli as bc
from deepbayes import deep_models as dm
from deepbayes import diff_engine as de
from deepbayes import dwp as dw
from deepbayes import gp_models as gm
from deepbayes import rand_dist as rd
from deepbayes import train as tr
from deepbayes.diff_engine import as_tensor
from deepbayes.kernels import KernelParams, se_ard_features

import oracles
from fingerprint import synthetic_200


def _report(num, msg):
    print(f"ACCEPTANCE {num:02d} PASS: {msg}")


def _budget(num, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    return elapsed


def _spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * n * np.eye(n)


def _se_ratio(diff, se):
    """The largest |diff| / (3 se) over the entries: a moment check passes
    within 3 standard errors when this is below 1."""
    return float(np.max(np.abs(diff) / (3 * se)))


# -- 1: gradient suite ---------------------------------------------------------------

def _fn_dense(p):
    # touches matmul (matrix and vector), transpose, add/sub/mul/div,
    # diag_embed/diag_part, getitem, concat, reshape, tsum (axis and full),
    # and the smooth elementwise maps
    A, B, v = p["A"], p["B"], p["v"]
    M = de.matmul(A, B)                                       # 3x3
    S = de.add(M, de.transpose(M))
    softplus = de.elementwise("log", de.elementwise("affine", de.elementwise("exp", v), b=1.0))
    D = de.diag_embed(softplus)
    T = de.sub(S, de.elementwise("affine", D, a=-1.0))
    w = de.matmul(T, v)                                       # matvec
    r = de.elementwise("sigmoid", w)
    q = de.elementwise("relu", de.elementwise("affine", r, a=2.0, b=0.3))
    c = de.concat([q, oracles.getitem(T, 1)], axis=0)         # (6,)
    s1 = de.tsum(de.mul(c, c))
    dp = de.diag_part(de.matmul(M, M))
    s2 = de.tsum(de.div(dp, de.elementwise("affine",
                                           de.elementwise("square", v), b=1.0)))
    s3 = de.tsum(de.elementwise("exp", de.elementwise("affine", M, a=0.1)), axis=0)
    return de.add(de.add(s1, s2), de.tsum(de.reshape(s3, (3, 1))))


def _fn_spd(p):
    # touches cholesky_factor, triangular_solve (both transposes), logdet_psd,
    # log, sqrt, reciprocal
    P, x = p["P"], p["x"]
    sym = de.add(de.matmul(P, de.transpose(P)), as_tensor(np.eye(3)))
    L = de.cholesky_factor(sym)
    w = de.triangular_solve(L, x)
    z = de.triangular_solve(L, w, trans=True)
    quad = de.tsum(de.mul(x, z))
    x2p1 = de.elementwise("affine", de.elementwise("square", x), b=1.0)
    extra = de.add(de.tsum(de.elementwise("log", x2p1)),
                   de.add(de.tsum(de.elementwise("reciprocal", x2p1)),
                          de.tsum(de.elementwise("sqrt", x2p1))))
    return de.add(de.add(quad, oracles.logdet_psd(sym)), extra)


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rep1 = de.finite_diff_check(
            _fn_dense, {"A": rng.standard_normal((3, 4)),
                        "B": rng.standard_normal((4, 3)),
                        "v": rng.standard_normal(3)})
        rep2 = de.finite_diff_check(
            _fn_spd, {"P": rng.standard_normal((3, 3)),
                      "x": rng.standard_normal(3)})
        assert rep1["passed"] and rep1["max_rel_error"] < 1e-5
        assert rep2["passed"] and rep2["max_rel_error"] < 1e-5
        worst = max(worst, rep1["max_rel_error"], rep2["max_rel_error"])
    el = _budget(1, t0, 60)
    _report(1, f"all ops within 1e-5 of finite differences over 10 seeds "
               f"(worst rel err {worst:.2e}, {el:.1f}s)")


# -- 2: optimal signal variance ------------------------------------------------------

def test_criterion_02_optimal_signal_variance_data_fit():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(5, 51))
        X = rng.standard_normal((N, 2))
        y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(N)

        kp = KernelParams(log_sf2=rng.uniform(-1, 1),
                          log_lengthscales=rng.uniform(-0.5, 0.5, 2))
        st = gm.GpState(kernel_params=kp, log_noise=rng.uniform(-3, -1))
        _, fit, _ = oracles.prop31_check(st, X, y)
        worst = max(worst, abs(float(fit.value) + N / 2))

        # deep-kernel features: relu net, then the same identity on the features
        dims = [2, 8, 3]
        ws = [(rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i]),
               rng.standard_normal(dims[i + 1]) * 0.1) for i in range(2)]
        F = gm.dkl_forward(ws, X).value
        kp_d = KernelParams(log_sf2=rng.uniform(-1, 1),
                            log_lengthscales=rng.uniform(-0.5, 0.5, 3))
        st_d = gm.GpState(kernel_params=kp_d, log_noise=rng.uniform(-3, -1))
        _, fit_d, _ = oracles.prop31_check(st_d, F, y)
        worst = max(worst, abs(float(fit_d.value) + N / 2))
    assert worst < 1e-8
    el = _budget(2, t0, 10)
    _report(2, f"data fit equals -N/2 after optimal signal variance on 20 "
               f"datasets x 2 kernels (worst dev {worst:.2e}, {el:.1f}s)")


# -- 3: Wishart moment suite ---------------------------------------------------------

def test_criterion_03_wishart_moments():
    t0 = time.monotonic()
    N, nu, K = 3, 5, 200_000
    rng0 = np.random.default_rng(3)
    Sigma = _spd(rng0, N) / N
    Ls = np.linalg.cholesky(Sigma)

    # the Bartlett sampler the Gram layers run, at the standard Wishart's
    # parameters, and the outer product of nu Gaussian rows
    F1 = rd._gwish_sample(Ls, nu, *dw.standard_bartlett_params(N, nu),
                          rd.RngStream(30, K))[1].value
    G1 = F1 @ np.swapaxes(F1, -1, -2)
    xs = rd.RngStream(31).normal((K, nu, N)) @ Ls.T
    G2 = np.einsum("kji,kjl->kil", xs, xs)

    mean_ref = nu * Sigma
    var_ref = nu * (Sigma ** 2 + np.outer(np.diag(Sigma), np.diag(Sigma)))
    ratios = []
    for G in (G1, G2):
        m = G.mean(axis=0)
        ratios.append(_se_ratio(m - mean_ref, G.std(axis=0) / np.sqrt(K)))
        ratios.append(_se_ratio(G.var(axis=0) - var_ref,
                                ((G - m) ** 2).std(axis=0) / np.sqrt(K)))

    # the two samplers agree with each other in both moments
    m1, m2 = G1.mean(axis=0), G2.mean(axis=0)
    ratios.append(_se_ratio(m1 - m2, np.sqrt(G1.var(axis=0) / K + G2.var(axis=0) / K)))
    ratios.append(_se_ratio(G1.var(axis=0) - G2.var(axis=0),
                            np.sqrt((((G1 - m1) ** 2).var(axis=0)
                                     + ((G2 - m2) ** 2).var(axis=0)) / K)))
    assert max(ratios) < 1, ratios
    el = _budget(3, t0, 120)
    _report(3, f"Bartlett and outer-product samplers match nu*Sigma and the "
               f"entry variances within 3 SE over {K} draws (largest |error| / "
               f"bound {max(ratios):.2f}, {el:.1f}s)")


# -- 4: Jacobian suite ---------------------------------------------------------------

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


def test_criterion_04_jacobian_suite():
    t0 = time.monotonic()
    worst = 0.0
    for N, nu in [(2, 2), (3, 2), (3, 3)]:
        rng = np.random.default_rng(100 * N + nu)
        ntilde = min(N, nu)
        r, c = _trap_indices(N, ntilde)

        lam = np.tril(rng.standard_normal((N, N)))[:, :ntilde]
        lam[np.arange(ntilde), np.arange(ntilde)] = np.abs(
            lam[np.arange(ntilde), np.arange(ntilde)]) + 0.5

        def llt_fwd(v):
            m = np.zeros((N, ntilde))
            m[r, c] = v
            return (m @ m.T)[r, c]
        worst = max(worst, abs(oracles.jacobian_logdets("llt", factor=lam).value
                               - _num_jac_logdet(llt_fwd, lam[r, c])))

        L = np.tril(rng.standard_normal((N, N)))
        L[np.arange(N), np.arange(N)] = np.abs(np.diag(L)) + 0.5

        def left_fwd(v):
            T = np.zeros((N, ntilde))
            T[r, c] = v
            return (L @ T)[r, c]
        worst = max(worst, abs(oracles.jacobian_logdets("left_mul", L=L, nu=nu).value
                               - _num_jac_logdet(left_fwd, rng.standard_normal(r.size))))

        B = np.tril(rng.standard_normal((ntilde, ntilde)))
        B[np.arange(ntilde), np.arange(ntilde)] = np.abs(np.diag(B)) + 0.5

        def right_fwd(v):
            T = np.zeros((N, ntilde))
            T[r, c] = v
            return (T @ B)[r, c]
        worst = max(worst, abs(oracles.jacobian_logdets("right_mul", B=B, N=N, nu=nu).value
                               - _num_jac_logdet(right_fwd, rng.standard_normal(r.size))))

        A = rng.standard_normal((N, N)) + 2 * np.eye(N)
        C = lam @ lam.T

        def complete(v):
            M = np.zeros((N, N))
            M[r, c] = v
            M[c, r] = v
            C11 = M[:ntilde, :ntilde]
            C21 = M[ntilde:, :ntilde]
            M[ntilde:, ntilde:] = C21 @ np.linalg.solve(C11, C21.T)
            return M

        def cong_fwd(v):
            return (A @ complete(v) @ A.T)[r, c]
        got = oracles.jacobian_logdets("congruence", A=A, C_block=C[:ntilde, :ntilde],
                                       D_block=(A @ C @ A.T)[:ntilde, :ntilde],
                                       N=N, nu=nu).value
        worst = max(worst, abs(got - _num_jac_logdet(cong_fwd, C[r, c])))
    assert worst < 1e-4

    # assembled density reduces to the scaled chi-squared law in 1 dimension
    stream = rd.RngStream(4)
    worst_chi2 = 0.0
    for nu in (1, 3, 7):
        s2 = 0.7
        g = s2 * 2.0 * stream.standard_gamma(0.5 * nu)
        logp = oracles.wishart_log_density(np.asarray([[g]]), np.asarray([[s2]]), nu).value
        ref = stats.chi2.logpdf(g / s2, df=nu) - np.log(s2)
        worst_chi2 = max(worst_chi2, abs(logp - ref))
    assert worst_chi2 < 1e-10
    el = _budget(4, t0, 30)
    _report(4, f"all four Jacobian log-dets within 1e-4 of numerical Jacobians "
               f"(worst {worst:.2e}); chi-squared reduction within 1e-10 "
               f"({worst_chi2:.2e}, {el:.1f}s)")


# -- 5: generalized-density reduction ------------------------------------------------

def test_criterion_05_generalized_wishart_reduction():
    t0 = time.monotonic()
    N, nu = 4, 2
    rng = np.random.default_rng(5)
    S = _spd(rng, N) / N
    L = np.linalg.cholesky(S)
    a, b, mu, sg = dw.standard_bartlett_params(N, nu)
    nt = min(N, nu)
    worst = 0.0
    for seed in range(20):
        G, logq, _, _ = oracles.gwish_full_density(
            rd._gwish_sample(L, nu, a, b, mu, sg, rd.RngStream(500 + seed)), nu)
        worst = max(worst, abs(float(logq.value)
                               - float(oracles.wishart_log_density(G.value, S, nu).value)))
    assert worst < 1e-8

    # A = I and A = I, B = I reduce to the base sampler exactly under shared draws
    worst_nest = 0.0
    for seed in range(5):
        G0, lq0, _, _ = oracles.gwish_full_density(
            rd._gwish_sample(L, nu, a, b, mu, sg, rd.RngStream(900 + seed)), nu)
        Ga, lqa, _, _ = oracles.gwish_full_density(rd._gwish_sample(
            L, nu, a, b, mu, sg, rd.RngStream(900 + seed), A_packed=np.eye(N)), nu, np.eye(N))
        Gab, lqab, _, _ = oracles.gwish_full_density(rd._gwish_sample(
            L, nu, a, b, mu, sg, rd.RngStream(900 + seed), A_packed=np.eye(N), B=np.eye(nt)),
            nu, np.eye(N))
        worst_nest = max(worst_nest,
                         np.max(np.abs(G0.value - Ga.value)),
                         np.max(np.abs(G0.value - Gab.value)),
                         abs(float(lq0.value) - float(lqa.value)),
                         abs(float(lq0.value) - float(lqab.value)))
    assert worst_nest < 1e-10
    el = _budget(5, t0, 10)
    _report(5, f"generalized singular density equals the singular Wishart at "
               f"standard parameters (worst {worst:.2e}); identity variants "
               f"nest exactly ({worst_nest:.2e}, {el:.1f}s)")


# -- 6: Gram-kernel identity ---------------------------------------------------------

def test_criterion_06_gram_kernel_identity_and_rotation():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        F = rng.standard_normal((n, d))
        kp = KernelParams(log_sf2=rng.uniform(-1, 1),
                          log_lengthscales=rng.uniform(-0.5, 0.5))
        K_feat = se_ard_features(kp, F).value
        K_gram = oracles.se_from_gram(kp, F @ F.T / d, d).value
        worst = max(worst, np.max(np.abs(K_feat - K_gram)))
    assert worst < 1e-10

    worst_rot = 0.0
    for _ in range(20):
        n, d = 8, 3
        X = rng.standard_normal((n, d))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        kp = KernelParams(log_sf2=rng.uniform(-1, 1),
                          log_lengthscales=rng.uniform(-0.5, 0.5))
        worst_rot = max(worst_rot, np.max(np.abs(
            se_ard_features(kp, X).value - se_ard_features(kp, X @ Q).value)))
    assert worst_rot < 1e-10
    el = _budget(6, t0, 5)
    _report(6, f"gram and feature kernels agree within 1e-10 on 50 roots "
               f"(worst {worst:.2e}); rotation invariance {worst_rot:.2e} ({el:.1f}s)")


# -- 7: sparse-GP bounds -------------------------------------------------------------

def test_criterion_07_sparse_gp_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_gap = -np.inf
    for _ in range(100):
        n = int(rng.integers(8, 26))
        D = int(rng.integers(1, 3))
        M = int(rng.integers(2, n))
        X = rng.standard_normal((n, D))
        y = rng.standard_normal(n)
        kp = KernelParams(log_sf2=rng.uniform(-1, 1),
                          log_lengthscales=rng.uniform(-0.5, 0.5, D))
        log_noise = rng.uniform(-3, 0)
        st = gm.SvgpState(Z=X[:M].copy(), m=np.zeros(M), S_chol=np.eye(M),
                          kernel_params=kp, log_noise=log_noise)
        bound = float(oracles.svgp_collapsed_bound(st, X, y)[0].value)
        lml = float(gm.gp_predict_lml(
            gm.GpState(kernel_params=kp, log_noise=log_noise), X, y)[2].value)
        assert bound <= lml + 1e-8
        worst_gap = max(worst_gap, bound - lml)

    worst_eq = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 15))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        kp = KernelParams(log_sf2=0.2, log_lengthscales=np.zeros(2))
        st = gm.SvgpState(Z=X.copy(), m=np.zeros(n), S_chol=np.eye(n),
                          kernel_params=kp, log_noise=-1.0)
        bound = float(oracles.svgp_collapsed_bound(st, X, y)[0].value)
        lml = float(gm.gp_predict_lml(
            gm.GpState(kernel_params=kp, log_noise=-1.0), X, y)[2].value)
        worst_eq = max(worst_eq, abs(bound - lml))
    assert worst_eq < 1e-8

    for _ in range(100):
        n = int(rng.integers(8, 26))
        M = int(rng.integers(2, n - 1))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        kp = KernelParams(log_sf2=rng.uniform(-1, 1),
                          log_lengthscales=rng.uniform(-0.5, 0.5, 2))
        log_noise = rng.uniform(-2, 0)
        b1 = float(oracles.svgp_collapsed_bound(
            gm.SvgpState(Z=X[:M].copy(), m=np.zeros(M), S_chol=np.eye(M),
                         kernel_params=kp, log_noise=log_noise), X, y)[0].value)
        b2 = float(oracles.svgp_collapsed_bound(
            gm.SvgpState(Z=X[:M + 1].copy(), m=np.zeros(M + 1),
                         S_chol=np.eye(M + 1),
                         kernel_params=kp, log_noise=log_noise), X, y)[0].value)
        assert b2 >= b1 - 1e-8
    el = _budget(7, t0, 30)
    _report(7, f"collapsed bound <= exact LML on 100 configs (max gap "
               f"{worst_gap:.2e}), tight at Z=X ({worst_eq:.2e}), monotone "
               f"under inducing additions ({el:.1f}s)")


# -- 8: optimal last layer -----------------------------------------------------------

def test_criterion_08_optimal_last_layer_matches_exact_posterior():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    M, d0, h = 12, 2, 6
    sigma = 0.3
    X = rng.standard_normal((M, d0))
    y = rng.standard_normal(M)
    worst = 0.0
    for seed in range(10):
        rng_s = np.random.default_rng(1000 + seed)
        W = rng_s.standard_normal((d0, h))
        feats = np.concatenate([np.maximum(X @ W, 0.0), np.ones((M, 1))], axis=1)

        layer = dm.GiBnnLayer(V=y[:, None].copy(),
                              log_lambda=np.full(M, -2.0 * np.log(sigma)),
                              prior=dm.PriorSpec("standard"))
        root, C, h_post = (t.value for t in oracles.gi_posterior(
            dm._gi_bnn_root(layer.prior, feats.shape[1]), feats, layer.log_lambda, layer.V))
        Ls = root * np.linalg.inv(C).T                    # the posterior root L C^{-T}

        m, S, _, _ = oracles.blr_fit_predict_lml(oracles.BlrState(alpha=1.0, sigma=sigma),
                                                 feats, y)
        worst = max(worst,
                    np.max(np.abs((Ls @ h_post)[:, 0] - m.value)),
                    np.max(np.abs(Ls @ Ls.T - S.value)))
    assert worst < 1e-8
    el = _budget(8, t0, 10)
    _report(8, f"global-inducing last layer reproduces the exact linear-model "
               f"posterior moments (worst dev {worst:.2e}, {el:.1f}s)")


# -- 9: exact-recovery training ------------------------------------------------------

def test_criterion_09_exact_recovery_training():
    t0 = time.monotonic()
    ds = bc.gen_cubic_toy(0)
    n = ds.X_train.shape[0]
    model = bc.BlrViModel(ds)
    exact_pp = oracles.exact_lml(model, ds) / n
    cfg = tr.TrainConfig(steps=5000, lr=1e-2, lr_drop_steps=(3000,),
                         anneal_steps=0, train_samples=1, eval_samples=1,
                         eval_every=2500, seed=0)
    res = tr.train_loop(model, ds, cfg)
    assert res["aborted"] is None
    final_pp = res["final"]["elbo_per_point"]
    gap = exact_pp - final_pp
    assert gap < 0.01
    el = _budget(9, t0, 180)
    _report(9, f"full-covariance VI reaches within {gap:.2e} nats/point of the "
               f"exact log marginal likelihood in 5000 steps ({el:.1f}s)")


# -- 10: Gram-prior / deep-GP equivalence --------------------------------------------

def test_criterion_10_gram_prior_matches_dgp_layer():
    t0 = time.monotonic()
    N, nu, nu0, K = 4, 3, 4, 200_000
    rng = np.random.default_rng(10)
    X0 = rng.standard_normal((N, nu0))
    G0 = X0 @ X0.T / nu0
    kp = KernelParams(log_sf2=0.1, log_lengthscales=np.log(0.7))
    Kmat = oracles.se_from_gram(kp, G0, nu0).value
    Lp = np.linalg.cholesky(Kmat / nu)

    # shared-draw fidelity: the layer sampler is exactly scale-root times
    # a Bartlett factor, the root the sampler draws at an identity scale
    G = oracles.dwp_prior_layer(G0, kp, nu, rd.RngStream(42, 50), nu_prev=nu0)[0].value
    T = rd._gwish_sample(np.eye(N), nu, *dw.standard_bartlett_params(N, nu),
                         rd.RngStream(42, 50))[3].value
    F = Lp @ T
    assert np.allclose(G, F @ np.swapaxes(F, -1, -2), atol=1e-12)

    Gw = oracles.dwp_prior_layer(G0, kp, nu, rd.RngStream(1001, K), nu_prev=nu0)[0].value

    # zero-mean GP layer: F has nu columns drawn from N(0, K); G = F F^T / nu
    Lk = np.linalg.cholesky(Kmat)
    xi = rd.RngStream(1002).normal((K, nu, N)) @ Lk.T        # (K, nu, N)
    Gd = np.einsum("kji,kjl->kil", xi, xi) / nu

    m1, m2 = Gw.mean(axis=0), Gd.mean(axis=0)
    v1, v2 = Gw.var(axis=0), Gd.var(axis=0)
    ratios = [_se_ratio(m1 - m2, np.sqrt(v1 / K + v2 / K)),
              _se_ratio(v1 - v2, np.sqrt((((Gw - m1) ** 2).var(axis=0)
                                          + ((Gd - m2) ** 2).var(axis=0)) / K))]
    # both also match the analytic conditional moments
    var_ref = (Kmat ** 2 + np.outer(np.diag(Kmat), np.diag(Kmat))) / nu
    ratios.append(_se_ratio(m1 - Kmat, np.sqrt(v1 / K)))
    ratios.append(_se_ratio(v1 - var_ref, ((Gw - m1) ** 2).std(axis=0) / np.sqrt(K)))
    assert max(ratios) < 1, ratios
    el = _budget(10, t0, 120)
    _report(10, f"Gram-prior and deep-GP-layer samples agree in conditional "
                f"mean and variance within 3 SE over {K} draws (largest "
                f"|error| / bound {max(ratios):.2f}, {el:.1f}s)")


# -- 11: imagined-feature invariance -------------------------------------------------

def test_criterion_11_imagined_feature_root_invariance():
    t0 = time.monotonic()
    M, nt, nu, K = 4, 3, 3, 20_000
    rng = np.random.default_rng(11)
    # the previous layer's roots of the inducing and the test rows, whose
    # SE kernel over 1/nu is the prior scale of the test rows' draw
    kp, X = KernelParams(), rng.standard_normal((M + nt, 2))
    S_ii = se_ard_features(kp, X[:M]).value / nu
    F0 = rng.standard_normal((M, nu))
    Q, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
    roots = [F0, F0 @ Q]
    assert np.allclose(roots[0] @ roots[0].T, roots[1] @ roots[1].T, atol=1e-12)

    L_ii = np.linalg.cholesky(S_ii)
    draws = [dw.dwp_conditional_testpoints(R, de.triangular_solve(L_ii, R), L_ii, kp.lengthscales(),
                                           kp.sf2(), X[:M], X[M:], nu, rd.RngStream(1100 + i, K))
             for i, R in enumerate(roots)]
    # the cross blocks G_ti = F_t F_i^T and g_tt = |F_t|^2 of each draw's roots
    (a1, b1), (a2, b2) = [(F_t.value @ F_i.value.T, np.sum(F_t.value ** 2, axis=-1))
                          for F_i, F_t in draws]
    ratios = [_se_ratio(x1.mean(axis=0) - x2.mean(axis=0),
                        np.sqrt(x1.var(axis=0) / K + x2.var(axis=0) / K))
              for x1, x2 in ((a1, a2), (a1 ** 2, a2 ** 2), (b1, b2), (b1 ** 2, b2 ** 2))]
    assert max(ratios) < 1, ratios
    el = _budget(11, t0, 60)
    _report(11, f"both square roots of the inducing Gram give matching "
                f"cross-block moments within 3 SE over {K} draws (largest "
                f"|error| / bound {max(ratios):.2f}, {el:.1f}s)")


# -- 12: inducing-extension algebra --------------------------------------------------

def test_criterion_12_inducing_extension_certificate():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(50):
        M = int(rng.integers(2, 7))
        J = _spd(rng, M + 1) / (M + 1)
        Sigma_uu, sigma_us, sigma_ss = J[:M, :M], J[M:, :M].ravel(), J[M, M]
        Psi_uu = Sigma_uu.copy() if i % 10 == 0 else _spd(rng, M) / M
        _, _, cert = oracles.wishart_inducing_extension(Sigma_uu, sigma_us,
                                                        sigma_ss, Psi_uu)
        worst = max(worst, cert["weights_residual"], cert["schur_residual"])
        if np.linalg.norm(Psi_uu - Sigma_uu) > 1e-3:
            assert cert["iw_residual"] > 1e-6
    assert worst < 1e-10
    el = _budget(12, t0, 10)
    _report(12, f"extension certificate passes at 1e-10 on 50 pairs (worst "
                f"{worst:.2e}); inverse-Wishart residual nonzero whenever the "
                f"scales differ ({el:.1f}s)")


# -- 13: global-inducing vs factorised BNN -------------------------------------------

@pytest.mark.slow
def test_criterion_13_global_inducing_beats_factorised_bnn():
    t0 = time.monotonic()
    ds = bc.gen_cubic_toy(0)
    n = ds.X_train.shape[0]
    gaps = []
    for seed in range(3):
        finals = {}
        for post in ("gi", "fac"):
            model = bc.BnnModel(ds, posterior=post, widths=(50, 50),
                                prior_variant="neal", seed=seed)
            cfg = tr.TrainConfig(steps=800, lr=1e-2, lr_drop_steps=(600,),
                                 anneal_steps=200, train_samples=3,
                                 eval_samples=8, eval_every=400, seed=seed)
            res = tr.train_loop(model, ds, cfg)
            assert res["aborted"] is None
            p = {k: as_tensor(v) for k, v in res["params"].items()}
            elbo = model.objective(p, ds.X_train, ds.y_train, n, 50,
                                   rd.RngStream(7000 + seed), 1.0)
            finals[post] = float(elbo.value) / n
        assert finals["gi"] > finals["fac"]
        gaps.append(finals["gi"] - finals["fac"])
    mean_gap = float(np.mean(gaps))
    assert mean_gap > 1.0
    el = _budget(13, t0, 900)
    _report(13, f"global-inducing ELBO beats factorised on every seed; mean "
                f"gap {mean_gap:.2f} nats/point over 3 seeds ({el:.1f}s)")


# -- 14: Gram-layer variants do not hurt ---------------------------------------------

@pytest.mark.slow
def test_criterion_14_variant_final_bounds_at_least_base():
    t0 = time.monotonic()
    ds = synthetic_200(0)
    n = ds.X_train.shape[0]
    finals = {"base": [], "A": [], "AB": []}
    for seed in range(3):
        for variant in ("base", "A", "AB"):
            model = bc.DwpModel(ds, n_gram_layers=2, M=10, variant=variant,
                                seed=seed)
            cfg = tr.TrainConfig(steps=800, lr=5e-3, lr_drop_steps=(600,),
                                 anneal_steps=200, train_samples=2,
                                 eval_samples=8, eval_every=400, seed=seed,
                                 clip_norm=10.0)
            res = tr.train_loop(model, ds, cfg)
            assert res["aborted"] is None, res["aborted"]
            p = {k: as_tensor(v) for k, v in res["params"].items()}
            elbo = model.objective(p, ds.X_train, ds.y_train, n, 400,
                                   rd.RngStream(7100 + seed), 1.0)
            finals[variant].append(float(elbo.value) / n)
    base = float(np.mean(finals["base"]))
    mean_a = float(np.mean(finals["A"]))
    mean_ab = float(np.mean(finals["AB"]))
    for seed in range(3):
        assert finals["A"][seed] >= finals["base"][seed] - 0.02
        assert finals["AB"][seed] >= finals["base"][seed] - 0.02
    assert mean_a >= base - 0.02
    assert mean_ab >= base - 0.02
    el = _budget(14, t0, 1200)
    _report(14, f"variant final bounds (A {mean_a:.3f}, AB {mean_ab:.3f}) are "
                f"within 0.02 nats of base ({base:.3f}) over 3 seeds ({el:.1f}s)")


# -- 15: rotational invariance of the deep-Wishart bound -----------------------------

def test_criterion_15_dwp_elbo_rotation_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(15)
    M, nu, D = 4, 3, 2
    Xi = rng.standard_normal((M, D))
    a, b, mu, sg = dw.standard_bartlett_params(M, nu)
    nt = min(M, nu)
    layers = []
    for i in range(2):
        layers.append(dw.GWishLayerPosterior(
            V=np.linalg.cholesky(_spd(rng, M)) / np.sqrt(M),
            logit_q=np.log(0.1 / 0.9), nu=nu,
            log_alpha=np.log(a) + 0.05 * rng.standard_normal(nt),
            log_beta=np.log(b), mu=mu, log_sigma=np.log(sg),
            kernel_params=KernelParams(log_sf2=0.1, log_lengthscales=0.2),
            nu_in=nu if i else 1))
    layers.append(dw.DwpOutputLayer(V=rng.standard_normal((M, 1)), log_lambda=np.zeros(M),
                                    nu_in=nu))
    Xt = rng.standard_normal((5, D))
    y = rng.standard_normal(5)

    def elbo(Xi, X):
        return float(dm.mc_elbo(lambda st: dm.forward(layers, Xi, X, st), y, 5, 1,
                                rd.RngStream(150), np.log(0.3)).value)
    e1 = elbo(Xi, Xt)
    Q, _ = np.linalg.qr(rng.standard_normal((D, D)))
    e2 = elbo(Xi @ Q, Xt @ Q)
    dev = abs(e1 - e2)
    assert dev < 1e-10
    el = _budget(15, t0, 10)
    _report(15, f"deep-Wishart bound invariant under input rotation with shared "
                f"draws (dev {dev:.2e}, {el:.1f}s)")
