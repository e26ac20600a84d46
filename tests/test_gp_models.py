import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deepbayes import diff_engine as de
from deepbayes import gp_models
from deepbayes import rand_dist as rd
from deepbayes.bench_cli import GpLmlModel, SvgpModel, gen_cubic_toy, gen_deep_linear
from deepbayes.diff_engine import as_tensor
from deepbayes.gp_models import (GpState, SvgpState, dkl_forward, gaussian_bump_features,
                                 gp_predict_lml, make_bump_centers, svgp_elbo)
from deepbayes.kernels import KernelParams, _SeArd, se_ard_features

from counts import engine_calls
from fingerprint import synthetic_200
from oracles import (BlrState, blr_fit_predict_lml, gp_chain, mvn_log_density, prop31_check,
                     svgp_collapsed_bound)


def _chol_lower(S):
    return np.linalg.cholesky(S)


# -- Bayesian linear regression ---------------------------------------------------

def test_blr_hand_worked_posterior():
    # single weight, phi = x: prior N(0, 1), noise 1, data (x, y) = (1, 2), (1, 2)
    # precision = 1 + 2, m = S * phi^T y = (1/3) * 4 = 4/3
    state = BlrState(alpha=1.0, sigma=1.0)
    m, S, _, _ = blr_fit_predict_lml(state, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert np.isclose(S.value[0, 0], 1.0 / 3.0)
    assert np.isclose(m.value[0], 4.0 / 3.0)


def test_blr_no_data_returns_prior():
    state = BlrState(alpha=2.0, sigma=1.0, centers=np.array([0.0, 1.0]), width=1.0)
    m, S, pred, lml = blr_fit_predict_lml(state, np.zeros(0), np.zeros(0),
                                          X_star=np.array([0.5]))
    assert np.allclose(m.value, 0.0)
    assert np.allclose(S.value, 4.0 * np.eye(2))
    assert lml.value == 0.0
    assert np.allclose(pred[0].value, 0.0)


def test_blr_small_noise_interpolates():
    x = np.linspace(-1, 1, 7)
    y = np.sin(2 * x)
    centers, width = make_bump_centers(x, 10)
    state = BlrState(alpha=5.0, sigma=1e-6, centers=centers, width=width)
    _, _, pred, _ = blr_fit_predict_lml(state, x, y, X_star=x)
    assert np.max(np.abs(pred[0].value - y)) < 1e-3


def test_blr_lml_matches_direct_density():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    y = rng.standard_normal(9)
    centers, width = make_bump_centers(x, 5)
    state = BlrState(alpha=1.4, sigma=0.6, centers=centers, width=width)
    _, _, _, lml = blr_fit_predict_lml(state, x, y)
    phi = gaussian_bump_features(x, centers, width).value
    cov = 1.4 ** 2 * phi @ phi.T + 0.36 * np.eye(9)
    assert np.isclose(lml.value, mvn_log_density(y, np.zeros(9), cov=cov).value)


def test_blr_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        blr_fit_predict_lml(BlrState(alpha=-1.0), np.ones(2), np.ones(2))


def test_bump_centers_span_inputs():
    x = np.array([-2.0, 0.0, 3.0])
    centers, width = make_bump_centers(x, 6)
    assert centers[0] == -2.0 and centers[-1] == 3.0
    assert np.isclose(width, 1.0)
    phi = gaussian_bump_features(x, centers, width).value
    assert phi.shape == (3, 6) and np.all(phi > 0) and np.all(phi <= 1)


# -- exact GP regression ------------------------------------------------------------

def test_gp_interpolates_as_noise_vanishes():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 1))
    y = np.sin(X[:, 0])
    state = GpState(log_noise=np.log(1e-10))
    mean, var, _ = gp_predict_lml(state, X, y, X_star=X)
    assert var.value.shape == (6,)
    assert np.max(np.abs(mean.value - y)) < 1e-4
    assert np.max(var.value) < 1e-4


def test_gp_with_linear_kernel_equals_blr():
    # kernel alpha^2 phi phi^T reproduces the weight-space marginal exactly
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)
    centers, width = make_bump_centers(x, 4)
    alpha, sigma = 1.3, 0.5
    _, _, _, lml_blr = blr_fit_predict_lml(
        BlrState(alpha=alpha, sigma=sigma, centers=centers, width=width), x, y)
    def kern(X1, X2):
        p1 = gaussian_bump_features(np.ravel(de.as_tensor(X1).value), centers, width)
        p2 = gaussian_bump_features(np.ravel(de.as_tensor(X2).value), centers, width)
        return de.elementwise("affine", de.matmul(p1, de.transpose(p2)), a=alpha ** 2)
    state = GpState(log_noise=np.log(sigma ** 2))
    _, _, lml_gp = _chain(state, x.reshape(-1, 1), y, kern=kern)
    assert np.isclose(lml_blr.value, lml_gp.value, atol=1e-10)


def _chain(state: GpState, X, y, X_star=None, kern=None):
    """The same GP built from the generic ops (gp_chain: the kernel,
    add_diagonal, cholesky_factor, mvn_log_density) instead of its one node,
    with the state's noise and its SE-ARD kernel, or the kernel function
    kern."""
    kern = kern or (lambda a, b: se_ard_features(state.kernel_params, a, b))
    return gp_chain(kern, state.noise_var(), X, y, X_star)


def _lml_and_grads(model, params, X, y, generic=False):
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in params.items()}
        st, feats = model._state_and_features(p, X)
        lml = (_chain if generic else gp_predict_lml)(st, feats, y)[2]
        return float(lml.value), de.backward_pass(lml), len(tape._nodes)


def _assert_node_matches_the_chain(model, params, X, y):
    val, grads, nodes = _lml_and_grads(model, params, X, y)
    ref, ref_grads, ref_nodes = _lml_and_grads(model, params, X, y, generic=True)
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert set(grads) == set(ref_grads) == set(params)
    for k, g in ref_grads.items():
        assert np.linalg.norm(grads[k] - g) <= 1e-12 * np.linalg.norm(g), k
    # one node in place of the kernel, add_diagonal, cholesky_factor and
    # the density
    assert nodes == ref_nodes - 3


def _moved_params(model):
    rng = np.random.default_rng(3)
    return {k: v + 0.1 * rng.standard_normal(np.shape(v))
            for k, v in model.init_params().items()}


@pytest.mark.parametrize("ard, dkl_widths", [(True, None), (False, None), (True, (4, 3))])
def test_exact_lml_node_matches_the_generic_chain(ard, dkl_widths):
    # ARD lengthscales, one shared lengthscale, and deep-kernel features,
    # whose inputs to the kernel are tracked
    ds = gen_deep_linear(0)
    model = GpLmlModel(ds, ard=ard, dkl_widths=dkl_widths)
    _assert_node_matches_the_chain(model, _moved_params(model), ds.X_train[:60], ds.y_train[:60])


@pytest.mark.parametrize("n", [127, 128, 129, 300])
@pytest.mark.parametrize("ard, dkl_widths", [(True, None), (False, None), (True, (4, 3))])
def test_exact_lml_node_matches_the_chain_across_tiles(ard, dkl_widths, n):
    # the backward reduces 128 x 128 tiles of one triangle and their
    # mirrors: one tile and a one-row remainder, and a partial last tile
    assert gp_models._TILE == 128
    ds = gen_deep_linear(0)
    model = GpLmlModel(ds, ard=ard, dkl_widths=dkl_widths)
    _assert_node_matches_the_chain(model, _moved_params(model), ds.X_train[:n], ds.y_train[:n])


def _duplicated_rows(log_noise):
    # 150 standard-normal rows in 2-D, each repeated 150 rows later, so a
    # row and its copy meet in an off-diagonal tile (rows 128-299 against
    # columns 0-149) as well as in the diagonal ones; the copies move by
    # 1e-9, so a clamped pair's term in the inputs' gradient is not zero
    # with or without the mask, as it is for an exact copy
    rng = np.random.default_rng(23)
    X = rng.standard_normal((150, 2))
    X = np.concatenate([X, X + 1e-9 * rng.standard_normal((150, 2))])
    params = {"log_sf2": np.asarray(0.2), "log_ls": np.array([-0.1, 0.3]),
              "log_noise": np.asarray(log_noise)}
    return params, X, np.sin(X[:, 0])


def _state_lml_and_grads(params, X, y, generic=False):
    # the rows of X are tracked too, so their cotangents reach both tiles
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in {**params, "X": X}.items()}
        state = GpState(kernel_params=KernelParams(log_sf2=p["log_sf2"],
                                                   log_lengthscales=p["log_ls"]),
                        log_noise=p["log_noise"])
        lml = (_chain if generic else gp_predict_lml)(state, p["X"], y)[2]
        return float(lml.value), de.backward_pass(lml)


def test_exact_lml_node_masks_clamped_distances_in_mirrored_tiles():
    params, X, y = _duplicated_rows(-1.5)
    kp = KernelParams(log_sf2=params["log_sf2"], log_lengthscales=params["log_ls"])
    neg = _SeArd(kp.lengthscales(), kp.sf2(), as_tensor(X), as_tensor(X), "test").neg
    assert neg is not None and neg[128:, :128].any()
    val, grads = _state_lml_and_grads(params, X, y)
    ref, ref_grads = _state_lml_and_grads(params, X, y, generic=True)
    assert abs(val - ref) <= 1e-12 * abs(ref)
    for k, g in ref_grads.items():
        assert np.linalg.norm(grads[k] - g) <= 1e-12 * np.linalg.norm(g), k


def test_exact_lml_node_climbs_the_jitter_ladder_across_tiles():
    # a noise of e^-40 leaves K + s2 I singular to working precision, so
    # both factorise twice; the jittered factor is rebuilt from the strict
    # lower triangle of the node's buffer
    params, X, y = _duplicated_rows(-40.0)
    with engine_calls() as calls:
        val, grads = _state_lml_and_grads(params, X, y)
    with engine_calls() as ref_calls:
        ref, ref_grads = _state_lml_and_grads(params, X, y, generic=True)
    assert calls["potrf"] == ref_calls["potrf"] == 2
    assert abs(val - ref) <= 1e-6 * abs(ref)
    for k, g in ref_grads.items():
        assert np.linalg.norm(grads[k] - g) <= 1e-6 * np.linalg.norm(g), k


def test_exact_lml_node_gradients():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((7, 2))

    def fn(ps):
        state = GpState(kernel_params=KernelParams(log_sf2=ps["lsf"], log_lengthscales=ps["lls"]),
                        log_noise=ps["lnv"])
        return gp_predict_lml(state, ps["X"], ps["y"])[2]

    rep = de.finite_diff_check(fn, {"lsf": np.asarray(0.2), "lls": np.array([-0.1, 0.3]),
                                    "lnv": np.asarray(-1.3), "X": X,
                                    "y": rng.standard_normal(7)})
    assert rep["passed"], rep


def _near_singular_gp():
    # duplicated rows and a noise of e^-40 make K + s2 I singular to working
    # precision, so the factorisation needs jitter (at e^-30 the noise alone
    # keeps it positive definite)
    X = np.random.default_rng(18).standard_normal((6, 2))
    X = np.concatenate([X, X])
    y = np.sin(X[:, 0])
    return GpState(log_noise=np.asarray(-40.0)), X, y


def test_exact_lml_node_climbs_the_jitter_ladder_as_the_chain():
    state, X, y = _near_singular_gp()
    with engine_calls() as calls:
        lml = gp_predict_lml(state, X, y)[2].value
    with engine_calls() as ref_calls:
        ref = _chain(state, X, y)[2].value
    assert calls["potrf"] == ref_calls["potrf"] == 2    # the plain attempt and the first rung
    assert abs(lml - ref) <= 1e-12 * abs(ref)


def test_exact_lml_buffer_keeps_the_kernel_after_a_climb():
    # the node's buffer holds K's strict lower triangle after the ladder
    # rebuilt and factorised it, and the factor L^T in its upper triangle
    state, X, y = _near_singular_gp()
    kp, X = state.kernel_params, as_tensor(X)
    with engine_calls() as calls:
        se, kdiag, L, _, _ = gp_models._se_exact_fit(kp, state.noise_var(), X, as_tensor(y))
    assert calls["potrf"] == 2
    K = _SeArd(kp.lengthscales(), kp.sf2(), X, X, "test").K
    lower = np.tri(len(K), k=-1, dtype=bool)
    assert np.array_equal(se.K[lower], K[lower]) and np.array_equal(kdiag, np.diag(K))
    Lt = np.tril(L)
    assert np.shares_memory(L, se.K) and np.max(np.abs(Lt @ Lt.T - K)) <= 1e-6


@pytest.mark.parametrize("make", [gen_cubic_toy, gen_deep_linear])
@pytest.mark.parametrize("moved", [False, True])
def test_evaluation_lml_equals_the_training_objective(make, moved):
    # evaluation predicts from the factor the LML node makes, so the ELBO
    # per point it reports is the training objective over n, bitwise
    ds = make(0)
    model = GpLmlModel(ds)
    params = model.init_params()
    if moved:
        rng = np.random.default_rng(3)
        params = {k: v + 0.3 * rng.standard_normal(np.shape(v)) for k, v in params.items()}
    n = ds.X_train.shape[0]
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in params.items()}
        objective = float(model.objective(p, ds.X_train, ds.y_train, n, 1,
                                          rd.RngStream(0), 1.0).value)
    ev = model.evaluate(params, ds, rd.RngStream(0), 1)
    assert ev["elbo_per_point"] == objective / n


def _well_conditioned_gp(log_lengthscales):
    ds = gen_deep_linear(0)
    state = GpState(kernel_params=KernelParams(log_sf2=np.asarray(0.2),
                                               log_lengthscales=log_lengthscales),
                    log_noise=np.asarray(-1.5))
    return state, ds.X_train[:60], ds.y_train[:60]


@pytest.mark.parametrize("case, potrf_calls", [
    ("ard", 1), ("shared", 1), ("near-singular", 2)])
def test_untaped_predictions_match_the_chain(case, potrf_calls):
    # ARD lengthscales, one shared lengthscale, and a kernel that needs the
    # jitter ladder; the variance is the chain covariance's diagonal, and a
    # tracked operand raises, since an untaped prediction would lose its
    # gradient
    if case == "near-singular":
        state, X, y = _near_singular_gp()
    else:
        ls = np.linspace(-0.3, 0.4, 5) if case == "ard" else np.asarray(0.1)
        state, X, y = _well_conditioned_gp(ls)
    Xs = np.random.default_rng(21).standard_normal((7, X.shape[1]))
    with engine_calls() as calls:
        out = gp_predict_lml(state, X, y, X_star=Xs)
    with engine_calls() as ref_calls:
        mean, cov, lml = _chain(state, X, y, X_star=Xs)
    assert calls["potrf"] == ref_calls["potrf"] == potrf_calls
    assert out[0]._tape is None and out[1].value.shape == (7,)
    for a, b in zip(out, (mean.value, np.diag(cov.value), lml.value)):
        assert np.max(np.abs(a.value - b)) <= 1e-10 * np.max(np.abs(b))
    with de.Tape() as tape, pytest.raises(ValueError, match="tracked operand"):
        gp_predict_lml(replace(state, log_noise=tape.param(state.log_noise, "lnv")),
                       X, y, X_star=Xs)


@pytest.mark.parametrize("dkl_widths", [None, (4, 3)])
def test_evaluation_factorises_once_and_checks_no_symmetry(dkl_widths, monkeypatch):
    ds = gen_cubic_toy(0)
    model = GpLmlModel(ds, dkl_widths=dkl_widths)
    sym = []
    monkeypatch.setattr(de, "_check_symmetric", lambda *a: sym.append(a))
    with engine_calls() as calls:
        model.evaluate(model.init_params(), ds, rd.RngStream(0), 1)
    assert (calls["potrf"], len(sym)) == (1, 0)


def test_exact_lml_node_raises_the_ladders_message(monkeypatch):
    # a potrf that always reports a failing pivot takes both paths to the
    # top of the ladder; each error names the op that factorised
    state, X, y = _near_singular_gp()
    potrf = de._POTRF
    monkeypatch.setattr(de, "_POTRF", lambda *a, **k: (potrf(*a, **k)[0], 3))
    msgs = []
    for run in (gp_predict_lml, _chain):
        with pytest.raises(np.linalg.LinAlgError, match="after max jitter") as err:
            run(state, X, y)
        msgs.append(str(err.value))
    text = "matrix not positive definite after max jitter (pivot 3 of 12)"
    assert msgs == [f"{text} in op 'exact_gp_lml'", f"{text} in op 'cholesky_factor'"]


@pytest.mark.parametrize("x_scale, y_scale, what", [(1.0, 1e200, "output"),
                                                    (1e200, 1.0, "kernel")])
def test_exact_lml_node_names_itself_when_not_finite(x_scale, y_scale, what):
    rng = np.random.default_rng(19)
    X = x_scale * rng.standard_normal((5, 2))
    y = y_scale * rng.standard_normal(5)
    # the output is checked as it is built when a failed step is replayed
    with np.errstate(all="ignore"), de.check_each_tensor(), pytest.raises(
            FloatingPointError, match=f"non-finite values in {what} of op 'exact_gp_lml'"):
        gp_predict_lml(GpState(), X, y)


def test_exact_lml_node_runs_one_backward_pass():
    # the backward consumes the node's factor in place, so a second pass
    # over the same tape raises instead of returning other gradients
    rng = np.random.default_rng(20)
    X, y = rng.standard_normal((8, 2)), rng.standard_normal(8)
    with de.Tape() as tape:
        lml = gp_predict_lml(GpState(log_noise=tape.param(np.asarray(-1.0), "lnv")), X, y)[2]
        first = de.backward_pass(lml)["lnv"]
        with pytest.raises(RuntimeError, match="'exact_gp_lml' consumed its factor"):
            de.backward_pass(lml)
    assert np.isfinite(first)


def test_exact_gp_step_peak_memory():
    # one LML objective plus its backward at n = 500 holds at most 1.5 n x n
    # buffers at once, as numpy's traced allocations count them: the node
    # owns one (the kernel, whose upper triangle becomes the factor of K +
    # s2 I and then its inverse), and its backward reduces tiles of it
    ds = gen_deep_linear(0)
    n = 500
    X, y = ds.X_train[:n], ds.y_train[:n]
    model = GpLmlModel(ds)
    init = model.init_params()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with de.Tape() as tape:
            p = {k: tape.param(v, k) for k, v in init.items()}
            de.backward_pass(model.objective(p, X, y, n, 1, rd.RngStream(0), 1.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8


def test_exact_gp_evaluation_peak_memory():
    # an evaluation at n = 1000 factorises the kernel's own buffer, and holds
    # at most 1.75 n x n buffers at once (the chain held 2.2)
    ds = gen_deep_linear(0)
    n = ds.X_train.shape[0]
    model = GpLmlModel(ds)
    params = model.init_params()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.evaluate(params, ds, rd.RngStream(0), 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == 1000 and peak <= 1.75 * n * n * 8


def test_exact_gp_backward_drops_each_nodes_cotangents():
    # a node's one VJP returns all its operands' cotangents together, and the
    # walk drops them, with whatever the VJP shared among them, once it has
    # passed the node, so after backward_pass the traced memory is back at
    # its post-forward level (it would sit one n x n buffer above it if the
    # last node's cotangents lived until the tape closed); shown on the LML
    # built from the generic ops, whose kernel and density VJPs form n x n
    # cotangents
    ds = gen_deep_linear(0)
    n = 500
    X, y = ds.X_train[:n], ds.y_train[:n]
    model = GpLmlModel(ds)
    init = model.init_params()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with de.Tape() as tape:
            p = {k: tape.param(v, k) for k, v in init.items()}
            st, _ = model._state_and_features(p, X)
            lml = _chain(st, X, y)[2]
            forward = tracemalloc.get_traced_memory()[0] - base
            de.backward_pass(lml)
            after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert forward >= 3 * n * n * 8
    assert after <= forward + 0.05 * n * n * 8


def test_exact_gp_prediction_peak_memory():
    # predictions hold n x n* buffers and n* variances, never an n* x n*
    # covariance (at n* = 2,000 one such buffer alone would take 32 MB)
    ds = gen_deep_linear(0)
    sub = replace(ds, X_train=ds.X_train[:100], y_train=ds.y_train[:100])
    Xs = np.random.default_rng(22).standard_normal((2000, ds.X_train.shape[1]))
    model = GpLmlModel(sub)
    params = model.init_params()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, var, _ = model.predictive(params, sub, Xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert var.shape == (2000,) and peak <= 8e6


def test_gp_lml_matches_direct_density():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 2))
    y = rng.standard_normal(7)
    state = GpState(kernel_params=KernelParams(log_sf2=0.2, log_lengthscales=0.1),
                    log_noise=np.log(0.3))
    _, _, lml = gp_predict_lml(state, X, y)
    from deepbayes.kernels import se_ard_features
    K = se_ard_features(state.kernel_params, X).value + 0.3 * np.eye(7)
    assert np.isclose(lml.value, mvn_log_density(y, np.zeros(7), cov=K).value)


def test_gp_hyperparameter_gradients():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    def fn(ps):
        state = GpState(kernel_params=KernelParams(log_sf2=ps["lsf"],
                                                   log_lengthscales=ps["lls"]),
                        log_noise=ps["lnv"])
        return gp_predict_lml(state, X, y)[2]
    rep = de.finite_diff_check(fn, {"lsf": np.asarray(0.1),
                                    "lls": np.array([0.0, 0.2]),
                                    "lnv": np.asarray(-1.0)})
    assert rep["passed"], rep


# -- optimal signal variance ---------------------------------------------------------

def test_optimal_signal_variance_data_fit_is_half_n():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 1))
    y = rng.standard_normal(8)
    state = GpState(log_noise=np.log(0.2))
    sf2, data_fit, complexity = prop31_check(state, X, y)
    assert np.isclose(data_fit.value, -4.0, atol=1e-12)
    assert sf2.value > 0


def test_optimal_signal_variance_lml_decomposition():
    # lml at the optimal sf2 = data_fit - complexity - (N/2) log 2 pi
    rng = np.random.default_rng(6)
    n = 10
    X = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    state = GpState(log_noise=np.log(0.4))
    sf2, data_fit, complexity = prop31_check(state, X, y)
    opt = GpState(kernel_params=KernelParams(log_sf2=np.log(sf2.value)),
                  log_noise=np.log(0.4 * sf2.value))
    _, _, lml = gp_predict_lml(opt, X, y)
    recon = data_fit.value - complexity.value - 0.5 * n * np.log(2 * np.pi)
    assert np.isclose(lml.value, recon, atol=1e-9)


def test_optimal_signal_variance_rejects_zero_targets():
    with pytest.raises(ValueError):
        prop31_check(GpState(), np.ones((3, 1)), np.zeros(3))


# -- sparse variational GPs -----------------------------------------------------------

def _random_svgp(rng, n=10, m=4, same_z=False, X=None):
    X = rng.standard_normal((n, 1)) if X is None else X
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(X.shape[0])
    Z = X[:m].copy() if same_z else rng.standard_normal((m, 1))
    M = Z.shape[0]
    A = rng.standard_normal((M, M))
    S_chol = _chol_lower(A @ A.T + M * np.eye(M))
    state = SvgpState(Z=Z, m=rng.standard_normal(M), S_chol=S_chol,
                      kernel_params=KernelParams(log_sf2=0.1, log_lengthscales=0.2),
                      log_noise=np.log(0.3))
    return state, X, y


def test_collapsed_bound_equals_lml_when_inducing_cover_data():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 1))
    y = np.cos(X[:, 0])
    state, _, _ = _random_svgp(rng, X=X, m=8, same_z=True)
    state.Z = X.copy()
    bound, _, _ = svgp_collapsed_bound(state, X, y)
    gp = GpState(kernel_params=state.kernel_params, log_noise=state.log_noise)
    _, _, lml = gp_predict_lml(gp, X, y)
    assert np.isclose(bound.value, lml.value, atol=1e-8)


def test_collapsed_bound_below_lml_for_subsets():
    rng = np.random.default_rng(8)
    for trial in range(10):
        state, X, y = _random_svgp(rng, n=12, m=4)
        bound, _, _ = svgp_collapsed_bound(state, X, y)
        gp = GpState(kernel_params=state.kernel_params, log_noise=state.log_noise)
        _, _, lml = gp_predict_lml(gp, X, y)
        assert bound.value <= lml.value + 1e-10, trial


def test_uncollapsed_at_optimal_q_attains_collapsed():
    rng = np.random.default_rng(9)
    state, X, y = _random_svgp(rng, n=9, m=4)
    bound, m_opt, S_opt = svgp_collapsed_bound(state, X, y)
    state.m = m_opt.value
    state.S_chol = _chol_lower(S_opt.value)
    elbo = svgp_elbo(state, X, y, total_n=X.shape[0])
    assert np.isclose(elbo.value, bound.value, atol=1e-8)


def test_uncollapsed_never_exceeds_collapsed():
    rng = np.random.default_rng(10)
    for trial in range(10):
        state, X, y = _random_svgp(rng, n=9, m=4)
        bound, _, _ = svgp_collapsed_bound(state, X, y)
        elbo = svgp_elbo(state, X, y, total_n=X.shape[0])
        assert elbo.value <= bound.value + 1e-8, trial


def test_svgp_minibatch_scaling_is_unbiased():
    rng = np.random.default_rng(11)
    state, X, y = _random_svgp(rng, n=12, m=4)
    full = svgp_elbo(state, X, y, total_n=12).value
    # averaging the scaled per-batch bounds over a disjoint partition
    parts = [svgp_elbo(state, X[i:i + 4], y[i:i + 4], total_n=12).value
             for i in (0, 4, 8)]
    assert np.isclose(np.mean(parts), full, atol=1e-9)


def test_svgp_rejects_empty_batch():
    rng = np.random.default_rng(12)
    state, X, y = _random_svgp(rng)
    with pytest.raises(ValueError):
        svgp_elbo(state, X[:0], y[:0], total_n=10)


def test_svgp_gradients():
    rng = np.random.default_rng(13)
    state, X, y = _random_svgp(rng, n=7, m=3)
    tril = np.tril(np.ones((3, 3)))
    def fn(ps):
        st = SvgpState(Z=ps["Z"], m=ps["m"],
                       S_chol=de.add(de.mul(ps["Sraw"], np.tril(np.ones((3, 3)), -1)),
                                     de.diag_embed(de.elementwise("exp",
                                                                  de.diag_part(ps["Sraw"])))),
                       kernel_params=KernelParams(log_sf2=ps["lsf"],
                                                  log_lengthscales=ps["lls"]),
                       log_noise=ps["lnv"])
        return svgp_elbo(st, X, y, total_n=X.shape[0])
    rep = de.finite_diff_check(fn, {"Z": state.Z, "m": state.m,
                                    "Sraw": np.tril(rng.standard_normal((3, 3)) * 0.3),
                                    "lsf": np.asarray(0.1), "lls": np.asarray(0.2),
                                    "lnv": np.asarray(-1.2)})
    assert rep["passed"], rep


def test_svgp_evaluate_factorises_k_zz_once():
    # the training rows' bound and the test rows' marginals come from one
    # marginals call over both, so one evaluate builds and factorises K_zz
    # once, on criterion 14's data
    ds = synthetic_200(0)
    model = SvgpModel(ds, M=20)
    with engine_calls() as calls:
        model.evaluate(model.init_params(), ds, rd.RngStream(0), 3)
    assert sum(n for k, n in calls.items() if k.startswith("factorised")) == 1, calls


# -- deterministic feature extractors ---------------------------------------------------

def test_extractor_identity_reduces_to_plain_gp():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    gp = GpState(log_noise=-1.0)
    feats = dkl_forward([(np.eye(2), np.zeros(2))], X)
    _, _, lml_dkl = gp_predict_lml(gp, feats, y)
    _, _, lml_gp = gp_predict_lml(GpState(log_noise=-1.0), X, y)
    assert np.isclose(lml_dkl.value, lml_gp.value, atol=1e-12)


def test_extractor_constant_features_give_constant_kernel():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((5, 3))
    gp = GpState(kernel_params=KernelParams(log_sf2=np.log(1.6)))
    feats = dkl_forward([(np.zeros((3, 2)), np.array([1.0, -1.0]))], X)
    from deepbayes.kernels import se_ard_features
    K = se_ard_features(gp.kernel_params, feats).value
    assert np.allclose(K, 1.6)


def test_extractor_weight_gradients_through_lml():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    def fn(ps):
        feats = dkl_forward([(ps["W0"], ps["b0"]), (ps["W1"], ps["b1"])], X)
        return gp_predict_lml(GpState(log_noise=-1.0), feats, y)[2]
    rep = de.finite_diff_check(fn, {"W0": rng.standard_normal((2, 4)) * 0.7,
                                    "b0": rng.standard_normal(4) * 0.3,
                                    "W1": rng.standard_normal((4, 2)) * 0.7,
                                    "b1": rng.standard_normal(2) * 0.3})
    assert rep["passed"], rep


def test_extractor_dimension_mismatch_error():
    with pytest.raises(ValueError):
        dkl_forward([(np.eye(3), np.zeros(3))], np.zeros((4, 2)))
