"""The Monte-Carlo forward runs once over a stacked sample axis. These tests
hold it to the per-sample loop it replaced, kept here as the reference (sample
s reads row s of each draw site's one draw), and check the stack-aware engine
pieces it rests on."""
import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from counts import engine_calls
from fingerprint import synthetic_200

from deepbayes import bench_cli as bc
from deepbayes import deep_models as dm
from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.diff_engine import as_tensor
from deepbayes.dwp import _chol_from_raw
from deepbayes.kernels import KernelParams, se_ard_features

# every Monte-Carlo kind, and the BNN whose prior scale is sampled per draw
MC_KINDS = ["bnn-gi", "bnn-fac", "dgp-gi", "dgp-dsvi", "dwp", "dwp-a", "dwp-ab",
            "bnn-gi/scale", "bnn-fac/scale"]


def _model(kind, ds):
    kind, _, prior = kind.partition("/")
    cfg = bc.ExperimentConfig(model=kind, depth=3 if kind.startswith("dwp") else 2,
                              widths=(10, 10), M=10, prior=prior or "neal")
    return bc._make_model(cfg, ds)


def _params(model):
    """The init parameters moved off their special values (A = I, mu = 0, ...)
    by a fixed perturbation."""
    rng = np.random.default_rng(3)
    return {k: v + 0.05 * rng.standard_normal(np.shape(v))
            for k, v in model.init_params().items()}


def _loop_objective(model, p, Xb, yb, total_n, n_samples, seed, kl_scale):
    """The per-sample Monte-Carlo ELBO: one forward per sample s of a stream
    RngStream(seed) with n_samples samples, each reading row s of every
    draw and drawing a single sample without a sample axis, summed term by
    term."""
    s2 = de.elementwise("exp", de.elementwise("affine", as_tensor(p["log_noise_s"]), a=10.0))
    nb = yb.shape[0]
    total = None
    for st in oracles.sample_rows(seed, n_samples):
        F, inc = model.forward(p, Xb, st)
        ll = rd.normal_log_density(yb, de.reshape(F, (nb,)), s2)
        term = de.add(de.elementwise("affine", ll, a=float(total_n) / nb),
                      de.elementwise("affine", inc, a=float(kl_scale)))
        total = term if total is None else de.add(total, term)
    return de.elementwise("affine", total, a=1.0 / n_samples)


def _value_grads_nodes(objective, params):
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in params.items()}
        out = objective(p)
        grads = de.backward_pass(out)
        nodes = len(tape._nodes)
    return float(out.value), grads, nodes


@pytest.mark.parametrize("kind", MC_KINDS)
def test_batched_objective_and_gradients_match_the_per_sample_loop(kind):
    ds = synthetic_200(0)
    model = _model(kind, ds)
    params = _params(model)
    # rows past the first M: none coincides with an inducing input, whose
    # clamped conditional variance makes gradients rounding-determined
    Xb, yb = ds.X_train[model.M:model.M + 60], ds.y_train[model.M:model.M + 60]
    # a fresh stream per call: splitting a stream advances it
    v1, g1, n1 = _value_grads_nodes(lambda p: model.objective(
        p, Xb, yb, 200, 3, rd.RngStream(11), 0.7), params)
    v2, g2, n2 = _value_grads_nodes(lambda p: _loop_objective(
        model, p, Xb, yb, 200, 3, 11, 0.7), params)
    assert np.isfinite(v1) and abs(v1 - v2) <= 1e-10 * abs(v2)
    assert g1.keys() == g2.keys()
    for k in g2:
        scale = np.max(np.abs(g2[k]))
        assert np.max(np.abs(g1[k] - g2[k])) <= 1e-10 * scale, k
    assert n1 < n2


@pytest.mark.parametrize("kind", MC_KINDS)
def test_tape_nodes_per_objective_do_not_grow_with_samples(kind):
    ds = synthetic_200(0)
    model = _model(kind, ds)
    params = model.init_params()
    nodes = [_value_grads_nodes(lambda p: model.objective(
        p, ds.X_train, ds.y_train, 200, S, rd.RngStream(5), 1.0), params)[2]
        for S in (1, 3)]
    assert nodes[0] == nodes[1]


def test_predictive_samples_match_the_per_sample_loop():
    ds = synthetic_200(0)
    model = _model("dwp", ds)
    params = _params(model)
    got = model.predictive_samples(params, ds.X_test, rd.RngStream(4), 5)
    p = {k: as_tensor(v) for k, v in params.items()}
    want = np.stack([model.forward(p, ds.X_test, st)[0].value[:, 0]
                     for st in oracles.sample_rows(4, 5)])
    assert got.shape == (5, ds.X_test.shape[0])
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", MC_KINDS)
def test_each_draw_site_gives_sample_s_the_same_numbers_at_S_and_2S(kind, monkeypatch):
    # every site draws once from a child of its own, keyed by its seed:
    # the first S rows of each draw at 2S samples are the draw at S, so the
    # first S predictive samples agree to rounding (a stacked factor's
    # inverse is checked over the whole stack)
    sites = {}

    def recorded(draw):
        def call(self, arg):
            out = draw(self, arg)
            key = (self.seed.entropy, self.seed.spawn_key)
            assert key not in sites
            sites[key] = out
            return out
        return call

    for name in ("normal", "standard_gamma"):
        monkeypatch.setattr(rd.RngStream, name, recorded(getattr(rd.RngStream, name)))
    ds = synthetic_200(0)
    model = _model(kind, ds)
    params = _params(model)
    p = {k: as_tensor(v) for k, v in params.items()}
    runs = []
    for S in (3, 6):
        sites.clear()
        model.objective(p, ds.X_train, ds.y_train, 200, S, rd.RngStream(11), 0.7)
        preds = model.predictive_samples(params, ds.X_test, rd.RngStream(4), S)
        runs.append((dict(sites), preds))
    (small, pred_small), (large, pred_large) = runs
    assert small.keys() == large.keys() and len(small) >= 2
    for key, draw in small.items():
        assert draw.shape[0] == 3 and large[key].shape[0] == 6
        assert np.array_equal(draw, large[key][:3]), key
    assert np.max(np.abs(pred_small - pred_large[:3])) <= 1e-10 * np.max(np.abs(pred_small))


def test_stacked_cholesky_runs_the_jitter_ladder_per_matrix():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    R = rng.standard_normal((4, 2))
    near_singular = R @ R.T - 1e-10 * np.eye(4)        # rank 2, less a hair: needs jitter
    stack = np.stack([A @ A.T + 4 * np.eye(4), near_singular, 2 * np.eye(4)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(near_singular)
    got = de._chol_with_jitter(stack, "test")
    want = np.stack([de._chol_with_jitter(m, "test") for m in stack])
    assert np.array_equal(got, want)
    # the other members are not jittered
    assert np.array_equal(got[0], np.linalg.cholesky(stack[0]))
    assert not np.array_equal(got[1] @ got[1].T, near_singular)


def test_stacked_factors_equal_the_per_matrix_factors_at_n300():
    # at n = 300 LAPACK factorises in blocks; the middle member is rank 2
    # less a hair and goes up the jitter ladder
    rng = np.random.default_rng(3)
    n = 300
    A = rng.standard_normal((n, n))
    R = rng.standard_normal((n, 2))
    stack = np.stack([A @ A.T + n * np.eye(n), R @ R.T - 1e-10 * np.eye(n), 2 * np.eye(n)])
    stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
    got = de.cholesky_factor(stack).value
    for m, L in zip(stack, got):
        assert np.array_equal(L, de.cholesky_factor(m).value)
    assert np.array_equal(got[0], sla.cholesky(stack[0], lower=True))
    assert not np.array_equal(got[1] @ got[1].T, stack[1])


def test_stacked_matrix_ops_equal_the_per_matrix_loop():
    # a solve against a stack of factors is one matmul with their inverses
    # (LAPACK trtri per member), so it equals L^{-1}[s] B bitwise and the
    # per-matrix trtrs solve to rounding
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 4, 4))
    S = A @ np.swapaxes(A, -1, -2) + 4 * np.eye(4)
    B = rng.standard_normal((4, 2))
    L = de.cholesky_factor(S)
    X = de.triangular_solve(L, B).value
    for s in range(3):
        assert np.array_equal(L.value[s], de.cholesky_factor(S[s]).value)
        Linv = sla.lapack.dtrtri(L.value[s], lower=1)[0]
        assert np.array_equal(X[s], Linv @ B)
        ref = de.triangular_solve(L.value[s], B).value
        assert np.max(np.abs(X[s] - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal((A @ B)[s], de.matmul(A[s], B).value)


def _spd_stack(rng, S, n, ill=None):
    """S well-conditioned SPD matrices; member `ill` scaled to condition
    number about 1e10, whose factor has a one-norm condition number above
    the 1e3 that the stacked inverse accepts."""
    A = rng.standard_normal((S, n, n))
    out = A @ np.swapaxes(A, -1, -2) + n * np.eye(n)
    if ill is not None:
        d = np.logspace(0, -5, n)
        out[ill] = d[:, None] * out[ill] * d[None, :]
    return out


def _solve_objective(S, B, P):
    """A forward solve and its transpose against one stack of factors, so
    the forward, the solve's VJP and the Cholesky VJP all solve against
    it. Returns (value, gradients, factor)."""
    with de.Tape() as tape:
        ps = {k: tape.param(v, k) for k, v in (("S", S), ("B", B), ("P", P))}
        L = de.cholesky_factor(de.elementwise("affine", de.add(ps["S"], de.transpose(ps["S"])),
                                              a=0.5))
        X = de.triangular_solve(L, ps["B"])
        Y = de.triangular_solve(L, ps["P"], trans=True)
        out = de.add(de.tsum(de.elementwise("square", X)), de.tsum(de.mul(Y, X)))
        return out.value, de.backward_pass(out), L._factor


def test_an_ill_conditioned_stack_keeps_the_trtrs_loop(monkeypatch):
    # one member above the condition bound sends the whole stack back to
    # one trtrs per member: values and gradients equal the trtrs-only engine
    rng = np.random.default_rng(4)
    S = _spd_stack(rng, 3, 6, ill=1)
    B, P = rng.standard_normal((6, 2)), rng.standard_normal((3, 6, 2))
    L1 = np.linalg.cholesky(S[1])
    assert (np.abs(L1).sum(axis=0).max() * np.abs(np.linalg.inv(L1)).sum(axis=0).max()
            > de._MAX_COND)
    with engine_calls() as calls:
        value, grads, factor = _solve_objective(S, B, P)
    assert factor.inv is None
    assert calls["trtri"] == 3          # built once to be checked, then dropped
    assert calls["trtrs"] == 3 * 6      # forward and VJP per solve, 2 in the Cholesky VJP
    monkeypatch.setattr(de, "_tri_inverse", lambda L: None)
    ref_value, ref_grads, _ = _solve_objective(S, B, P)
    assert np.array_equal(value, ref_value)
    for k in ref_grads:
        assert np.array_equal(grads[k], ref_grads[k]), k


def test_a_well_conditioned_stack_is_inverted_once(monkeypatch):
    # two forward solves, their shared VJP solves and the Cholesky VJP's two
    # solves all read one inverse: one trtri per member and no trtrs; the
    # result agrees with the trtrs-only engine to rounding
    rng = np.random.default_rng(5)
    S = _spd_stack(rng, 3, 6)
    B, P = rng.standard_normal((6, 2)), rng.standard_normal((3, 6, 2))
    with engine_calls() as calls:
        value, grads, factor = _solve_objective(S, B, P)
    assert (calls["trtri"], calls["trtrs"]) == (3, 0)
    assert factor.inv.shape == (3, 6, 6)
    monkeypatch.setattr(de, "_tri_inverse", lambda L: None)
    ref_value, ref_grads, _ = _solve_objective(S, B, P)
    assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
    for k in ref_grads:
        assert np.max(np.abs(grads[k] - ref_grads[k])) <= 1e-12 * np.max(np.abs(ref_grads[k])), k


def test_factors_not_solved_against_or_single_build_no_inverse():
    rng = np.random.default_rng(6)
    with engine_calls() as calls:
        # a stack read only through its diagonal, as a log-determinant
        L = de.cholesky_factor(_spd_stack(rng, 3, 6))
        de.log_diag_sum(L, 2.0)
        assert L._factor.inv is None and calls["trtri"] == 0
        # a single matrix is solved by trtrs, forward and backward
        _, _, factor = _solve_objective(_spd_stack(rng, 1, 6)[0], rng.standard_normal((6, 2)),
                                        rng.standard_normal((6, 2)))
    assert factor.inv is None
    assert (calls["trtri"], calls["trtrs"]) == (0, 6)


def test_stacked_factorisation_gradients_match_finite_differences():
    # one factor per sample against shared right-hand sides, and shared
    # factors against stacked ones: cotangents sum over the broadcast axis
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 3, 3))
    params = {"A": A, "B": rng.standard_normal((3, 2)),
              "C": rng.standard_normal((2, 3, 2)), "P": np.eye(3) * 2.0}

    def fn(ps):
        S = de.add(de.matmul(ps["A"], de.transpose(ps["A"])), as_tensor(3.0 * np.eye(3)))
        L = de.cholesky_factor(S)
        X = de.triangular_solve(L, ps["B"])
        Y = de.triangular_solve(ps["P"], ps["C"], trans=True)
        out = de.tsum(de.elementwise("square", X))
        out = de.add(out, de.tsum(de.mul(Y, Y)))
        out = de.add(out, de.tsum(oracles.logdet_psd(S)))
        return de.add(out, de.tsum(de.log_diag_sum(L, 2.0)))

    rep = de.finite_diff_check(fn, params)
    assert rep["passed"], rep


def test_triangular_solve_cotangent_guard_names_the_op():
    # a finite forward whose backward overflows: d log(y) / dy = 1 / 1e-310
    with de.Tape() as tape, np.errstate(over="ignore", divide="ignore"):
        b = tape.param(np.ones((3, 2)), "b")
        x = de.triangular_solve(np.eye(3), b)
        out = de.tsum(de.elementwise("log", de.mul(x, as_tensor(np.full((3, 2), 1e-310)))))
        assert np.isfinite(out.value)
        with pytest.raises(FloatingPointError,
                           match="non-finite values in cotangent of op 'triangular_solve'"):
            de.backward_pass(out)


# -- a DSVI layer stacked over its outputs ---------------------------------------------------

def test_dsvi_tape_nodes_do_not_grow_with_layer_width():
    # layer 0 of a depth-2 DSVI DGP is as wide as the inputs
    nodes = []
    for D in (2, 5):
        ds = synthetic_200(0, D=D)
        model = _model("dgp-dsvi", ds)
        nodes.append(_value_grads_nodes(lambda p: model.objective(
            p, ds.X_train, ds.y_train, 200, 3, rd.RngStream(5), 1.0), model.init_params())[2])
    assert nodes[0] == nodes[1]


class _Drawn:
    """A stream whose one draw is the given array, as is its child's."""

    def __init__(self, xi):
        self.xi = xi

    def split(self, n):
        return [self] * n

    def normal(self, shape):
        return self.xi


def _ref_dsvi_terms(p, F, rng):
    """The per-output DSVI layer that the stacked one replaced: one factor,
    one variance, one KL and one clamped draw per output, from generic ops,
    concatenated; output l reads row l of one (w, nb) draw per sample."""
    kp = KernelParams(log_sf2=p["log_sf2"], log_lengthscales=p["log_ls"])
    w = p["m"].value.shape[1]
    roots = [_chol_from_raw(oracles.getitem(p["S_raw"], lam)) for lam in range(w)]
    L = de.cholesky_factor(se_ard_features(kp, p["Z"]))
    F = as_tensor(F)
    K_fz = se_ard_features(kp, F, p["Z"])
    W, base_var = oracles.gaussian_conditional(L, de.transpose(K_fz),
                                               oracles.se_kdiag(kp.sf2(), F.value.shape[-2]))
    mean = de.matmul(de.transpose(W), de.triangular_solve(L, p["m"]))
    U_sol = de.triangular_solve(L, W, trans=True)
    means, vars_, kl = [], [], as_tensor(np.asarray(0.0))
    for lam, Sc in enumerate(roots):
        C = de.matmul(de.transpose(Sc), U_sol)
        means.append(oracles.getitem(mean, (Ellipsis, lam)))
        vars_.append(de.add(base_var, de.tsum(de.elementwise("square", C), axis=-2)))
        kl = de.add(kl, rd.standard_kl(
            de.triangular_solve(L, oracles.getitem(p["m"], (slice(None), lam))),
            de.triangular_solve(L, Sc)))
    xi = rng.normal((w, F.value.shape[-2]))
    cols = []
    for lam, (m, v) in enumerate(zip(means, vars_)):
        v = de.add(de.mul(v, as_tensor((v.value > 0).astype(np.float64))),
                   as_tensor(np.full(v.value.shape, 1e-12)))
        f = de.add(m, de.mul(de.elementwise("sqrt", v), as_tensor(xi[..., lam, :])))
        cols.append(de.reshape(f, f.value.shape + (1,)))
    return means, vars_, kl, de.concat(cols, axis=-1)


def _dsvi_terms(p, F, rng):
    """(KL, F_next) of the same layer as deep_models stacks it; it draws from
    rng.split(1)[0], and its increment is -KL."""
    layer = dm.DsviDgpLayer(Z=p["Z"], m=p["m"], S_chol=_chol_from_raw(p["S_raw"]),
                            kernel_params=KernelParams(log_sf2=p["log_sf2"],
                                                       log_lengthscales=p["log_ls"]))
    _, F_next, inc, _ = layer.sample(None, F, rng)
    return de.elementwise("affine", inc, a=-1.0), F_next


def _dsvi_loss(kl, F_next):
    """The KL and the draws in one scalar, so each reaches the gradients."""
    return de.add(kl, de.tsum(de.elementwise("square", F_next)))


@pytest.mark.parametrize("batch", ["stream", "batch", "batch/stacked-inputs"])
def test_stacked_dsvi_layer_matches_the_per_output_layer(batch):
    rng = np.random.default_rng(21)
    M, d, w, nb, S = 6, 2, 3, 7, 4
    A = rng.standard_normal((w, M, M))
    params = {"Z": rng.standard_normal((M, d)), "m": rng.standard_normal((M, w)),
              "S_raw": 0.3 * A - np.eye(M), "log_sf2": np.asarray(0.2),
              "log_ls": np.asarray([0.1, -0.2])}
    F = rng.standard_normal((S, nb, d) if batch.endswith("stacked-inputs") else (nb, d))

    def streams():     # a fresh stream per call: a stream with S samples draws once
        return rd.RngStream(8) if batch == "stream" else rd.RngStream(8, S)

    def drawn():       # the child that the layer draws from
        return streams().split(1)[0]

    got = [_value_grads_nodes(lambda p: _dsvi_loss(*terms(p, F, rng())[-2:]), params)
           for terms, rng in ((_dsvi_terms, streams), (_ref_dsvi_terms, drawn))]
    (v1, g1, n1), (v2, g2, n2) = got
    assert abs(v1 - v2) <= 1e-12 * abs(v2) and n1 < n2
    for k in g2:
        assert np.max(np.abs(g1[k] - g2[k])) <= 1e-12 * np.max(np.abs(g2[k])), k

    p = {k: as_tensor(v) for k, v in params.items()}
    kl, F_next = _dsvi_terms(p, F, streams())
    r_means, r_vars, r_kl, r_F = _ref_dsvi_terms(p, F, drawn())
    # the layer's moments, read from its draws at xi = 0 (the means) and xi = 1
    zero, one = (_dsvi_terms(p, F, _Drawn(np.full((w, nb), c)))[1].value for c in (0.0, 1.0))
    assert zero.shape[-2:] == (nb, w) and F_next.value.shape[-2:] == (nb, w)
    for got_, want in [(zero, np.stack([m.value for m in r_means], axis=-1)),
                       (one - zero, np.sqrt(np.stack([v.value for v in r_vars], axis=-1) + 1e-12)),
                       (kl.value, r_kl.value), (F_next.value, r_F.value)]:
        assert got_.shape == want.shape
        assert np.max(np.abs(got_ - want)) <= 1e-12 * np.max(np.abs(want))
    # every output and row of sample s comes from row s of one (w, nb) draw, exactly
    xi = drawn().normal((w, nb))
    assert np.array_equal(F_next.value, _dsvi_terms(p, F, _Drawn(xi))[1].value)


def test_stacked_diag_embed_and_chol_from_raw_gradients():
    rng = np.random.default_rng(22)
    weights = rng.standard_normal((3, 4, 4))
    for op, shape in [(de.diag_embed, (3, 4)), (_chol_from_raw, (3, 4, 4))]:
        rep = de.finite_diff_check(
            lambda ps: de.tsum(de.mul(op(ps[0]), as_tensor(weights))),
            [0.5 * rng.standard_normal(shape)])
        assert rep["passed"], (op.__name__, rep)
    raw = rng.standard_normal((3, 4, 4))
    stacked = _chol_from_raw(raw).value
    assert all(np.array_equal(stacked[i], _chol_from_raw(raw[i]).value) for i in range(3))
