import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from deepbayes import diff_engine as de

from counts import engine_calls, reached
from fingerprint import synthetic_200
from oracles import getitem, logdet_psd


def _spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * n * np.eye(n)


def test_matmul_gradients():
    rng = np.random.default_rng(0)
    rep = de.finite_diff_check(
        lambda ps: de.tsum(de.elementwise("square", de.matmul(ps[0], ps[1]))),
        [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])
    assert rep["passed"], rep


def test_matvec_gradients():
    rng = np.random.default_rng(1)
    rep = de.finite_diff_check(
        lambda ps: de.tsum(de.matmul(ps[0], ps[1])),
        [rng.standard_normal((3, 4)), rng.standard_normal(4)])
    assert rep["passed"], rep


def test_broadcast_arithmetic_gradients():
    rng = np.random.default_rng(2)
    def fn(ps):
        a, b, c = ps
        out = de.div(de.mul(de.add(a, b), c), de.elementwise("affine", b, b=3.0))
        return de.tsum(de.elementwise("square", out))
    rep = de.finite_diff_check(fn, [rng.standard_normal((3, 4)),
                                    rng.standard_normal((1, 4)),
                                    rng.standard_normal((3, 1))])
    assert rep["passed"], rep


def test_shape_ops_gradients():
    rng = np.random.default_rng(3)
    def fn(ps):
        x = ps[0]
        y = de.concat([de.transpose(x), de.reshape(x, (4, 3))], axis=1)
        z = getitem(y, (slice(0, 3), slice(1, 5)))
        return de.add(de.tsum(de.elementwise("exp", de.elementwise("affine", z, a=0.3))),
                      de.tsum(de.diag_part(z), axis=0))
    rep = de.finite_diff_check(fn, [rng.standard_normal((3, 4))])
    assert rep["passed"], rep


def test_diag_embed_gradients():
    rng = np.random.default_rng(4)
    rep = de.finite_diff_check(
        lambda ps: logdet_psd(de.add(de.diag_embed(de.elementwise("exp", ps[0])),
                                        np.eye(3))),
        [rng.standard_normal(3)])
    assert rep["passed"], rep


@pytest.mark.parametrize("tag,a,b,lo", [
    ("exp", 0.7, 0.1, None), ("log", 1.0, 0.0, 0.5), ("square", 1.0, 0.0, None),
    ("reciprocal", 1.0, 0.0, 0.5),
    ("affine", -2.0, 1.5, None), ("sqrt", 1.0, 0.0, 0.5), ("sigmoid", 1.0, 0.0, None),
])
def test_elementwise_gradients(tag, a, b, lo):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3))
    if lo is not None:
        x = np.abs(x) + lo
    rep = de.finite_diff_check(
        lambda ps: de.tsum(de.elementwise(tag, ps[0], a=a, b=b)), [x])
    assert rep["passed"], (tag, rep)


def test_relu_gradient_off_kink():
    x = np.array([[-1.0, 2.0], [0.5, -3.0]])
    rep = de.finite_diff_check(lambda ps: de.tsum(de.elementwise("relu", ps[0])), [x])
    assert rep["passed"], rep


def test_cholesky_solve_logdet_gradients():
    rng = np.random.default_rng(6)
    S = _spd(rng, 4)
    b = rng.standard_normal(4)
    def fn(ps):
        Ssym = de.elementwise("affine", de.add(ps[0], de.transpose(ps[0])), a=0.5)
        L = de.cholesky_factor(Ssym)
        w = de.triangular_solve(L, ps[1])
        w2 = de.triangular_solve(L, w, trans=True)
        return de.add(de.tsum(de.elementwise("square", w)),
                      de.add(de.tsum(w2), logdet_psd(Ssym)))
    rep = de.finite_diff_check(fn, [S, b])
    assert rep["passed"], rep


def test_logdet_matches_slogdet():
    rng = np.random.default_rng(7)
    S = _spd(rng, 5)
    assert np.isclose(logdet_psd(S).value, np.linalg.slogdet(S)[1])


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        de.cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_jitter_recovers_near_psd():
    # rank-deficient matrix: the escalating diagonal jitter must succeed
    v = np.array([1.0, 2.0, 3.0])
    G = np.outer(v, v)
    L = de.cholesky_factor(G)
    assert np.all(np.isfinite(L.value))
    recon = L.value @ L.value.T
    assert np.max(np.abs(recon - G)) < 1e-3 * np.mean(np.diag(G))


def test_cholesky_failure_names_the_pivot():
    with pytest.raises(np.linalg.LinAlgError, match="pivot 2 of 2"):
        de.cholesky_factor(np.diag([1.0, -1.0]))


def test_jitter_ladder_factorisation_counts():
    # a rank-deficient 6 x 6 takes the plain attempt and the first rung; a
    # 300 x 300 with a negative pivot fails the plain attempt and all 14
    # rungs (1e-8 doubling to 1e-4), and one more factorisation locates
    # the pivot
    R = np.random.default_rng(0).standard_normal((6, 3))
    with engine_calls() as calls:
        L = de._chol_with_jitter(R @ R.T, "test")
    assert np.max(np.abs(L @ L.T - R @ R.T)) < 1e-6
    assert calls["potrf"] == 2
    d = np.ones(300)
    d[149] = -1.0
    with engine_calls() as calls, pytest.raises(np.linalg.LinAlgError, match="pivot 150 of 300"):
        de._chol_with_jitter(np.diag(d), "test")
    assert calls["potrf"] == 16


def test_factors_are_fortran_ordered_per_matrix():
    rng = np.random.default_rng(2)
    for shape in [(5, 5), (3, 5, 5)]:
        A = rng.standard_normal(shape)
        L = de.cholesky_factor(A @ np.swapaxes(A, -1, -2) + 5 * np.eye(5)).value
        assert all(L[i].flags.f_contiguous for i in np.ndindex(shape[:-2]))


@pytest.mark.parametrize("climb", [False, True])
def test_factors_other_triangle_is_positive_zero(climb):
    # a stack of two matrices with negative off-diagonal entries, the second
    # of rank 3 when the ladder is climbed; the strict upper triangle of
    # every factor is +0.0, as potrf's clean wrote it, never -0.0
    R = np.random.default_rng(3).standard_normal((2, 6, 6))
    if climb:
        R[1, :, 3:] = 0.0
    S = R @ np.swapaxes(R, -1, -2)
    assert (S < 0).any()
    with engine_calls() as calls:
        factors = (de._chol_with_jitter(S, "test"), de.cholesky_factor(S).value)
    for L in factors:
        upper = L[..., ~np.tri(6, dtype=bool)]
        assert np.all(upper == 0.0) and not np.signbit(upper).any()
        assert np.max(np.abs(L @ np.swapaxes(L, -1, -2) - S)) < 1e-6
    assert calls["potrf"] == (6 if climb else 4)    # each climb: the plain attempt and one rung


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("trans", [False, True])
def test_one_factor_solves_a_stack_of_right_hand_sides_in_one_call(k, trans):
    # the merged call against the loop of one call per member, for a
    # Fortran-ordered factor (as cholesky_factor makes) and a C-ordered one
    rng = np.random.default_rng(k)
    n, S = 9, 6
    b = rng.standard_normal((S, n, k))
    for L in (np.asfortranarray(np.linalg.cholesky(_spd(rng, n))),
              np.tril(rng.standard_normal((n, n))) + 3.0 * np.eye(n)):
        want = np.stack([de._trtrs(L, bi, trans) for bi in b])
        with engine_calls() as calls:
            x = de._solve_tri(L, b, trans, "test")
        assert calls["trtrs"] == 1
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))
        assert x[0].flags.f_contiguous     # Fortran-ordered matrices, as the loop leaves them


def test_one_column_right_hand_sides_keep_one_call_per_member():
    # LAPACK takes another path for one column, so merging them would move
    # the rounding of every one-column solve
    rng = np.random.default_rng(3)
    L = np.linalg.cholesky(_spd(rng, 5))
    with engine_calls() as calls:
        de._solve_tri(L, rng.standard_normal((4, 5, 1)), False, "test")
    assert calls["trtrs"] == 4


def _factors_under_noise(rng, shape):
    """Fortran-ordered lower Cholesky factors of the given (stack) shape
    whose strict upper triangles hold noise, as the exact GP's factor holds
    its kernel there."""
    n = shape[-1]
    buf = rng.standard_normal(shape)
    L = np.swapaxes(buf, -1, -2)
    for i in np.ndindex(shape[:-2]):
        A = rng.standard_normal((n, n))
        L[i][np.tri(n, dtype=bool)] = np.linalg.cholesky(A @ A.T / n + np.eye(n))[
            np.tri(n, dtype=bool)]
    return L


@pytest.mark.parametrize("shape", [(1, 1), (127, 127), (128, 128), (129, 129), (257, 257),
                                   (1000, 1000), (2, 300, 300)])
def test_blocked_inverse_matches_potri(shape, monkeypatch):
    # the blocked inverse and lauum against LAPACK potri on each factor: the
    # lower triangles agree to rounding, the strict upper ones are untouched,
    # and a zero planted on the diagonal of the second leaf (the only one
    # below 129 rows) is reported at LAPACK's index
    rng = np.random.default_rng(shape[-1])
    n = shape[-1]
    L = _factors_under_noise(rng, shape)
    lower, upper = np.tri(n, dtype=bool), ~np.tri(n, dtype=bool)
    want = [sla.lapack.dpotri(L[i].copy(order="F"), lower=1)[0] for i in np.ndindex(shape[:-2])]
    before = L[..., upper].copy()
    leaves = []
    trtri = de._DTRTRI
    monkeypatch.setattr(de, "_DTRTRI", lambda *a: leaves.append(a[2].value) or trtri(*a))
    assert de._potri(L, "test") is L
    for i, w in zip(np.ndindex(shape[:-2]), want):
        assert np.max(np.abs(L[i][lower] - w[lower])) <= 1e-12 * np.max(np.abs(w[lower]))
    assert np.array_equal(L[..., upper], before)
    members = int(np.prod(shape[:-2]))
    assert len(leaves) % members == 0 and max(leaves) <= 128 and sum(leaves) == n * members

    planted = _factors_under_noise(rng, shape)
    second = leaves[0] if len(leaves) > members else 0
    row = min(second + 2, n - 1)
    last = tuple(k - 1 for k in shape[:-2])     # the stack's last member
    planted[last + (row, row)] = 0.0
    info = sla.lapack.dpotri(planted[last].copy(order="F"), lower=1)[1]
    assert info == row + 1
    with pytest.raises(np.linalg.LinAlgError, match=rf"^potri failed: info {info} in op 'test'$"):
        de._potri(planted, "test")


def test_blocked_inverse_rejects_factors_it_cannot_address():
    # BLAS and LAPACK get raw pointers, so a factor that is not a writeable
    # Fortran-ordered float64 matrix raises before any call
    L = np.linalg.cholesky(_spd(np.random.default_rng(4), 5))     # C-ordered
    ro = np.asfortranarray(L)
    ro.flags.writeable = False
    for bad in (L, ro, np.asfortranarray(L, dtype=np.float32), np.asfortranarray(L[:, :4])):
        with pytest.raises(ValueError, match="in op 'test'$"):
            de._potri(bad, "test")
    assert not hasattr(de, "_POTRI")    # the blocked inverse replaced LAPACK potri


@pytest.mark.parametrize("shape,entry", [((600, 600), (10, 590)), ((600, 600), (590, 10)),
                                         ((3, 20, 20), (1, 2, 17)), ((3, 20, 20), (1, 17, 2))])
def test_symmetry_guard_finds_one_asymmetric_entry(shape, entry):
    # 600 rows span three tiles of the guard, so (10, 590) and (590, 10) sit
    # in a tile and its mirror; the tolerance is 1e-10 of the largest entry
    rng = np.random.default_rng(3)
    A = rng.standard_normal(shape)
    S = A @ np.swapaxes(A, -1, -2) / shape[-1] + np.eye(shape[-1])
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    tol = 1e-10 * max(1.0, S.max(), -S.min())
    for op in (de.cholesky_factor, logdet_psd):
        for bump, fails in [(0.5 * tol, False), (2.0 * tol, True)]:
            B = S.copy()
            B[entry] += bump
            if fails:
                with pytest.raises(ValueError,
                                   match=f"{op.__name__} requires a symmetric matrix"):
                    op(B)
            else:
                op(B)


def test_log_domain_violation_raises():
    with pytest.raises(ValueError):
        de.elementwise("log", np.array([1.0, -1.0]))


def test_backward_requires_scalar():
    with de.Tape() as t:
        x = t.param(np.ones(3), "x")
        y = de.elementwise("exp", x)
        with pytest.raises(ValueError):
            de.backward_pass(y)


def test_closed_tape_is_freed_without_the_collector():
    # leaving the block drops the tape's record, which would otherwise form a
    # reference cycle with its parameters: reference counting frees the graph
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        with de.Tape() as t:
            x = t.param(np.ones(3), "x")
            y = de.elementwise("exp", x)
            loss = de.tsum(y)
            de.backward_pass(loss)
        ref = weakref.ref(y.value)
        del t, x, y, loss
        assert ref() is None
    finally:
        if gc_was_on:
            gc.enable()


def test_backward_on_closed_tape_raises():
    with de.Tape() as t:
        loss = de.tsum(de.elementwise("exp", t.param(np.ones(3), "x")))
    with pytest.raises(ValueError):
        de.backward_pass(loss)


def test_gradient_accumulates_over_reuse():
    with de.Tape() as t:
        x = t.param(np.asarray(3.0), "x")
        y = de.add(de.mul(x, x), x)          # x^2 + x, grad 2x + 1
        grads = de.backward_pass(y)
    assert np.isclose(grads["x"], 7.0)


def test_node_keeps_only_its_tracked_operands():
    # a constant operand is no edge of the tape (what tape_edges counts) and
    # gets no gradient; the tracked one keeps its position among the operands
    c = np.arange(6.0).reshape(3, 2)
    with de.Tape() as t:
        p = t.param(np.ones((2, 3)), "p")
        const = de.as_tensor(np.full((2, 2), 0.5))
        prod = de.matmul(p, c)
        total = de.add(const, prod)
        grads = de.backward_pass(de.tsum(total))
    assert [(q is p, k) for q, k in prod._parents] == [(True, 0)]
    assert [(q is prod, k) for q, k in total._parents] == [(True, 1)]
    assert list(grads) == ["p"]
    assert np.array_equal(grads["p"], np.ones((2, 2)) @ c.T)


def test_each_reached_vjp_runs_once_per_backward_pass():
    # one VJP per node: on a DWP objective at S=10 (the dwp-s10 shape: two
    # Gram layers, M=20, criterion 14's data) every op node the loss reaches
    # runs its VJP exactly once, and no other node runs one
    from deepbayes import rand_dist as rd
    from deepbayes.bench_cli import ExperimentConfig, _make_model
    ds = synthetic_200(0)
    model = _make_model(ExperimentConfig(model="dwp", depth=3, M=20), ds)
    calls = []

    def counted(node):
        vjp = node._vjp

        def call(g):
            calls.append(id(node))
            return vjp(g)
        return call

    with de.Tape() as t:
        p = {k: t.param(v, k) for k, v in model.init_params().items()}
        loss = model.objective(p, ds.X_train, ds.y_train, 200, 10, rd.RngStream(123), 1.0)
        for node in t._nodes:
            if node._vjp is not None:
                node._vjp = counted(node)
        de.backward_pass(loss)
    assert len(calls) == len(set(calls)) and set(calls) == reached(loss)


def test_backward_pass_returns_only_what_its_loss_reaches():
    # two passes on one tape: the second returns no gradient of the first's
    # parameter that it does not reach, and the gradients of its own
    with de.Tape() as t:
        a, b = t.param(np.asarray(2.0), "a"), t.param(np.asarray(1.0), "b")
        first = de.backward_pass(de.mul(a, b))
        second = de.backward_pass(de.mul(a, a))
    assert first == {"a": 1.0, "b": 2.0}
    assert second == {"a": 4.0}


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_quadratic_form_gradient_property(n, seed):
    rng = np.random.default_rng(seed)
    S = _spd(rng, n)
    y = rng.standard_normal(n)
    rep = de.finite_diff_check(
        lambda ps: de.tsum(de.elementwise("square",
                                          de.triangular_solve(de.cholesky_factor(
                                              de.elementwise("affine",
                                                             de.add(ps[0], de.transpose(ps[0])),
                                                             a=0.5)), ps[1]))),
        [S, y])
    assert rep["passed"], rep


def test_finite_diff_report_fields():
    rep = de.finite_diff_check(lambda ps: de.tsum(de.elementwise("square", ps[0])),
                               [np.arange(3.0)])
    assert set(rep) >= {"max_rel_errors", "max_rel_error", "passed", "tol"}
    assert rep["passed"] and rep["tol"] == 1e-5
