import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from deepbayes import diff_engine as de
from deepbayes.dwp import gram_kernel_blocks
from deepbayes.kernels import KernelParams, _se_kdiag, se_ard_features

from oracles import add_diagonal, logdet_psd, se_from_gram


def test_diagonal_equals_signal_variance():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    p = KernelParams(log_sf2=np.log(2.5), log_lengthscales=np.zeros(3))
    K = se_ard_features(p, X).value
    assert np.allclose(np.diag(K), 2.5)


def test_unit_distance_value():
    # unit lengthscale, unit variance, |x - x'| = 1 -> exp(-1/2)
    p = KernelParams()
    K = se_ard_features(p, np.array([[0.0], [1.0]])).value
    assert np.isclose(K[0, 1], np.exp(-0.5))


def test_ard_lengthscales_weight_dimensions():
    p = KernelParams(log_lengthscales=np.log([1.0, 10.0]))
    X = np.array([[0.0, 0.0]])
    near = se_ard_features(p, X, np.array([[0.0, 1.0]])).value[0, 0]
    far = se_ard_features(p, X, np.array([[1.0, 0.0]])).value[0, 0]
    assert near > far
    assert np.isclose(near, np.exp(-0.5 / 100.0))


def test_kernel_matrix_is_psd_and_symmetric():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 4))
    p = KernelParams(log_sf2=0.3, log_lengthscales=np.log(1.7))
    K = se_ard_features(p, X).value
    assert np.allclose(K, K.T)
    assert np.min(np.linalg.eigvalsh(K)) > -1e-10


def test_cross_kernel_shape_and_mismatch_error():
    rng = np.random.default_rng(2)
    p = KernelParams()
    K = se_ard_features(p, rng.standard_normal((5, 3)), rng.standard_normal((2, 3)))
    assert K.value.shape == (5, 2)
    with pytest.raises(ValueError):
        se_ard_features(p, rng.standard_normal((5, 3)), rng.standard_normal((2, 4)))


def test_lengthscale_count_mismatch_error():
    p = KernelParams(log_lengthscales=np.zeros(2))
    with pytest.raises(ValueError):
        se_ard_features(p, np.zeros((3, 4)))


def test_gram_kernel_matches_feature_kernel():
    # G = F F^T / nu reproduces the feature-space SE kernel exactly
    rng = np.random.default_rng(3)
    nu = 4
    F = rng.standard_normal((7, nu))
    p = KernelParams(log_sf2=0.2, log_lengthscales=np.log(1.3))
    K_feat = se_ard_features(p, F).value
    K_gram = se_from_gram(p, F @ F.T / nu, nu).value
    assert np.allclose(K_feat, K_gram, atol=1e-12)


def test_gram_kernel_constant_gram_gives_constant_kernel():
    # rank-one constant Gram: all pairwise distances are zero
    p = KernelParams(log_sf2=np.log(1.8))
    G = np.full((4, 4), 0.7)
    assert np.allclose(se_from_gram(p, G, 3).value, 1.8)


def test_gram_kernel_rejects_ard():
    # the reference and the Gram layers' blocks from roots: an SE kernel of
    # the roots with one lengthscale per column is no function of their
    # Gram, since it changes when the roots rotate
    p = KernelParams(log_lengthscales=np.zeros(2))
    with pytest.raises(ValueError):
        se_from_gram(p, np.eye(3), 2)
    with pytest.raises(ValueError, match="single shared lengthscale"):
        gram_kernel_blocks(p, np.eye(2), 2)


@pytest.mark.parametrize("log_ls", [-5.0, -7.0, -9.0])
def test_short_lengthscales_build_a_finite_kernel(log_ls):
    # at l = e^-7 the scaled squared norms reach ~6e6, so their rounding alone
    # leaves squared distances far below -1e-10; the clamp's tolerance grows
    # with the norms the subtraction cancels
    X = np.random.default_rng(0).standard_normal((200, 5))
    K = se_ard_features(KernelParams(log_lengthscales=log_ls), X).value
    assert np.all(np.isfinite(K)) and np.allclose(np.diagonal(K), 1.0, rtol=0, atol=1e-6)


def test_gram_kernel_rejects_a_block_that_is_not_a_gram():
    # G_01 far above (G_00 + G_11) / 2: a squared distance of -4 raises
    G = np.array([[1.0, 3.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="negative beyond tolerance"):
        se_from_gram(KernelParams(), G, 1)


def test_gram_kernel_rotation_invariance():
    rng = np.random.default_rng(4)
    nu = 5
    F = rng.standard_normal((6, nu))
    Q, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
    p = KernelParams(log_lengthscales=np.log(0.9))
    K1 = se_from_gram(p, F @ F.T / nu, nu).value
    K2 = se_from_gram(p, (F @ Q) @ (F @ Q).T / nu, nu).value
    assert np.allclose(K1, K2, atol=1e-12)


def test_kdiag_matches_the_kernel_diagonal():
    # the O(n) diagonal against the diagonal of the n x n kernel
    X = np.random.default_rng(9).standard_normal((30, 3))
    p = KernelParams(log_sf2=0.3, log_lengthscales=np.log([0.5, 1.0, 2.0]))
    K = se_ard_features(p, X)
    got = _se_kdiag(p.sf2(), 30).value
    assert got.shape == (30,)
    assert np.max(np.abs(got - np.diag(K.value))) <= 1e-14 * np.max(got)


def test_kernel_gradients():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 2))
    def fn(ps):
        p = KernelParams(log_sf2=ps["log_sf2"], log_lengthscales=ps["log_ls"])
        K = se_ard_features(p, ps["X"])
        return logdet_psd(add_diagonal(K, de.elementwise("exp", ps["log_nv"])))
    rep = de.finite_diff_check(fn, {"log_sf2": np.asarray(0.1),
                                    "log_ls": np.array([0.2, -0.1]),
                                    "log_nv": np.asarray(-1.0), "X": X})
    assert rep["passed"], rep


def test_gram_kernel_gradients():
    rng = np.random.default_rng(6)
    F = rng.standard_normal((5, 3))
    def fn(ps):
        G = de.mul(de.matmul(ps["F"], de.transpose(ps["F"])), 1.0 / 3.0)
        p = KernelParams(log_sf2=ps["log_sf2"], log_lengthscales=ps["log_ls"])
        return de.tsum(de.elementwise("square", se_from_gram(p, G, 3)))
    rep = de.finite_diff_check(fn, {"F": F, "log_sf2": np.asarray(-0.2),
                                    "log_ls": np.asarray(0.3)})
    assert rep["passed"], rep


@settings(max_examples=25, deadline=None)
@given(hst.integers(0, 10_000))
def test_kernel_bounds_property(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 2)) * 3
    log_sf2 = rng.standard_normal() * 0.5
    sf2 = float(np.exp(log_sf2))
    p = KernelParams(log_sf2=log_sf2, log_lengthscales=rng.standard_normal(2) * 0.5)
    K = se_ard_features(p, X).value
    # direct evaluation; far-apart points may underflow to exactly 0
    ls = np.exp(p.log_lengthscales)
    d2 = np.sum(((X[:, None, :] - X[None, :, :]) / ls) ** 2, axis=2)
    ref = sf2 * np.exp(-0.5 * d2)
    assert np.max(np.abs(K - ref)) <= 1e-12
    assert np.allclose(np.diag(K), sf2, rtol=0, atol=1e-12)
    assert np.all(K >= 0) and np.all(K <= sf2)
