import re
import weakref

import numpy as np
import pytest

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.train import (AdamState, TrainConfig, adam_step,
                             kl_anneal_factor, train_loop)


# -- Adam -----------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    state = AdamState()
    p = {"w": np.array([1.0, -2.0])}
    out = adam_step(state, p, {"w": np.zeros(2)}, lr=0.1)
    assert np.allclose(out["w"], p["w"])


def test_adam_first_step_moves_by_lr_sign():
    # with bias correction, |first update| = lr regardless of gradient scale
    state = AdamState()
    out = adam_step(state, {"w": np.array([0.0, 0.0])},
                    {"w": np.array([3.0, -0.007])}, lr=0.05)
    assert np.allclose(out["w"], [-0.05, 0.05], atol=1e-6)


def test_adam_missing_gradients_pass_through():
    state = AdamState()
    out = adam_step(state, {"w": np.ones(2), "b": np.ones(1)},
                    {"w": np.ones(2)}, lr=0.1)
    assert np.allclose(out["b"], 1.0)


def test_adam_converges_on_quadratic():
    state = AdamState()
    p = {"w": np.array([4.0, -3.0])}
    for _ in range(800):
        p = adam_step(state, p, {"w": 2.0 * p["w"]}, lr=0.05)
    assert np.max(np.abs(p["w"])) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    state = AdamState()
    with pytest.raises(FloatingPointError, match="w"):
        adam_step(state, {"w": np.ones(1)}, {"w": np.array([np.nan])}, lr=0.1)


# -- annealing and schedules ---------------------------------------------------------

def test_kl_anneal_boundaries():
    assert kl_anneal_factor(0, 100) == 0.0
    assert kl_anneal_factor(50, 100) == 0.5
    assert kl_anneal_factor(100, 100) == 1.0
    assert kl_anneal_factor(10_000, 100) == 1.0
    assert kl_anneal_factor(5, 0) == 1.0
    with pytest.raises(ValueError):
        kl_anneal_factor(-1, 100)


def test_lr_schedule_drops():
    cfg = TrainConfig(steps=100, lr=1e-2, lr_drop_steps=(50,), lr_drop_factor=0.1,
                      anneal_steps=0)
    assert cfg.lr_at(0) == 1e-2
    assert cfg.lr_at(49) == 1e-2
    assert np.isclose(cfg.lr_at(50), 1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=10, anneal_steps=20)
    with pytest.raises(ValueError):
        TrainConfig(steps=10, anneal_steps=5, train_samples=0)
    # settings that would break a run or quietly change it, each named
    for key, value in [("eval_every", 0), ("batch_size", 0), ("batch_size", -5),
                       ("lr", 0.0), ("lr", -1e-2), ("lr_drop_factor", 0.0),
                       ("lr_drop_factor", -1.0), ("clip_norm", 0.0), ("clip_norm", -1.0)]:
        with pytest.raises(ValueError, match=key):
            TrainConfig(steps=10, anneal_steps=5, **{key: value})
    # counts that are not integers and drop steps that are not a list of them
    for key, value in [("steps", 2.5), ("anneal_steps", 1.0), ("train_samples", "10"),
                       ("eval_samples", None), ("eval_every", True), ("batch_size", 0.5),
                       ("lr_drop_steps", 5000), ("lr_drop_steps", [5.5]),
                       # rates and norms that are not positive numbers
                       ("lr", None), ("lr", "0.01"), ("lr_drop_factor", None),
                       ("lr_drop_factor", [0.1]), ("clip_norm", None), ("clip_norm", True)]:
        with pytest.raises(ValueError, match=rf"{key} must be .*, got {re.escape(repr(value))}"):
            TrainConfig(**{"steps": 10, "anneal_steps": 5, key: value})
    assert TrainConfig(steps=10, anneal_steps=5, lr_drop_steps=()).lr_drop_steps == ()


# -- training loop -----------------------------------------------------------------------


class _Dataset:
    def __init__(self, rng, n=16):
        self.X_train = rng.standard_normal((n, 1))
        self.y_train = 0.5 * self.X_train[:, 0] + 0.05 * rng.standard_normal(n)
        self.X_test = self.X_train
        self.y_test = self.y_train


class _Evaluated:
    """The per-point objective on the whole training set as the evaluation."""

    def evaluate(self, params, dataset, rng, n_samples):
        n = dataset.X_train.shape[0]
        elbo = self.objective({k: de.as_tensor(v) for k, v in params.items()},
                              dataset.X_train, dataset.y_train, n, n_samples, rng, 1.0)
        return {"elbo_per_point": float(elbo.value) / n}


class _QuadModel(_Evaluated):
    """Deterministic toy objective: -(w - 1)^2, maximized at w = 1."""

    def init_params(self):
        return {"w": np.asarray(-2.0)}

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        d = de.elementwise("affine", params["w"], b=-1.0)
        return de.elementwise("affine", de.elementwise("square", d), a=-1.0)


class _NanAfterModel(_QuadModel):
    def __init__(self, blow_at):
        self.blow_at = blow_at
        self.calls = 0

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        self.calls += 1
        if self.calls > self.blow_at:
            raise np.linalg.LinAlgError("factorization failed")
        return super().objective(params, Xb, yb, total_n, n_samples, rng, kl_scale)

    def evaluate(self, params, dataset, rng, n_samples):
        return {}


class _OverflowAfterModel(_NanAfterModel):
    """exp(-1e6 w) overflows to inf once the model has been called blow_at
    times (w stays negative over the first steps)."""

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        self.calls += 1
        out = _QuadModel.objective(self, params, Xb, yb, total_n, n_samples, rng,
                                   kl_scale)
        if self.calls > self.blow_at:
            with np.errstate(over="ignore"):
                blow = de.elementwise("exp", de.elementwise("affine", params["w"], a=-1e6))
            out = de.add(out, blow)
        return out


class _NoisyLinearModel(_Evaluated):
    """1-sample reparameterized Bayesian linear regression ELBO."""

    def init_params(self):
        return {"m": np.asarray(0.0), "log_s": np.asarray(0.0)}

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        xi = rng.normal(())
        w = de.add(params["m"],
                   de.mul(de.elementwise("exp", params["log_s"]), np.asarray(xi)))
        pred = de.mul(de.as_tensor(Xb[:, 0]), w)
        ll = de.tsum(rd.normal_log_density(yb, pred, np.asarray(0.01)))
        # KL(N(m, s^2) || N(0, 1)): standard_kl at A = m and B = s
        kl = rd.standard_kl(de.reshape(params["m"], (1,)),
                            de.reshape(de.elementwise("exp", params["log_s"]), (1, 1)))
        nb = Xb.shape[0]
        return de.sub(de.elementwise("affine", ll, a=float(total_n) / nb),
                      de.elementwise("affine", kl, a=float(kl_scale)))


def test_train_loop_converges_and_traces():
    rng = np.random.default_rng(0)
    res = train_loop(_QuadModel(), _Dataset(rng),
                     TrainConfig(steps=400, lr=0.05, anneal_steps=0, eval_every=100))
    assert res["aborted"] is None
    assert abs(res["params"]["w"] - 1.0) < 1e-2
    assert res["trace"][0]["step"] == 0 and res["trace"][-1]["step"] == 399
    assert "elbo_per_point" in res["final"]


def test_train_loop_is_bitwise_deterministic():
    rng = np.random.default_rng(1)
    ds = _Dataset(rng)
    cfg = TrainConfig(steps=60, lr=0.02, anneal_steps=10, eval_every=20,
                      batch_size=8, seed=7)
    r1 = train_loop(_NoisyLinearModel(), ds, cfg)
    r2 = train_loop(_NoisyLinearModel(), ds, cfg)
    for k in r1["params"]:
        assert np.array_equal(r1["params"][k], r2["params"][k]), k
    assert [t["elbo_per_point"] for t in r1["trace"]] == \
        [t["elbo_per_point"] for t in r2["trace"]]


def test_train_loop_seed_changes_trajectory():
    rng = np.random.default_rng(2)
    ds = _Dataset(rng)
    r1 = train_loop(_NoisyLinearModel(), ds,
                    TrainConfig(steps=40, lr=0.02, anneal_steps=0, seed=1))
    r2 = train_loop(_NoisyLinearModel(), ds,
                    TrainConfig(steps=40, lr=0.02, anneal_steps=0, seed=2))
    assert not np.array_equal(r1["params"]["m"], r2["params"]["m"])


def test_train_loop_learns_posterior_mean():
    rng = np.random.default_rng(3)
    ds = _Dataset(rng, n=32)
    res = train_loop(_NoisyLinearModel(), ds,
                     TrainConfig(steps=1500, lr=0.02, anneal_steps=100))
    # posterior mean of w under the exact conjugate computation
    x, y = ds.X_train[:, 0], ds.y_train
    prec = 1.0 + x @ x / 0.01
    m_ref = (x @ y / 0.01) / prec
    assert abs(res["params"]["m"] - m_ref) < 0.05
    assert np.exp(2 * res["params"]["log_s"]) < 0.01


def test_train_loop_abort_keeps_last_good_params():
    rng = np.random.default_rng(4)
    model = _NanAfterModel(blow_at=10)
    res = train_loop(model, _Dataset(rng),
                     TrainConfig(steps=100, lr=0.05, anneal_steps=0))
    assert res["aborted"] is not None and res["aborted"]["step"] == 10
    assert np.all(np.isfinite(res["params"]["w"]))
    # ten successful steps moved w away from the init
    assert res["params"]["w"] != -2.0


def test_train_loop_aborts_on_nonfinite_tensor():
    # a non-finite op output aborts the run like a failed factorisation
    rng = np.random.default_rng(6)
    res = train_loop(_OverflowAfterModel(blow_at=3), _Dataset(rng),
                     TrainConfig(steps=20, lr=0.05, anneal_steps=0))
    assert res["aborted"] == {"step": 3,
                              "reason": "non-finite values in output of op 'exp'"}
    assert np.all(np.isfinite(res["params"]["w"])) and res["params"]["w"] != -2.0


class _DrawThenOverflowModel(_QuadModel):
    """Records the normal each objective draws from its stream; from call
    blow_at + 1 on, its objective adds exp(1e6), which overflows. Each
    evaluation overflows when overflow_eval is set."""

    def __init__(self, blow_at, overflow_eval=False):
        self.blow_at, self.overflow_eval, self.draws = blow_at, overflow_eval, []

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        self.draws.append(float(rng.normal(())))
        out = super().objective(params, Xb, yb, total_n, n_samples, rng, kl_scale)
        if len(self.draws) > self.blow_at:
            with np.errstate(over="ignore"):
                out = de.add(out, de.elementwise("exp", de.as_tensor(1e6)))
        return out

    def evaluate(self, params, dataset, rng, n_samples):
        with np.errstate(over="ignore"):
            out = de.elementwise("exp", de.as_tensor(1e6 if self.overflow_eval else 0.0))
        return {"elbo_per_point": float(out.value)}


def test_train_loop_replays_a_failed_step_from_the_same_draws():
    # the step runs without per-tensor checks; its non-finite loss replays
    # it with them, from a fresh stream that draws what the first run drew
    model = _DrawThenOverflowModel(blow_at=2)
    res = train_loop(model, _Dataset(np.random.default_rng(9)),
                     TrainConfig(steps=10, lr=0.05, anneal_steps=0, eval_every=100))
    assert res["aborted"] == {"step": 2,
                              "reason": "non-finite values in output of op 'exp'"}
    # steps 0 and 1, step 2 and its replay
    assert len(model.draws) == 4 and model.draws[3] == model.draws[2] != model.draws[1]


def test_train_loop_names_the_op_of_a_nonfinite_evaluation():
    # a good run checks only its metrics; a non-finite one is replayed with
    # every tensor checked, which raises at the op as evaluation always did
    cfg = TrainConfig(steps=3, lr=0.05, anneal_steps=0, eval_every=1)
    ds = _Dataset(np.random.default_rng(10))
    assert train_loop(_DrawThenOverflowModel(blow_at=10), ds, cfg)["final"] == {
        "step": 2, "elbo_per_point": 1.0}
    with pytest.raises(FloatingPointError, match="non-finite values in output of op 'exp'"):
        train_loop(_DrawThenOverflowModel(blow_at=10, overflow_eval=True), ds, cfg)


class _GraphProbeModel(_QuadModel):
    """Holds a weak reference to an intermediate's value array of every
    objective, and at the start of each objective records whether the
    previous ones are still alive."""

    def __init__(self):
        self.refs = []
        self.alive_at_start = []

    def objective(self, params, Xb, yb, total_n, n_samples, rng, kl_scale):
        self.alive_at_start.append(any(r() is not None for r in self.refs))
        d = de.elementwise("affine", params["w"], b=-1.0)
        self.refs.append(weakref.ref(d.value))
        return de.elementwise("affine", de.elementwise("square", d), a=-1.0)


def test_train_loop_frees_each_graph_before_the_next_forward():
    model = _GraphProbeModel()
    res = train_loop(model, _Dataset(np.random.default_rng(8)),
                     TrainConfig(steps=5, lr=0.05, anneal_steps=0, eval_every=100))
    assert res["aborted"] is None
    # objectives at steps 0..4, then the evaluations' at steps 0 and 4
    assert len(model.refs) == 7
    assert not any(model.alive_at_start)


def test_train_loop_minibatches_cover_dataset():
    rng = np.random.default_rng(5)
    ds = _Dataset(rng, n=12)

    seen = set()

    class Spy(_QuadModel):
        def objective(self, params, Xb, yb, total_n, n_samples, rng_, kl_scale):
            assert Xb.shape[0] == 4 and total_n == 12
            seen.update(np.round(Xb[:, 0], 9).tolist())
            return super().objective(params, Xb, yb, total_n, n_samples,
                                     rng_, kl_scale)

        def evaluate(self, params, dataset, rng_, n_samples):
            return {}

    train_loop(Spy(), ds, TrainConfig(steps=30, lr=0.01, anneal_steps=0,
                                      batch_size=4))
    assert len(seen) == 12


def test_gradient_clipping_bounds_update_norm():
    from deepbayes.train import _clip_global_norm
    g = {"a": np.full(4, 100.0), "b": np.full(9, 100.0)}
    clipped = _clip_global_norm(g, 1.0)
    total = np.sqrt(sum(np.sum(v ** 2) for v in clipped.values()))
    assert np.isclose(total, 1.0)
    small = {"a": np.ones(2) * 0.1}
    assert _clip_global_norm(small, 100.0) is small
