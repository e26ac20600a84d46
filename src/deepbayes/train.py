"""Shared reparameterized stochastic-gradient training loop (Adam)."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import diff_engine as de
from . import rand_dist as rd

__all__ = ["TrainConfig", "AdamState", "adam_step", "kl_anneal_factor",
           "train_loop"]


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_count(key: str, v):
    """Raise a ValueError naming config key `key` unless v is an integer."""
    if not _is_int(v):
        raise ValueError(f"{key} must be an integer, got {v!r}")


@dataclass
class TrainConfig:
    steps: int = 20000
    lr: float = 1e-2
    lr_drop_factor: float = 0.1
    lr_drop_steps: tuple = (10000,)
    anneal_steps: int = 1000
    batch_size: int = None          # None = full batch
    train_samples: int = 10
    eval_samples: int = 100
    eval_every: int = 250
    seed: int = 0
    clip_norm: float = 100.0

    def __post_init__(self):
        for key in ("steps", "anneal_steps", "train_samples", "eval_samples", "eval_every"):
            check_count(key, getattr(self, key))
        if self.batch_size is not None:
            check_count("batch_size", self.batch_size)
        if not (isinstance(self.lr_drop_steps, (list, tuple))
                and all(_is_int(s) for s in self.lr_drop_steps)):
            raise ValueError(f"lr_drop_steps must be a list of integers, got {self.lr_drop_steps!r}")
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.anneal_steps > self.steps:
            raise ValueError("anneal steps exceed total steps")
        if self.train_samples < 1 or self.eval_samples < 1:
            raise ValueError("sample counts must be >= 1")
        bad = [k for k in ("eval_every", "batch_size")
               if getattr(self, k) is not None and getattr(self, k) <= 0]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be positive (batch_size may be None)")
        for key in ("lr", "lr_drop_factor", "clip_norm"):
            v = getattr(self, key)
            if not ((_is_int(v) or isinstance(v, (float, np.floating))) and v > 0):
                raise ValueError(f"{key} must be a number > 0, got {v!r}")

    def lr_at(self, step: int) -> float:
        lr = self.lr
        for s in self.lr_drop_steps:
            if step >= s:
                lr *= self.lr_drop_factor
        return lr


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(state: AdamState, params: dict, grads: dict, lr: float) -> dict:
    """Bias-corrected Adam update; returns the new parameter dict."""
    state.t += 1
    out = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            out[name] = p
            continue
        g = np.asarray(g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
        mhat = state.m[name] / (1 - BETA1 ** state.t)
        vhat = state.v[name] / (1 - BETA2 ** state.t)
        out[name] = p - lr * mhat / (np.sqrt(vhat) + EPS)
    return out


def kl_anneal_factor(step: int, anneal_steps: int) -> float:
    """min(1, step / anneal_steps); multiplies only the KL terms."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if anneal_steps <= 0:
        return 1.0
    return min(1.0, step / anneal_steps)


def _clip_global_norm(grads: dict, max_norm: float) -> dict:
    total = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def train_loop(model, dataset, config: TrainConfig):
    """Maximize the model's ELBO with Adam; returns a result dict with the
    evaluation trace, final parameters, and summary.

    The model exposes:
      init_params() -> dict of arrays
      objective(params, Xb, yb, total_n, n_samples, rng, kl_scale) -> scalar
      evaluate(params, dataset, rng, n_samples) -> metrics dict
    """
    params = {k: np.asarray(v, dtype=np.float64).copy()
              for k, v in model.init_params().items()}
    adam = AdamState()
    n = dataset.X_train.shape[0]
    batch = config.batch_size or n
    trace = []
    aborted = None
    t0 = time.time()

    for step in range(config.steps):
        step_rng = rd.RngStream(np.random.SeedSequence(
            entropy=config.seed, spawn_key=(step,)))
        if batch < n:
            idx = step_rng.permutation(n)[:batch]
        else:
            idx = np.arange(n)
        Xb, yb = dataset.X_train[idx], dataset.y_train[idx]
        kl_scale = kl_anneal_factor(step, config.anneal_steps)
        try:
            loss, grads = _loss_and_grads(model, params, Xb, yb, n, config.train_samples,
                                          step_rng.split(1)[0], kl_scale)
            if not np.isfinite(loss):
                raise FloatingPointError("non-finite loss")
            grads = _clip_global_norm(grads, config.clip_norm)
            params = adam_step(adam, params, grads, config.lr_at(step))
        except (FloatingPointError, np.linalg.LinAlgError) as e:
            # params is reassigned only after a successful step, so it holds
            # the last good values
            aborted = {"step": step, "reason": str(e)}
            break

        if step % config.eval_every == 0 or step == config.steps - 1:
            eval_rng = rd.RngStream(np.random.SeedSequence(
                entropy=config.seed, spawn_key=(1 << 20, step)))
            trace.append({"step": step, **model.evaluate(params, dataset, eval_rng,
                                                         config.eval_samples)})

    result = {
        "trace": trace,
        "params": params,
        "aborted": aborted,
        "wall_clock": time.time() - t0,
    }
    if trace:
        result["final"] = trace[-1]
    return result


def _loss_and_grads(model, params, Xb, yb, total_n, n_samples, rng, kl_scale):
    """The negative objective and its gradients by parameter name. The step's
    graph is local here, so it is freed on return, before the next step's
    forward builds its own."""
    with de.Tape() as tape:
        wrapped = {k: tape.param(v, k) for k, v in params.items()}
        loss = de.elementwise("affine", model.objective(
            wrapped, Xb, yb, total_n, n_samples, rng, kl_scale), a=-1.0)
        return float(loss.value), de.backward_pass(loss)
