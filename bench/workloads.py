"""Workload recipes: data made here from the seed, models from bench_cli.

The data generators are copies of the recipes the tests use, kept in the
benchmark so that a change to the program cannot change a workload.
Import this module only after the BLAS thread variables are set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import speed
from deepbayes import bench_cli as bc
from deepbayes.train import TrainConfig

WARMUP_STEPS = 1        # step 0 pays first-call costs; it is not timed
MIN_TIMED_STEPS = 100   # p90 needs ten samples beyond it


def _normalized(X_tr, y_tr, X_te, y_te) -> bc.Dataset:
    xm, xs = X_tr.mean(axis=0), X_tr.std(axis=0)
    xs = np.where(xs == 0, 1.0, xs)
    ym, ys = float(y_tr.mean()), float(y_tr.std()) or 1.0
    return bc.Dataset(X_train=(X_tr - xm) / xs, y_train=(y_tr - ym) / ys,
                      X_test=(X_te - xm) / xs, y_test=(y_te - ym) / ys,
                      x_mean=xm, x_std=xs, y_mean=ym, y_std=ys)


def synthetic_200(seed: int) -> bc.Dataset:
    """Acceptance criterion 14's recipe: 200 train / 20 test points, D=5."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (220, 5))
    w = rng.standard_normal(5)
    y = np.sin(X @ w / 2.0) + 0.3 * X[:, 0] + 0.1 * rng.standard_normal(220)
    return _normalized(X[:200], y[:200], X[200:], y[200:])


def deep_linear(seed: int) -> bc.Dataset:
    """The deep-linear recipe: 1000 train / 100 test points, D=5, linear
    targets with weight prior N(0, I/5) and noise variance 0.1."""
    rng = np.random.default_rng(seed)
    D, n_tr, n_te = 5, 1000, 100
    X = rng.standard_normal((n_tr + n_te, D))
    w = rng.normal(0.0, np.sqrt(1.0 / D), size=D)
    y = X @ w + rng.normal(0.0, np.sqrt(0.1), size=n_tr + n_te)
    return bc.Dataset(X_train=X[:n_tr], y_train=y[:n_tr],
                      X_test=X[n_tr:], y_test=y[n_tr:],
                      x_mean=np.zeros(D), x_std=np.ones(D))


@dataclass(frozen=True)
class Workload:
    name: str
    make_data: Callable[[int], bc.Dataset]
    make_model: Callable[[bc.Dataset, int], object]
    batch_size: int | None
    step_s: float   # cost of one step in a slow spell of the reference box,
    eval_s: float   # and of one evaluation; used only to plan a run
    evals: int      # evaluations after step 0 in a timed run (train_loop adds
                    # one at the last step); cheap ones get more, for a steady median

    @property
    def full_batch(self) -> bool:
        return self.batch_size is None

    def plan_steps(self, seconds: float) -> int:
        """Steps that fill `seconds` at the reference costs, never fewer than
        the warm-up, MIN_TIMED_STEPS timed steps and the untimed last step."""
        cal_s = speed.REFERENCE_MS / 1e3     # the kernel after each step and evaluation
        budget = seconds - (self.evals + 1) * (self.eval_s + cal_s)
        timed = max(MIN_TIMED_STEPS, math.floor(budget / (self.step_s + cal_s)))
        return WARMUP_STEPS + timed + 1

    def train_config(self, seed: int, steps: int, evals: int) -> TrainConfig:
        """`evals` evaluations after step 0, evenly spaced."""
        return TrainConfig(steps=steps, lr=5e-3, lr_drop_steps=(),
                           anneal_steps=0, batch_size=self.batch_size,
                           train_samples=10, eval_samples=50,
                           eval_every=max(1, -(-steps // evals)), seed=seed,
                           clip_norm=10.0)


WORKLOADS = {w.name: w for w in [
    Workload("dwp-s10", synthetic_200,
             lambda ds, seed: bc.DwpModel(ds, n_gram_layers=2, M=20,
                                          variant="base", seed=seed),
             batch_size=None, step_s=0.25, eval_s=0.75, evals=12),
    Workload("dgp-gi-mb200", deep_linear,
             lambda ds, seed: bc.DgpModel(ds, posterior="gi", depth=2, M=20,
                                          seed=seed),
             batch_size=200, step_s=0.19, eval_s=2.0, evals=4),
    Workload("gp-exact-n1000", deep_linear,
             lambda ds, seed: bc.GpLmlModel(ds, ard=True),
             batch_size=None, step_s=0.41, eval_s=0.13, evals=34),
]}
