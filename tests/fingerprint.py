"""One SHA-256 line per model configuration over its objective, its
gradients and its evaluation metrics, for checking that a change keeps every
value bitwise:

    PYTHONPATH=<tree>/src python tests/fingerprint.py [--values] > <tree>.txt

Run it on two trees and diff the outputs. Each line hashes the objective at
init + 0.05 N(0, 1) (default_rng(1)) with S=3, kl_scale 0.7 and
RngStream(123), every gradient by sorted parameter name, and evaluate's
metrics at S=3 from RngStream(123); with --values it hashes the objective
and the metrics but no gradient, for a change that keeps every value while
it moves gradients by rounding. The configurations are every kind on
cubic-toy at M=10, every kind but blr on criterion 14's data at M=20, and
bnn-gi under prior: scale on both: 23 lines, about a second in all."""
import hashlib
import sys

import numpy as np

from deepbayes import diff_engine as de
from deepbayes import rand_dist as rd
from deepbayes.bench_cli import _MODEL_KEYS_READ, ExperimentConfig, _make_model, _normalize, gen_cubic_toy


def synthetic_200(seed=0, D=5):
    """Acceptance criterion 14's data: 200 train / 20 test points, D=5 (or
    D) inputs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (220, D))
    w = rng.standard_normal(D)
    y = np.sin(X @ w / 2.0) + 0.3 * X[:, 0] + 0.1 * rng.standard_normal(220)
    return _normalize(X[:200], y[:200], X[200:], y[200:])


def configurations():
    """(data, dataset, config) for each fingerprinted configuration."""
    kinds = sorted(_MODEL_KEYS_READ)
    for data, ds, M in [("cubic-toy", gen_cubic_toy(0), 10), ("criterion-14", synthetic_200(0), 20)]:
        runs = [(k, "neal") for k in kinds if not (k == "blr" and data == "criterion-14")]
        for kind, prior in runs + [("bnn-gi", "scale")]:
            cfg = ExperimentConfig(model=kind, depth=3 if kind.startswith("dwp") else 2,
                                   widths=(5, 5), M=M, prior=prior)
            yield data, ds, cfg


def fingerprint(ds, cfg, grads=True) -> str:
    model = _make_model(cfg, ds)
    rng = np.random.default_rng(1)
    params = {k: v + 0.05 * rng.standard_normal(np.shape(v))
              for k, v in model.init_params().items()}
    n = len(ds.y_train)
    with de.Tape() as tape:
        p = {k: tape.param(v, k) for k, v in params.items()}
        value = model.objective(p, ds.X_train, ds.y_train, n, 3, rd.RngStream(123), 0.7)
        g = de.backward_pass(value) if grads else {}
    h = hashlib.sha256(np.ascontiguousarray(value.value).tobytes())
    for k in sorted(g):
        h.update(k.encode())
        h.update(np.ascontiguousarray(g[k]).tobytes())
    metrics = model.evaluate(params, ds, rd.RngStream(123), 3)
    h.update(repr(sorted(metrics.items())).encode())     # repr round-trips each float
    return h.hexdigest()


def main(argv=()):
    if set(argv) - {"--values"}:
        raise SystemExit(f"usage: fingerprint.py [--values], not {' '.join(argv)}")
    grads = "--values" not in argv
    for data, ds, cfg in configurations():
        print(fingerprint(ds, cfg, grads), data, cfg.model, f"prior={cfg.prior}")


if __name__ == "__main__":
    main(sys.argv[1:])
