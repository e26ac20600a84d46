"""Machine-speed calibration for the end-to-end timings.

The reference box is a 2-core slice of a shared host, and its speed drifts
by up to 1.5x in spells of seconds to minutes, whatever runs on it. To keep
that drift out of the end-to-end metrics, the untraced run times a fixed
calibration kernel right after every training step and every evaluation,
and reports each wall time scaled by REFERENCE_MS / (the kernel's time
there). The result is in milliseconds at the reference box's usual speed:
a program that does less work reads lower, and a box that is slower for a
while does not. The raw wall times are kept in the run's record.

The kernel is the benchmark's own code, not the program's, so no change to
the program can move it. It mixes the kinds of work the workloads do:
interpreter dispatch, numpy calls on 20x20 matrices, a streaming pass over
a few MB, a small LAPACK factorisation and random reads from a 32 MB array.
Its large arrays are made once and written in place, so it takes no page
faults after its first run. It allocates no object the garbage collector
tracks and runs with the collector off, so it neither triggers nor absorbs
the program's collections.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# The kernel's median time on the reference box (2-core x86-64, one BLAS
# thread), so that scaled times read close to typical wall times there.
REFERENCE_MS = 12.5

_data: dict[str, np.ndarray] = {}


def _arrays() -> dict[str, np.ndarray]:
    if not _data:
        rng = np.random.default_rng(20240122)
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((120, 120))
        _data.update(
            a=a, spd=a @ a.T + 20.0 * np.eye(20),
            b=b, spd_b=b @ b.T + 120.0 * np.eye(120),
            stream=rng.standard_normal(300_000), stream_out=np.empty(300_000),
            table=rng.standard_normal(4_000_000),
            index=rng.integers(0, 4_000_000, 150_000), gathered=np.empty(150_000))
    return _data


class _Slots:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 0
        self.b = 1

    def step(self, i: int) -> int:
        self.a = (self.a + i * self.b) % 1_000_003
        return self.a


def _dispatch(n: int = 8000) -> int:
    obj = _Slots()
    table = {k: k * 3 for k in range(64)}
    acc = 0
    for i in range(n):
        acc += obj.step(i) - table.get(i & 127, 7) % 5
    return acc


def _small_linalg(n: int = 65) -> float:
    d = _arrays()
    a, spd, x = d["a"], d["spd"], d["a"]
    for _ in range(n):
        x = np.tanh(x @ a * 0.01 + a) + np.linalg.cholesky(spd)
    return float(x[0, 0])


def _stream() -> float:
    d = _arrays()
    out = d["stream_out"]
    total = 0.0
    for c in (0.1, -0.1):
        np.multiply(d["stream"], c, out=out)
        total += float(np.exp(out, out=out).sum())
    return total


def _factor() -> float:
    d = _arrays()
    out = 0.0
    for _ in range(6):
        out += float((np.linalg.cholesky(d["spd_b"]) @ d["b"])[0, 0])
    return out


def _gather() -> float:
    d = _arrays()
    return float(np.take(d["table"], d["index"], out=d["gathered"]).sum())


def kernel_ms() -> float:
    """Wall milliseconds of one run of the calibration kernel."""
    _arrays()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _dispatch()
        _small_linalg()
        _stream()
        _factor()
        _gather()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def scales(cal_ms) -> np.ndarray:
    """REFERENCE_MS over each calibration, each taken as the median of it
    and its two neighbours, so that one unlucky kernel run does not scale
    its interval alone."""
    c = np.asarray(cal_ms, dtype=np.float64)
    padded = np.concatenate([c[:1], c, c[-1:]])
    smooth = np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
    return REFERENCE_MS / smooth
