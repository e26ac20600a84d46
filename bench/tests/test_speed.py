import gc

import numpy as np

import speed
from tracing import ModelProbe


def test_kernel_leaves_the_collector_alone():
    speed.kernel_ms()
    before = gc.get_count()
    ms = [speed.kernel_ms() for _ in range(3)]
    assert gc.get_count() == before
    assert gc.isenabled()
    assert all(m > 0 for m in ms)


def test_scales_take_the_median_of_each_calibration_and_its_neighbours():
    ref = speed.REFERENCE_MS
    sc = speed.scales([ref, ref, 100 * ref, ref, ref])
    # one outlier among its neighbours does not scale its interval
    assert np.allclose(sc, [1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.allclose(speed.scales([2 * ref, 2 * ref]), [0.5, 0.5])


def test_probe_cuts_calibrations_out_and_pairs_each_with_its_interval():
    probe = ModelProbe(model=None)
    probe.step_starts = [0.0, 1.0, 3.0]
    probe.evals = [(1.5, 2.5)]                       # after step 1
    ref = speed.REFERENCE_MS
    probe.cals = [(0.9, 1.0, ref),                   # after step 0
                  (2.5, 2.7, 2 * ref),               # after the evaluation
                  (2.8, 3.0, 2 * ref)]               # after step 1
    assert np.allclose(probe.step_seconds(end=4.0), [0.9, 0.6, 1.0])
    steps, evals = probe.scales()
    assert np.allclose(steps, [1.0, 0.5])
    assert np.allclose(evals, [0.5])
