import numpy as np

from deepbayes import diff_engine as de
from deepbayes import dwp, kernels
from deepbayes import rand_dist as rd

import tracing
from tracing import ModelProbe, Recorder, self_times
from workloads import WORKLOADS


def test_self_times_subtract_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; c [6, 7] is b's child
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert np.allclose(self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_tracks_phase():
    rec = Recorder()
    with rec.span("outer"):
        rec.phase = 4
        with rec.span("inner"):
            pass
    a = rec.arrays()
    assert list(a["names"]) == ["outer", "inner"]
    assert list(a["parent"]) == [-1, 0]
    assert list(a["phase"]) == [tracing.SETUP, 4]
    assert np.all(a["end"] >= a["start"])


def test_step_seconds_cut_out_evaluations():
    probe = ModelProbe(model=None)
    probe.step_starts = [0.0, 1.0, 3.0, 4.5]
    probe.evals = [(1.5, 2.5)]               # after step 1
    assert np.allclose(probe.step_seconds(end=5.0), [1.0, 1.0, 1.5, 0.5])


def _one_step(model, ds, seed):
    """Objective and gradients of step 0, as train_loop computes them."""
    params = model.init_params()
    rng = rd.RngStream(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    with de.Tape() as tape:
        wrapped = {k: tape.param(np.asarray(v, dtype=np.float64), k)
                   for k, v in params.items()}
        elbo = model.objective(wrapped, ds.X_train, ds.y_train,
                               ds.X_train.shape[0], 10, rng.split(1)[0], 1.0)
        grads = de.backward_pass(de.elementwise("affine", elbo, a=-1.0))
    return elbo.value, grads


def test_wrapped_step_is_bitwise_equal_and_uninstall_restores():
    w = WORKLOADS["dwp-s10"]
    ds = w.make_data(0)
    originals = (de.lift, de.DiffTensor.__init__, dwp.se_from_gram,
                 np.linalg.cholesky)
    plain_elbo, plain_grads = _one_step(w.make_model(ds, 0), ds, 0)

    rec = Recorder()
    rec.install()
    try:
        # names bound by import in other modules get the wrapper too
        assert dwp.se_from_gram is kernels.se_from_gram
        assert dwp.se_from_gram.__wrapped__ is originals[2]
        rec.phase = 0
        traced_elbo, traced_grads = _one_step(w.make_model(ds, 0), ds, 0)
    finally:
        rec.uninstall()

    assert (de.lift, de.DiffTensor.__init__, dwp.se_from_gram,
            np.linalg.cholesky) == originals
    assert traced_elbo.tobytes() == plain_elbo.tobytes()
    assert plain_grads.keys() == traced_grads.keys()
    for k in plain_grads:
        assert plain_grads[k].tobytes() == traced_grads[k].tobytes(), k
    assert rec.counts["diff_engine.tape_nodes"][0] == 4135
    assert rec.counts["diff_engine.tensors_created"][0] > 4135
    called = set(rec.arrays()["name_id"].tolist())
    assert rec.nid("rand_dist.gwish_sample_and_logpdf") in called
    assert rec.nid("kernels.se_ard_features") not in called


def test_jitter_retries_count_factorisations_that_climb_the_ladder():
    rec = Recorder()
    rec.install()
    try:
        rec.phase = 0
        de.cholesky_factor(np.eye(3))
        de.cholesky_factor(np.ones((3, 3)))       # singular: needs jitter
    finally:
        rec.uninstall()
    assert rec.counts["diff_engine.cholesky_factor.jitter_retries"][0] == 1
