"""Paused passes: lean op outputs, one finite check per result, and a
recording replay that names the op when that result is not finite."""

import inspect
import threading

import numpy as np
import pytest
from scipy import sparse

import segbert.autodiff as autodiff
import segbert.gradcheck as gradcheck
import segbert.training as training_module
from segbert.autodiff import NonFiniteError, RowGroups, Tape, Tensor, paused_value
from segbert.dataset import GraphInstance
from segbert.features import build_bundles
from segbert.model import ModelConfig, ModelParams, build_batch, classify_batch, init_params, prepare_graph
from segbert.training import evaluate_accuracy
from segbert.unify import Strategy, UnifyPlan

rng = np.random.default_rng(11)
X = rng.standard_normal((6, 4))
OTHER = rng.standard_normal((6, 4))
W = rng.standard_normal((4, 4))
BIAS = rng.standard_normal((1, 4))
GAIN = rng.standard_normal((1, 4)) + 1.0
PROBS = rng.random((6, 2))
ONEHOT = np.eye(4)[[0, 3, 1, 1, 2, 0]]
SPARSE = np.where(rng.random((6, 6)) < 0.4, rng.standard_normal((6, 6)), 0.0)

# one call of every public Tape op on a 6 x 4 input x that needs grad;
# "op/variant" names a second call of the same op
OP_CASES = {
    "constant": lambda t, x: t.constant([[1, 2], [3, 4]]),
    "matmul": lambda t, x: t.matmul(x, W),
    "linear": lambda t, x: t.linear(x, Tensor(W, True), Tensor(BIAS, True)),
    "linear/csr": lambda t, x: t.linear(sparse.csr_array(SPARSE), x, Tensor(BIAS)),
    "mlp": lambda t, x: t.mlp(x, (Tensor(W, True), Tensor(BIAS)), (Tensor(W), Tensor(BIAS, True))),
    "mlp/csr": lambda t, x: t.mlp(sparse.csr_array(SPARSE), (x, Tensor(BIAS)),
                                  (Tensor(W), Tensor(BIAS))),
    "add": lambda t, x: t.add(x, Tensor(OTHER)),
    "add/bias": lambda t, x: t.add(x, Tensor(BIAS)),
    "mul": lambda t, x: t.mul(x, Tensor(OTHER)),
    "add_n": lambda t, x: t.add_n([x, Tensor(OTHER), x]),
    "scale": lambda t, x: t.scale(x, -1.5),
    "relu": lambda t, x: t.relu(x),
    "gelu": lambda t, x: t.gelu(x),
    "softmax_rows": lambda t, x: t.softmax_rows(x),
    "layer_norm_rows": lambda t, x: t.layer_norm_rows(x),
    "add_layer_norm": lambda t, x: t.add_layer_norm(x, Tensor(OTHER), Tensor(GAIN), Tensor(BIAS)),
    "dropout": lambda t, x: t.dropout(x, 0.4, True),
    "take_rows": lambda t, x: t.take_rows(x, [5, 0, 3, 3]),
    "concat_rows": lambda t, x: t.concat_rows([x, Tensor(OTHER)]),
    "concat_cols": lambda t, x: t.concat_cols([x, Tensor(OTHER)]),
    "slice_cols": lambda t, x: t.slice_cols(x, 1, 3),
    "mean_rows": lambda t, x: t.mean_rows(x, RowGroups([range(6)], 6)),
    "mean_rows/groups": lambda t, x: t.mean_rows(x, RowGroups([[5, 0], [3], [1, 2, 4]], 6)),
    "attention_scores": lambda t, x: t.attention_scores(x, Tensor(OTHER), 2),
    "attention_apply": lambda t, x: t.attention_apply(Tensor(PROBS), x, 2),
    "attention_block": lambda t, x: t.attention_block(
        x, (Tensor(W), Tensor(BIAS)), Tensor(W), (Tensor(W), Tensor(BIAS)),
        (Tensor(W), Tensor(BIAS)), 2, 2, 0.3, True),
    "cosine_rows": lambda t, x: t.cosine_rows(x),
    "mse": lambda t, x: t.mse(x, OTHER),
    "cross_entropy": lambda t, x: t.cross_entropy(x, ONEHOT),
}


def test_op_cases_cover_every_public_tape_op():
    bookkeeping = {"backward", "reset"}
    public = {name for name, fn in inspect.getmembers(Tape, inspect.isfunction)
              if not name.startswith("_")} - bookkeeping
    assert {case.split("/")[0] for case in OP_CASES} == public


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_op_outputs_are_float64_2d_and_equal_on_paused_and_recording_tapes(case):
    build = OP_CASES[case]
    recording, paused = Tape(seed=3), Tape(seed=3)
    out_rec = build(recording, Tensor(X.copy(), requires_grad=True))
    paused.recording = False
    out_pau = build(paused, Tensor(X.copy(), requires_grad=True))
    assert paused.entries == []
    if case != "constant":
        assert [e.op for e in recording.entries] == [case.split("/")[0]]
    for out in (out_rec, out_pau):
        assert type(out.value) is np.ndarray
        assert out.value.dtype == np.float64 and out.value.ndim == 2
    assert out_rec.value.shape == out_pau.value.shape
    assert np.array_equal(out_rec.value, out_pau.value)


# ----------------------------------------------------------------------
# model passes


def padded_batch():
    """The gradcheck toy graph and a 7-node ring with a chord, segment-
    shifted at k=3: 2 + 3 segments with 1 + 2 dummy slots, in one batch."""
    ring = GraphInstance(node_count=7, label=0,
                         edges=[(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    ring.node_tags = [i % 3 for i in range(7)]
    ring.node_attributes = np.linspace(-1.0, 1.0, 21).reshape(7, 3)
    cfg = ModelConfig(hidden_dim=8, head_count=2, layer_count=2, intermediate_dim=6,
                      residual_mode="raw", class_count=2, attr_dim=3, use_tags=True,
                      n_adj=9, segment_k=3)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 3)
    inputs = [prepare_graph(g, build_bundles(g, n_adj=9), plan, cfg)
              for g in (gradcheck.toy_graph(), ring)]
    assert [gi.slot_count - len(gi.real_slots) for gi in inputs] == [1, 2]
    return cfg, init_params(cfg, seed=5), inputs


@pytest.mark.parametrize("training", [False, True])
def test_classify_batch_logits_bit_identical_paused_and_recording(training):
    cfg, params, inputs = padded_batch()
    batch = build_batch(inputs, cfg.class_count)
    recording = Tape(seed=9)
    loss_rec, logits_rec = classify_batch(recording, params, cfg, batch, training)
    paused = Tape(seed=9)
    paused.recording = False
    loss_pau, logits_pau = classify_batch(paused, params, cfg, batch, training)
    assert len(recording.entries) > 0 and paused.entries == []
    assert logits_rec.value.tobytes() == logits_pau.value.tobytes()
    assert loss_rec.value.tobytes() == loss_pau.value.tobytes()
    logits = paused_value(lambda tape: classify_batch(tape, params, cfg, batch, training)[1],
                          seed=9)
    assert logits.value.tobytes() == logits_rec.value.tobytes()


def captured_gradcheck(monkeypatch, **kwargs):
    """(params, run_loss, loss_for) of a model_gradcheck call, with its
    finite-difference loop skipped."""
    seen = {}

    def capture(params, run_loss, loss_for):
        seen.update(params=params, run_loss=run_loss, loss_for=loss_for)
        return gradcheck.GradCheckReport(errors={}, tolerance=gradcheck.TOLERANCE,
                                         evaluations=0)

    monkeypatch.setattr(gradcheck, "finite_difference_check", capture)
    gradcheck.model_gradcheck(**kwargs)
    return seen["params"], seen["run_loss"], seen["loss_for"]


@pytest.mark.parametrize("residual_mode", ["none", "raw"])
def test_gradcheck_loss_bit_identical_paused_and_recording(monkeypatch, residual_mode):
    _, run_loss, _ = captured_gradcheck(monkeypatch, residual_mode=residual_mode,
                                        hidden_dim=4, layer_count=2, intermediate_dim=4)
    recorded = run_loss(Tape(seed=0)).value
    paused = Tape(seed=0)
    paused.recording = False
    assert run_loss(paused).value.tobytes() == recorded.tobytes()
    assert paused_value(run_loss, seed=0).value.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("attr_dim", [0, 3])
@pytest.mark.parametrize("layer_count", [1, 3])
@pytest.mark.parametrize("residual_mode", ["none", "raw"])
def test_resumed_gradcheck_loss_bit_identical_to_full(monkeypatch, residual_mode,
                                                      layer_count, attr_dim):
    """Each tensor's first entry at +STEP and -STEP: the loss that
    resumes at the tensor's first layer is the full loss, bit for bit."""
    params, run_loss, loss_for = captured_gradcheck(
        monkeypatch, residual_mode=residual_mode, hidden_dim=4, layer_count=layer_count,
        intermediate_dim=4, attr_dim=attr_dim)
    run_loss(Tape(seed=0))  # the analytic pass, which keeps each layer's input
    values, resumed = params.values, []
    for name, lo in zip(params.names(), params.offsets):
        run = loss_for(name)
        if run is not run_loss:
            resumed.append(name)
        orig = values[lo]
        for step in (gradcheck.STEP, -gradcheck.STEP):
            values[lo] = orig + step
            full = paused_value(run_loss, seed=0).value
            assert paused_value(run, seed=0).value.tobytes() == full.tobytes(), (name, step)
        values[lo] = orig
    assert resumed == [n for n in params.names()
                       if not n.startswith(("adj_embed.", "attr_embed."))]


def test_paused_pass_checks_no_op_and_recording_pass_checks_every_op(monkeypatch):
    cfg, params, inputs = padded_batch()
    batch = build_batch(inputs, cfg.class_count)
    checked = []
    real_check = autodiff._check_finite

    def counting(op, arr):
        checked.append(op)
        real_check(op, arr)

    monkeypatch.setattr(autodiff, "_check_finite", counting)
    paused = Tape(seed=1)
    paused.recording = False
    classify_batch(paused, params, cfg, batch, training=True)
    paused_value(lambda tape: classify_batch(tape, params, cfg, batch, False)[1])
    assert checked == []

    recording = Tape(seed=1)
    classify_batch(recording, params, cfg, batch, training=True)
    assert checked == [e.op for e in recording.entries]
    assert len(checked) > 15


# ----------------------------------------------------------------------
# non-finite results


def test_evaluate_accuracy_overflow_names_the_op():
    cfg, params, inputs = padded_batch()
    params["adj_embed.fc1.weight"].value[...] = 1e308
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match="op 'mlp' produced a non-finite value"):
            evaluate_accuracy(params, cfg, inputs, [0, 1])


def test_evaluate_accuracy_overflow_in_a_worker_thread_names_the_op(monkeypatch):
    cfg, params, inputs = padded_batch()
    params["adj_embed.fc1.weight"].value[...] = 1e308
    monkeypatch.setattr(training_module, "EVAL_SLOTS", 6)  # one batch per graph
    monkeypatch.setattr(training_module, "blas_threads", lambda: 1)
    monkeypatch.setattr(training_module, "_usable_cores", lambda: 2)
    threads = set()
    real_classify = training_module.classify_batch

    def recording_classify(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_classify(*args, **kwargs)

    monkeypatch.setattr(training_module, "classify_batch", recording_classify)
    # the errstate reaches the threads: an overflow warning there would be
    # an error under the suite's filter, raised before the replay names the op
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match="op 'mlp' produced a non-finite value"):
            evaluate_accuracy(params, cfg, inputs, [0, 1])
    assert threads and threading.get_ident() not in threads


def test_finite_difference_check_overflow_on_a_perturbed_entry_names_the_op():
    params = ModelParams({"w": (1, 1)})
    params.values[0] = 1.0
    biggest = np.finfo(np.float64).max

    def run_loss(tape):  # finite at w = 1, Inf at w = 1 + STEP
        return tape.scale(params["w"], biggest)

    assert np.isfinite(run_loss(Tape()).value).all()
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match="op 'scale' produced a non-finite value"):
            gradcheck.finite_difference_check(params, run_loss)


def test_paused_value_replays_on_a_recording_tape_with_the_same_seed(monkeypatch):
    tapes = []

    class Seen(Tape):
        def __init__(self, seed=None):
            super().__init__(seed)
            tapes.append(self)

    monkeypatch.setattr(autodiff, "Tape", Seen)
    x = Tensor(np.full((1, 64), 1e308), requires_grad=True)  # kept entries overflow
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="op 'dropout' produced a non-finite value"):
            paused_value(lambda tape: tape.dropout(x, 0.5, True), seed=7)
    assert [t._seed for t in tapes] == [7, 7]


def test_paused_value_non_finite_result_no_op_produced():
    with pytest.raises(NonFiniteError, match="no op produced"):
        paused_value(lambda tape: tape.constant([[np.inf]]))


def test_paused_value_dropped_non_finite_row_goes_unreported():
    # what the result never reads is not checked on a paused pass; a
    # recording pass at the same inputs still names the op
    x = Tensor([[1.0, 2.0], [1e308, 1e308]], requires_grad=True)

    def run(tape):
        return tape.take_rows(tape.scale(x, 10.0), [0])

    with np.errstate(over="ignore"):
        assert np.array_equal(paused_value(run).value, [[10.0, 20.0]])
        with pytest.raises(NonFiniteError, match="'scale'"):
            run(Tape())


# ----------------------------------------------------------------------
# the benchmark's evaluation count


def test_model_gradcheck_encodes_once_per_loss_evaluation(monkeypatch):
    """The benchmark counts gradcheck.encode calls as loss evaluations:
    one analytic pass plus two per parameter entry."""
    calls, sizes = [], []
    real_encode, real_init = gradcheck.encode, gradcheck.init_params

    def counting_encode(*args, **kwargs):
        calls.append(1)
        return real_encode(*args, **kwargs)

    def sized_init(*args, **kwargs):
        params = real_init(*args, **kwargs)
        sizes.append(params.values.size)
        return params

    monkeypatch.setattr(gradcheck, "encode", counting_encode)
    monkeypatch.setattr(gradcheck, "init_params", sized_init)
    report = gradcheck.model_gradcheck(residual_mode="raw", hidden_dim=4, layer_count=1,
                                       intermediate_dim=4)
    assert report.passed
    assert len(sizes) == 1
    assert len(calls) == 1 + 2 * sizes[0]
    assert report.evaluations == len(calls)
