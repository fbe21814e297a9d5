"""Drift gate: the committed reference outputs, recomputed.

Fold CSV and summary hashes and gradcheck errors must match exactly,
logits and fold 0's trained parameters within 1e-12 relative. A
change that means to move them reruns ``python3
tests/reference_outputs.py`` and says what moved in CHANGES.md.
Another numpy or BLAS can round differently, so every failure names
the versions the file was made with and this run's.
"""

import json

import numpy as np
import pytest

import segbert.autodiff as autodiff
from reference_outputs import REFERENCE, compute, environment, gradcheck_errors

RTOL = 1e-12


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def now():
    return compute()


def _context(reference) -> str:
    return f"reference made with {reference['env']}, this run has {environment()}"


def _moved_errors(expected: dict, got: dict) -> dict:
    """(reference, now) per mode and parameter whose error differs."""
    return {(mode, name): (err, got[mode].get(name))
            for mode in expected.keys() | got.keys()
            for name, err in {**got.get(mode, {}), **expected.get(mode, {})}.items()
            if expected.get(mode, {}).get(name) != got.get(mode, {}).get(name)}


def test_run_cv_csv_hashes_match(reference, now):
    assert now["run_cv"] == reference["run_cv"], _context(reference)


def test_logits_match_within_1e_12_relative(reference, now):
    assert now["logits"].keys() == reference["logits"].keys()
    for strategy, expected in reference["logits"].items():
        got, expected = np.array(now["logits"][strategy]), np.array(expected)
        assert got.shape == expected.shape, strategy
        worst = float(np.max(np.abs(got - expected) / np.abs(expected)))
        assert worst <= RTOL, f"{strategy}: relative error {worst:.2e}; {_context(reference)}"


def test_fold_0_final_values_match_within_1e_12_relative(reference, now):
    """An entry that is exactly 0 (a head no loss reaches) must stay 0."""
    assert now["final_values"].keys() == reference["final_values"].keys()
    for run, expected in reference["final_values"].items():
        got = now["final_values"][run]
        assert got.keys() == expected.keys(), run
        for name, values in expected.items():
            new, old = np.array(got[name]), np.array(values)
            assert new.shape == old.shape, (run, name)
            moved = np.abs(new - old) > RTOL * np.abs(old)
            assert not moved.any(), (
                f"{run} {name}: {int(moved.sum())} of {old.size} entries moved "
                f"beyond 1e-12 relative; {_context(reference)}")


def test_gradcheck_errors_match_exactly(reference, now):
    assert _moved_errors(reference["gradcheck"], now["gradcheck"]) == {}, _context(reference)


def test_a_tampered_mlp_backward_moves_the_gradcheck_errors(reference, monkeypatch):
    """Negative control: 1% more input gradient out of every recorded
    mlp, as in the gradcheck's own control, moves entries of the gate."""
    real_mlp = autodiff.Tape.mlp

    def tampered(self, x, fc1, fc2):
        out = real_mlp(self, x, fc1, fc2)
        if self.entries and self.entries[-1].output is out:
            entry = self.entries[-1]
            orig, src = entry.backward, entry.inputs[0]

            def bad():
                orig()
                if src.grad is not None:
                    src.grad *= 1.01

            entry.backward = bad
        return out

    monkeypatch.setattr(autodiff.Tape, "mlp", tampered)
    assert len(_moved_errors(reference["gradcheck"], gradcheck_errors())) > 10
