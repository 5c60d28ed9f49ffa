"""Property tests: `neuron._sgd`, checked once per epoch, against the per-step-checked oracle.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle  # noqa: E402
import switchnet as sn  # noqa: E402
from switchnet.neuron import _sgd  # noqa: E402

PAIRS = (("sigmoid", "bce"), ("sigmoid", "mse"), ("tanh", "mse"), ("relu", "mse"))
# features up to 1e200 and learning rates up to 7e307, so that many runs diverge,
# at any epoch and step
FEATURES = (st.floats(min_value=-1e200, max_value=1e200)
            | st.sampled_from([0.0, -0.0, 5e-324, 0.5, -1.0, 2.0, 1e154, -1e154]))
RATES = st.builds(lambda m, e: m * 10.0 ** e, st.sampled_from([1, 2, 5, 7]), st.integers(-3, 307))


@st.composite
def runs(draw):
    """(weights, bias, rows, activation, config) for one `_sgd` call."""
    activation, loss = draw(st.sampled_from(PAIRS))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(st.lists(FEATURES, min_size=dim, max_size=dim), st.integers(0, 1)),
                         min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=dim, max_size=dim))
    bias = draw(st.floats(min_value=-1.0, max_value=1.0))
    config = sn.TrainConfig(learning_rate=draw(RATES), epochs=draw(st.integers(1, 5)), loss=loss,
                            seed=draw(st.integers(0, 2**32 - 1)), shuffle=draw(st.booleans()))
    return weights, bias, rows, activation, config


def outcome(sgd, case):
    """The run's weights, bias and epoch losses by repr, or its TrainingError message."""
    try:
        return repr(sgd(*case, stream=0))
    except sn.TrainingError as exc:
        return f"TrainingError: {exc}"


def bce_run(rate, features, labels, epochs=6):
    config = sn.TrainConfig(learning_rate=rate, epochs=epochs, loss="bce", seed=0, shuffle=False)
    return [0.0], 0.0, [([x], y) for x, y in zip(features, labels)], "sigmoid", config


def relu_mse_run(rate, features, labels, weight=0.5, epochs=6):
    config = sn.TrainConfig(learning_rate=rate, epochs=epochs, loss="mse", seed=0, shuffle=False)
    return [weight], 0.0, [([x], y) for x, y in zip(features, labels)], "relu", config


@settings(max_examples=400, deadline=None)
@given(runs())
# the faults past epoch 0 step 0 of test_neuron.py and test_network.py, then a
# loss total that overflows with no faulty step
@example(relu_mse_run(2e22, (2.0, 3.0, -2.0, -3.0), (1, 0, 0, 0)))
@example(relu_mse_run(1e154, (-1.0, -2.0, 1.0), (1, 1, 0)))
@example(bce_run(5e307, (3.0, 1.0, 0.5, 1.0), (1, 0, 1, 1)))
@example(bce_run(7e307, (0.5, 2.0, 1.0), (0, 1, 0)))
@example(relu_mse_run(5e-324, (1e154, 1e154), (0, 0), weight=1.0, epochs=2))
# only the bias overflows, on the epoch's last step
@example(([8e307, 8e307], -1.5e308, [([1.0, 1.0], 0)], "sigmoid",
          sn.TrainConfig(learning_rate=5e307, epochs=1, loss="bce")))
def test_sgd_matches_the_per_step_checked_oracle(case):
    expected = outcome(oracle.sgd, case)
    event("diverges" if expected.startswith("TrainingError") else
          "epoch loss overflows" if "inf" in expected else "finite")
    assert outcome(_sgd, case) == expected

