"""Property tests: trained units do not depend on the worker count.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402

FLOATS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
PAIRS = (("sigmoid", "bce"), ("sigmoid", "mse"), ("tanh", "mse"), ("relu", "mse"))


@st.composite
def training_cases(draw):
    """Nodes with small disjoint subsets, one (activation, loss) pair, a train config."""
    activation, loss = draw(st.sampled_from(PAIRS))
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    nodes, next_id = [], 0
    for k, size in enumerate(sizes):
        local = tuple(sn.Observation(id=next_id + j, group=0, label=draw(st.integers(0, 1)),
                                     features=tuple(draw(FLOATS) for _ in range(dim)))
                      for j in range(size))
        next_id += size
        unit = sn.init_unit(dim, activation, k, seed=draw(st.integers(0, 2**16)))
        nodes.append(sn.Node(unit=unit, local_data=local))
    config = sn.TrainConfig(learning_rate=draw(st.sampled_from((0.05, 0.1, 0.5))),
                            epochs=draw(st.integers(1, 5)), loss=loss,
                            seed=draw(st.integers(-2**31, 2**31)), shuffle=draw(st.booleans()))
    return tuple(nodes), config


@settings(max_examples=12, deadline=None)
@given(training_cases())
def test_worker_count_matches_serial_train_unit(case):
    nodes, config = case
    serial = [sn.train_unit(n.unit, n.local_data, sn.node_train_config(config, n.node_id))
              for n in nodes]
    expected_units = repr(tuple(unit for unit, _ in serial))
    expected_logs = repr(tuple(log for _, log in serial))
    for workers in (1, 2):
        units, report = sn.run_local_training(nodes, config, workers=workers)
        assert repr(units) == expected_units
        assert repr(report.logs) == expected_logs
