"""Every keyed random stream a run draws from is its own stream.

SeedSequence pads its entropy with zero words, so two different keys can name
one stream (`(seed, g, 0)` and `(seed, g)`); this records every key a run uses
and checks that no two of them hash to the same state.
"""
import numpy as np
import pytest

import switchnet as sn
import switchnet.data
import switchnet.federated
import switchnet.neuron
from switchnet import seeding


def _state(parts) -> bytes:
    return np.random.SeedSequence([seeding._encode(p) for p in parts]).generate_state(4).tobytes()


@pytest.mark.parametrize("aggregation", ["router-mean", "linear-readout"])
def test_run_streams_never_collide(tmp_path, monkeypatch, aggregation):
    keys = set()

    def recording(kind, fn):
        def record(*parts):
            keys.add((kind, parts))
            return fn(*parts)
        return record

    # the names the modules that draw bind; training runs in this process at one worker
    monkeypatch.setattr(switchnet.data, "rng_for", recording("rng_for", seeding.rng_for))
    monkeypatch.setattr(switchnet.neuron, "rng_for", recording("rng_for", seeding.rng_for))
    monkeypatch.setattr(switchnet.federated, "derive_seed",
                        recording("derive_seed", seeding.derive_seed))
    config = sn.load_config(sn.default_config_path(),
                            [f"output.dir={tmp_path / 'out'}", "network.workers=1",
                             f"network.aggregation={aggregation}"])
    sn.run_pipeline(config)

    assert {kind for kind, _ in keys} == {"rng_for", "derive_seed"}
    by_state = {}
    for kind, parts in sorted(keys, key=repr):
        by_state.setdefault(_state(parts), []).append((kind, parts))
    shared = [streams for streams in by_state.values() if len(streams) > 1]
    assert not shared, f"keys naming one stream: {shared}"
