"""Learning-quality guard: a labelled config on which the units must learn.

The packaged config labels every observation 1, so its accuracy is 1.0
whatever the units learn. Here each of 8 sectors on a circle of radius 3 is
labelled by its own half-plane, `x . (cos, sin) - 3 > 0`, about half of each
group. The floors were fixed from a sweep over seeds 1-6 (unseen accuracy
0.78-0.84 under router-mean and 0.81-0.85 under the readout, against a 0.53
majority baseline; smallest per-unit contribution 0.000-0.025), not from this
test's seed. It is also the
one test whose labels are not all 1, so it catches features and labels that
fall out of alignment anywhere between the dataset and the metrics.
"""

import json
import math

import pytest

import switchnet as sn

N_GROUPS = 8


def sector_specs():
    specs = []
    for g in range(N_GROUPS):
        angle = 2.0 * math.pi * g / N_GROUPS
        c, s = math.cos(angle), math.sin(angle)
        specs.append(sn.GroupSpec(name=f"sector {g}", mean=(3.0 * c, 3.0 * s), scale=(0.6, 0.6),
                                  label_rule=sn.LabelRule("linear-threshold", weights=(c, s), bias=-3.0),
                                  count=60))
    return specs


@pytest.mark.parametrize("aggregation", ["router-mean", "linear-readout"])
def test_sector_units_learn_their_half_planes(tmp_path, aggregation):
    doc = {"seed": 42,
           "data": {"groups": [spec.to_json() for spec in sector_specs()], "holdout_fraction": 0.2},
           "partition": {"selection": "stratified", "counts": [25] * N_GROUPS},
           "switch": {"entries": {str(g): [g] for g in range(N_GROUPS)}},
           "train": {"learning_rate": 0.1, "epochs": 50, "loss": "bce"},
           "network": {"activation": "sigmoid", "aggregation": aggregation},
           "output": {"dir": str(tmp_path / "bundle")}}
    bundle = sn.run_pipeline(sn.parse_config(doc))
    metrics = json.loads(bundle.metrics_non_overlapping_json.read_text())
    contributions = [row["contribution"]
                     for row in json.loads(bundle.contribution_json.read_text())["units"]]
    assert metrics["n"] == N_GROUPS * (60 - 25)
    assert metrics["accuracy"] >= 0.70, metrics
    assert min(contributions) >= -0.02, contributions
    assert sum(contributions) / len(contributions) > 0, contributions
