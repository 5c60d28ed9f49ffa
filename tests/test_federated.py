import dataclasses

import pytest

import switchnet as sn


def five_group_setup(counts=(20, 30, 10, 20, 20), seed=42):
    means = [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0), (0.0, 2.2)]
    specs = [sn.GroupSpec(name=f"segment {k}", mean=means[k], scale=(0.35, 0.35),
                          label_rule=sn.LabelRule("all-one"), count=c)
             for k, c in enumerate(counts)]
    dataset = sn.generate_synthetic(specs, seed=seed)
    plan = sn.PartitionPlan.from_counts(list(counts), selection="stratified")
    parts = sn.partition(dataset, plan, seed=seed)
    units = [sn.init_unit(2, "sigmoid", k, seed=seed) for k in range(len(counts))]
    return dataset, parts, units


def test_make_nodes_sizes_and_locality():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    assert [len(n.local_data) for n in nodes] == [20, 30, 10, 20, 20]
    node2_ids = {o.id for o in nodes[2].local_data}
    assert node2_ids == set(parts.subsets[2])
    assert not node2_ids & set(parts.subsets[3])


def test_make_nodes_count_mismatch():
    dataset, parts, units = five_group_setup()
    with pytest.raises(sn.FederatedError, match="4 units"):
        sn.make_nodes(parts, dataset, units[:4])


def test_worker_counts_bit_identical():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    config = sn.TrainConfig(epochs=10, seed=42)
    reference, _ = sn.run_local_training(nodes, config, workers=1)
    for workers in (2, 4):
        trained, report = sn.run_local_training(nodes, config, workers=workers)
        assert trained == reference
        assert report.workers == workers


def test_matches_sequential_oracle():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    config = sn.TrainConfig(epochs=10, seed=42)
    trained, _ = sn.run_local_training(nodes, config, workers=2)
    for node, unit in zip(nodes, trained):
        expected, _ = sn.train_unit(node.unit, node.local_data,
                                    sn.node_train_config(config, node.node_id))
        assert unit == expected


def test_report_shape():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    _, report = sn.run_local_training(nodes, sn.TrainConfig(epochs=3, seed=1), workers=2)
    assert len(report.logs) == 5
    assert len(report.durations_ms) == 5
    assert sorted(n for n, _ in report.schedule) == [0, 1, 2, 3, 4]
    assert all(d >= 0 for d in report.durations_ms)
    doc = report.to_json()
    assert set(doc) == {"nodes"}  # the worker count goes to the timings only
    assert [n["node_id"] for n in doc["nodes"]] == [0, 1, 2, 3, 4]
    assert all(set(n) == {"node_id", "final_loss", "epochs", "steps", "epoch_losses"}
               for n in doc["nodes"])
    assert all(n["epochs"] == 3 == len(n["epoch_losses"]) for n in doc["nodes"])
    timings = report.timings_to_json()
    assert set(timings) == {"workers", "durations_ms", "schedule"}
    assert timings["workers"] == 2
    assert sorted(timings["durations_ms"]) == ["0", "1", "2", "3", "4"]
    assert sorted(n for n, _ in timings["schedule"]) == [0, 1, 2, 3, 4]


def nodes_with_failing_node_3():
    dataset, parts, units = five_group_setup()
    nodes = list(sn.make_nodes(parts, dataset, units))
    broken = sn.NeuronUnit(unit_index=3, activation="relu", weights=(1.0, 1.0), bias=0.0)
    nodes[3] = dataclasses.replace(nodes[3], unit=broken)
    return nodes, sn.TrainConfig(epochs=1, seed=1, loss="bce")  # bce + relu is rejected


def test_training_failure_names_node():
    nodes, config = nodes_with_failing_node_3()
    with pytest.raises(sn.FederatedError, match="node 3"):
        sn.run_local_training(nodes, config, workers=1)


def test_training_failure_names_node_in_pool():
    nodes, config = nodes_with_failing_node_3()
    with pytest.raises(sn.FederatedError, match="node 3: training failed"):
        sn.run_local_training(nodes, config, workers=2)


def test_workers_capped_at_node_count():
    dataset, parts, units = five_group_setup(counts=(20, 30))
    nodes = sn.make_nodes(parts, dataset, units)
    config = sn.TrainConfig(epochs=3, seed=42)
    reference, _ = sn.run_local_training(nodes, config, workers=1)
    trained, report = sn.run_local_training(nodes, config, workers=4)
    assert trained == reference
    assert report.workers == 2
    assert report.timings_to_json()["workers"] == 2
    assert {worker for _, worker in report.schedule} <= {0, 1}


def test_collect_equals_direct_assembly():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    trained, _ = sn.run_local_training(nodes, sn.TrainConfig(epochs=10, seed=42), workers=2)
    table, _ = sn.build_switch(5, {g: {g} for g in range(5)})
    collected = sn.collect(sn.with_trained_units(nodes, trained), table)
    direct = sn.assemble(trained, table)
    assert collected == direct
    probe = dataset.observations[0]
    assert sn.forward(collected, probe) == sn.forward(direct, probe)


def test_collect_does_not_mutate_units():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    trained, _ = sn.run_local_training(nodes, sn.TrainConfig(epochs=5, seed=42), workers=1)
    snapshot = tuple(trained)
    table, _ = sn.build_switch(5, {g: {g} for g in range(5)})
    sn.collect(sn.with_trained_units(nodes, trained), table)
    assert tuple(trained) == snapshot


def test_collect_orders_by_node_id():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    table, _ = sn.build_switch(5, {g: {g} for g in range(5)})
    shuffled = [nodes[3], nodes[0], nodes[4], nodes[1], nodes[2]]
    net = sn.collect(shuffled, table)
    assert [u.unit_index for u in net.units] == [0, 1, 2, 3, 4]


def test_collect_missing_node():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    table, _ = sn.build_switch(5, {g: {g} for g in range(5)})
    with pytest.raises(sn.FederatedError, match="missing node"):
        sn.collect(nodes[:4], table)


def test_run_local_training_validates_workers():
    dataset, parts, units = five_group_setup()
    nodes = sn.make_nodes(parts, dataset, units)
    with pytest.raises(sn.FederatedError, match="workers"):
        sn.run_local_training(nodes, sn.TrainConfig(), workers=0)
