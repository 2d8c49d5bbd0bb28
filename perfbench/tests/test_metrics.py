"""Metric names, the percentile rule, and which metrics each workload emits."""

import json
import os
import random

import numpy as np
import pytest

from perfbench import common, run, serve, train, train_proc
from perfbench.loadgen import Sample

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


@pytest.mark.parametrize("name", ["setup_s", "kernel.tensor.mul.ms", "a-b_c.9", "9lives"])
def test_grammar_accepts(name):
    assert common.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "ms%", "x" * 65, "é"])
def test_grammar_rejects(name):
    assert not common.valid_metric_name(name)


E2E_NAMES = {n for n, _u in common.end_to_end_table()}
LAYER_NAMES = {n for n, _u in common.per_layer_table()}


def test_declared_metrics_follow_the_grammar_once_each():
    tables = common.end_to_end_table() + common.per_layer_table()
    names = [n for n, _u in tables]
    assert len(names) == len(set(names))
    assert all(common.valid_metric_name(n) for n in names)
    assert all(common.valid_unit(u) for _n, u in tables)
    assert set(common.LEDGER_ROWS) <= LAYER_NAMES


def test_benchmark_json_matches_the_tables():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(common.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- the percentile / sample-count rule ---------------------------------

def test_sample_counts_leave_ten_beyond_each_reported_percentile():
    assert common.samples_beyond(1000, 99.0) == 10
    assert common.samples_beyond(999, 99.0) == 9
    assert common.samples_beyond(1100, 99.0) == 11
    assert common.samples_beyond(100, 90.0) == 10
    assert common.samples_beyond(99, 90.0) == 9
    for workload in serve.WORKLOADS.values():
        for seconds in (1, 25, 60):
            assert common.samples_beyond(serve.timed_request_count(workload, seconds), 99.0) >= 10
    # Training: 12 epochs x 14 full batches of 64 out of 900 graphs.
    steps = train_proc.EPOCHS * (900 // 64)
    assert steps == 168 and common.samples_beyond(steps, 90.0) >= 10


def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    for n in (1, 2, 7, 1000):
        values = [rng.random() for _ in range(n)]
        for q in (0.0, 50.0, 99.0, 100.0):
            assert common.percentile(values, q) == pytest.approx(np.percentile(values, q))


# -- each workload emits exactly its metrics, each from its own input ----

def _changes_one_metric_per_field(compute, inputs: dict, fields: dict):
    base = compute(inputs)
    for field, change in fields.items():
        perturbed = dict(inputs)
        perturbed[field] = change(inputs[field])
        after = compute(perturbed)
        changed = [name for name in base if base[name] != after[name]]
        assert len(changed) == 1, (field, changed)


def test_training_values_are_the_declared_metrics_from_distinct_inputs():
    report = {
        "peak_rss_mib": 300.0, "finite_steps": 168, "loss_steps": 168,
        "step_s": [0.1 + 0.001 * i for i in range(168)], "seed_graphs": 43200,
        "fit_s": 17.0, "train_loss": 1.2, "ood_accuracy": 0.19, "setups": [1.0, 1.1, 1.2],
    }

    def compute(r):
        return train._values(r["setups"], r)

    assert set(compute(report)) == E2E_NAMES
    _changes_one_metric_per_field(compute, report, {
        "peak_rss_mib": lambda v: v + 1,
        "finite_steps": lambda v: v - 1,
        "seed_graphs": lambda v: v + 1,
        "train_loss": lambda v: v + 0.1,
        "ood_accuracy": lambda v: v + 0.1,
        "setups": lambda v: [x + 1 for x in v],
    })


def _serving_inputs():
    from repro.graph.data import Graph

    samples, parsed, graphs, shifted = [], {}, [], []
    for i in range(20):
        samples.append(Sample(i, due=i * 0.02, sent=i * 0.02, done=i * 0.02 + 0.01 + 0.0001 * i,
                              status=200, body=b""))
        parsed[i] = [{"probs": [0.25, 0.75], "ood": i % 2 == 0, "prediction": 1, "energy": -1.0}]
        graphs.append([Graph(x=np.ones((3, 1)), edge_index=np.zeros((2, 0), dtype=np.int64), y=i % 2)])
        shifted.append([i % 3 == 0])
    traffic = serve.Traffic(bodies=[b""] * 20, graphs=graphs, shifted=shifted)
    return samples, parsed, traffic


def test_serving_values_are_the_declared_metrics_from_distinct_inputs():
    samples, parsed, traffic = _serving_inputs()
    inputs = {"samples": samples, "parsed": parsed, "setups": [0.5, 0.6, 0.7], "mem": 60.0, "start": 0.0}

    def compute(x):
        return serve.summarise(x["samples"], x["start"], [None] * len(x["samples"]), x["parsed"],
                               traffic, x["setups"], x["mem"])["values"]

    assert set(compute(inputs)) == E2E_NAMES
    _changes_one_metric_per_field(compute, inputs, {
        "setups": lambda v: [x + 1 for x in v],
        "mem": lambda v: v + 1,
        "start": lambda v: v - 1.0,
    })
    flipped = {i: [dict(r, ood=not r["ood"]) for r in rs] for i, rs in parsed.items()}
    assert compute(dict(inputs, parsed=flipped))["ood_accuracy"] != compute(inputs)["ood_accuracy"]


def test_ledger_report_emits_every_per_layer_metric_and_adds_up():
    rows = {"encoders.forward_ms": 5.0, "net.handler_ms": 1.0, "batcher.graphs_per_forward": 1.2}
    values, lines = run.ledger_report("serve-online", {"rows": rows, "mean_ms": 9.0,
                                                       "unit": "request", "count": 10})
    assert set(values) == LAYER_NAMES
    assert sum(values[n] for n in common.LEDGER_ROWS) + values["unattributed_ms"] == pytest.approx(9.0)
    assert common.metric_block(values, common.per_layer_table())
    assert any(line.startswith("ledger serve-online") for line in lines)


def test_metric_block_refuses_missing_and_undeclared_names():
    table = common.end_to_end_table()
    values = {name: 1.0 for name, _u in table}
    assert set(common.metric_block(values, table)) == set(values)
    with pytest.raises(ValueError):
        common.metric_block({**values, "extra": 1.0}, table)
    values.pop("setup_s")
    with pytest.raises(ValueError):
        common.metric_block(values, table)
