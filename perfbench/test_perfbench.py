"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)


@pytest.mark.parametrize("workload", ["cli-cold", "certify-warm", "form-search"])
def test_other_seed_gives_other_inputs(workload):
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_generated_primes_are_usable():
    for item in inputs.generate("certify-warm", 3)["certify"] + inputs.generate("cli-cold", 3)["certify"]:
        n, p = item["n"], item["p"]
        assert inputs.is_prime(p) and p % 2 and p % (n + 1) == 1 and p > inputs.M_OF_N[n]


def test_self_time_subtracts_the_union_of_child_spans():
    # 0: root [0, 10]; 1, 2: overlapping children [1, 5] and [3, 7]; 3: grandchild
    # [2, 3] under 1; 4: a child of 2 that runs past its parent's end [6, 9].
    start = [0.0, 1.0, 3.0, 2.0, 6.0]
    end = [10.0, 5.0, 7.0, 3.0, 9.0]
    parent = [spans.NO_PARENT, 0, 0, 1, 2]
    own = spans.self_times(start, end, parent)
    assert own == pytest.approx([10 - 6, 4 - 1, 4 - 1, 1, 3])


def test_tail_picks_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert gate.tail(values) == (90.0, 90.0, 100)
    value, percentile, samples = gate.tail([float(v) for v in range(1, 41)])
    assert (value, percentile, samples) == (30.0, 75.0, 40)
    assert sum(v > value for v in range(1, 41)) == 10
    assert gate.tail([float(v) for v in range(1, 22)]) == (11.0, pytest.approx(100 * 11 / 21), 21)


def test_tail_below_21_samples_is_the_maximum():
    assert gate.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert gate.tail([float(v) for v in range(1, 21)]) == (20.0, 100.0, 20)


def test_has_float():
    assert not gate.has_float('{"a": [1, "2.5", {"num": "1", "den": "2"}]}')
    assert gate.has_float('{"a": [1, {"b": 2.0}]}')
    assert gate.has_float('{"a": NaN}')


def test_benchmark_json_lists_the_metrics_the_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.GENERATORS)


def test_tracer_covers_imported_names_and_uninstalls():
    from pgroupcert import certdoc, exterior, solver, verify

    original = exterior.atilde_table
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        cert = solver.certify(2, 1, 7)
        doc = certdoc.build_document(
            kind="construction", command="certify", params={}, certificate=certdoc.construction_payload(cert)
        )
        verify.verify_document(doc)
    finally:
        tracer.uninstall()
    assert exterior.atilde_table is original and solver.atilde_table is original
    names = [name for name, *_ in tracer.rows()]
    # solver and verify reach atilde_table through their own `from .exterior import` names.
    assert names.count("exterior.atilde_table") >= 2
    assert "solver.find_roots" in names and "series.mul" in names
    metrics = layers.per_layer_metrics(tracer, 1, [], 1.0)
    assert metrics["solver.certify.self_s"] > 0 and metrics["verify.construction.self_s"] > 0
    assert metrics["groups.upper_bound_skipped"] == 0  # gb(4, 3, 7) = 400 fits the budget
    assert metrics["symplectic.subspaces_examined"] == 2 * 400
    assert metrics["verify.checks_failed"] == 0


@pytest.mark.parametrize("mutation", sorted(gate.MUTATIONS["construction"]))
def test_construction_controls_are_rejected(mutation):
    from pgroupcert import certdoc, solver, verify

    cert = solver.certify(2, 1, 7)
    doc = certdoc.build_document(
        kind="construction", command="certify", params={}, certificate=certdoc.construction_payload(cert)
    )
    bad = certdoc.parse_document(gate.mutate(certdoc.serialize_document(doc), mutation, certdoc))
    report = verify.verify_document(bad)
    assert report.results[0].passed  # the digest matches: only the real checks can reject it
    assert not report.ok
