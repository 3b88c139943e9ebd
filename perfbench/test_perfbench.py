"""Fast checks of the benchmark harness; they trace tiny commands only and
never run a full workload."""

import json

import pytest

import layers
import run
from mockeis import functions, mock, partitions, pde, qseries

TINY_F = ("f", "--k", "3", "--j", "4", "--order", "12")
TINY_NK = ("table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "8")


@pytest.mark.parametrize("argv, multiplies", [(TINY_F, True), (TINY_NK, False)])
def test_traced_run_matches_untraced_and_counts_products(argv, multiplies):
    _, untraced = layers.run_pass([argv])
    tracer = layers.Tracer()
    _, traced = layers.run_pass([argv], tracer)
    assert untraced[0][0] == 0
    assert traced == untraced
    calls = tracer.summary().get("qseries.mul", {}).get("calls", 0)
    assert (calls > 0) is multiplies


def test_hooks_cover_imported_bindings_and_are_removed():
    bindings = [
        (mock, "partitions_of"),
        (functions, "partition_series"),
        (pde, "mock_eisenstein_family"),
        (mock, "jet_log"),
    ]
    originals = [getattr(module, name) for module, name in bindings]
    mul = vars(qseries.QSeries)["__mul__"]
    with layers.Tracer().hooked():
        assert all(getattr(m, n) is not o for (m, n), o in zip(bindings, originals))
        assert vars(qseries.QSeries)["__mul__"] is not mul
    assert [getattr(module, name) for module, name in bindings] == originals
    assert vars(qseries.QSeries)["__mul__"] is mul


def test_passes_start_and_end_with_empty_caches():
    caches = layers.find_caches()
    assert {"mockeis.partitions.partitions_of", "mockeis.mock.mock_eisenstein_family"} <= set(caches)
    partitions.partitions_of(6)
    tracer = layers.Tracer()
    layers.run_pass([TINY_NK, TINY_NK], tracer)
    # Both commands start cold, so each misses on every partitions_of(n).
    assert tracer.cache_stats[("mockeis.partitions.partitions_of", "misses")] == 2 * 8
    assert tracer.counts["partitions.enumerated"] == 2 * sum(
        len(partitions.partitions_of(n)) for n in range(1, 9)
    )
    partitions.partitions_of.cache_clear()
    layers.run_pass([TINY_NK])
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())


def test_every_seeded_command_has_a_seed_digest():
    expected = run.load_expected()
    seen = {run.SETUP_COMMAND}
    for workload in run.WORKLOADS:
        for seed in range(50):
            seen.update(run.workload_commands(workload, seed))
    assert {" ".join(argv) for argv in seen} == set(expected)


def test_gate_flags_wrong_code_digest_tally_and_route_mismatch():
    route_a = ("f", "--k", "3", "--route", "recursionA")
    route_b = ("f", "--k", "3", "--route", "logRoute")
    verify = ("verify", "--suite", "all")
    outputs = {route_a: b"x\n", route_b: b"y\n", verify: b"PASS a\n1/2 checks passed\n"}
    expected = {" ".join(argv): run.digest(out) for argv, out in outputs.items()}
    commands = list(outputs)
    assert len(run.check_pass(commands, [(0, outputs[c]) for c in commands], expected)) == 2
    assert run.check_pass([route_a], [(1, b"x\n")], expected) == [
        "f --k 3 --route recursionA: exit code 1"
    ]
    assert run.check_pass([route_a], [(0, b"z\n")], expected)


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_takes_each_command_over_every_run_of_it():
    def child(wall, rss):
        nominal = run.REFERENCE_NOMINAL_S
        host = {"reference": nominal * 2, "reference_cpu": nominal * 4}
        return {"wall": wall, "cpu": wall / 2, "rss_mb": rss} | host

    # The last pass stopped after its first command; the host ran at half
    # speed, and a quarter of that in CPU time.
    passes = [[child(1.0, 10), child(4.0, 30)], [child(2.0, 12), child(6.0, 30)], [child(3.0, 50)]]
    values, raw, speed = run.end_to_end([0.2, 0.1, 0.3], passes)
    assert raw == {"wall_s": 2.0 + 5.0, "cpu_s": 1.0 + 2.5, "setup_s": 0.2}
    assert speed == {"reference": 0.5, "reference_cpu": 0.25}
    assert values == {"wall_s": 3.5, "cpu_s": 0.875, "setup_s": 0.1, "peak_rss_mb": 30}
