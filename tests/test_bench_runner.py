"""Smoke test for the benchmark-regression harness.

Runs the real runner with ``--trials 1 --no-compare`` (the `make
bench-check` smoke entry) so the tier-1 suite exercises kernel setup,
timing, JSON emission, and the speedup bookkeeping without depending on
wall-clock stability.
"""

import json

from benchmarks import runner
from benchmarks.baselines import BASELINE_BACKEND, BASELINES


def test_runner_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = runner.main(["--trials", "1", "--no-compare",
                        "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kernels"]
    assert data["calibration_seconds"] > 0
    # Schema 5: the run records the kernel backend that produced the
    # numbers, each kernel's plan-cache traffic, and the serving
    # runtime section (qps/p99/per-shard counters).
    assert data["schema"] == 5
    assert data["serving"]["qps"] > 0
    assert data["serving"]["p99_normalized"] > 0
    assert len(data["serving"]["per_shard"]) == data["serving"]["n_shards"]
    from repro.kernels import available_backends
    assert data["backend"]["name"] in available_backends()
    assert data["backend"]["numpy"]
    for entry in data["kernels"].values():
        assert entry["median_seconds"] > 0
        assert entry["normalized"] > 0
        assert set(entry["plan_cache"]) == {"hits", "misses", "hit_rate"}
    # The speedup over the seed's per-byte loop is recorded (its exact
    # value is asserted by --check, not here, to stay timing-robust).
    assert data["speedups"]["pir_single_retrieve_n4096_vs_seed"] > 1.0


def test_kernel_subset_and_check_logic(tmp_path):
    out = tmp_path / "bench.json"
    code = runner.main([
        "--trials", "1", "--no-compare", "--output", str(out),
        "--kernels", "pir_square_retrieve_n4096", "mdav_n1000_k5",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data["kernels"]) == {
        "pir_square_retrieve_n4096", "mdav_n1000_k5"
    }
    # check_regressions flags a kernel that blows past its baseline and
    # accepts one comfortably under it.  Pin the recorded backend to the
    # baseline one so only the normalized-time failure is in play.
    data["backend"] = {"name": BASELINE_BACKEND, "numpy": "0"}
    data["kernels"]["mdav_n1000_k5"]["normalized"] = (
        BASELINES["mdav_n1000_k5"] * 100
    )
    data["kernels"]["pir_square_retrieve_n4096"]["normalized"] = (
        BASELINES["pir_square_retrieve_n4096"] * 0.5
    )
    failures = runner.check_regressions(data, tolerance=2.0)
    assert len(failures) == 1 and "mdav_n1000_k5" in failures[0]


def test_every_baseline_names_a_kernel():
    kernel_names = {k.name for k in runner.KERNELS}
    assert set(BASELINES) <= kernel_names


def _speedup_keys():
    """Every speedup key the runner records."""
    return (
        {f"{fast}_vs_seed" for fast, _ in runner.SPEEDUP_PAIRS}
        | {f"{fast}_vs_uint8" for fast, _ in runner.UINT8_PAIRS}
    )


def test_every_speedup_pair_names_kernels_with_minimums():
    kernel_names = {k.name for k in runner.KERNELS}
    for fast, ref in runner.SPEEDUP_PAIRS + runner.UINT8_PAIRS:
        assert {fast, ref} <= kernel_names
    from benchmarks.baselines import MIN_SPEEDUPS
    # Every gate guards a speedup the runner actually records.
    assert set(MIN_SPEEDUPS) <= _speedup_keys()


def test_committed_record_holds_only_what_the_runner_times():
    """BENCH_hotpaths.json names no deleted kernel, speedup or overhead."""
    record = json.loads(runner.DEFAULT_OUTPUT.read_text())
    assert set(record["kernels"]) <= {k.name for k in runner.KERNELS}
    assert set(record["speedups"]) <= _speedup_keys()
    assert set(record["overheads"]) <= {
        f"{wrapped}_vs_bare" for wrapped, _ in runner.OVERHEAD_PAIRS
    }


def test_list_prints_registered_kernels(capsys):
    assert runner.main(["--list"]) == 0
    out = capsys.readouterr().out
    for kernel in runner.KERNELS:
        assert kernel.name in out


def test_check_fails_on_empty_baseline():
    """A baseline with no kernels guards nothing — --check must say so."""
    results = {
        "kernels": {"mdav_n1000_k5": {
            "median_seconds": 0.01, "normalized": 1.0,
            "reps": 1, "reference_only": False,
        }},
        "speedups": {},
    }
    failures = runner.check_regressions(results, tolerance=2.0, baselines={})
    assert failures
    assert "contains no kernels" in failures[0]


def test_check_fails_when_nothing_was_timed():
    failures = runner.check_regressions(
        {"kernels": {}, "speedups": {}}, tolerance=2.0
    )
    assert any("no kernels were timed" in f for f in failures)


def test_check_flags_speedup_shortfall():
    results = {"kernels": {}, "speedups": {"qdb_overlap_h2000_vs_seed": 2.0}}
    failures = runner.check_regressions(results, tolerance=2.0)
    assert any(
        "qdb_overlap_h2000" in f and "2.0x" in f for f in failures
    )


def test_check_flags_uint8_speedup_shortfall():
    results = {
        "kernels": {},
        "speedups": {"pir_batch64_retrieve_n65536_vs_uint8": 1.5},
    }
    failures = runner.check_regressions(results, tolerance=2.0)
    assert any(
        "pir_batch64_retrieve_n65536" in f and "uint8" in f
        for f in failures
    )


def test_check_overhead_failure_names_only_its_pair():
    results = {
        "kernels": {},
        "speedups": {},
        "overheads": {"telemetry_overhead_qdb_ask_batch_vs_bare": 1.5},
    }
    failures = runner.check_regressions(results, tolerance=2.0)
    (failure,) = [f for f in failures if "overhead" in f]
    assert failure.startswith(
        "telemetry_overhead_qdb_ask_batch: 1.500x the bare qdb_ask_batch "
    )
    assert "fault" not in failure


def test_check_flags_backend_mismatch():
    """Numbers from a different kernel backend must not be compared."""
    results = {
        "kernels": {},
        "speedups": {},
        "backend": {"name": "definitely-not-the-baseline", "numpy": "0"},
    }
    failures = runner.check_regressions(results, tolerance=2.0)
    assert any("backend mismatch" in f for f in failures)
    # Matching backend (or a pre-schema-3 record with none): no complaint.
    results["backend"] = {"name": BASELINE_BACKEND, "numpy": "0"}
    assert not any(
        "backend mismatch" in f
        for f in runner.check_regressions(results, tolerance=2.0)
    )
