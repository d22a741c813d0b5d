"""Smoke test of the benchmark itself: `python -m pytest bench/tests -q`.

Runs every workload in `--quick` mode (about half a minute) and checks
what the benchmark promises about its own output.  Not part of tier-1:
`pyproject.toml` collects `tests/` only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
#: printed and recorded by every run, gated by nothing (README, "What is not gated")
REPORTED = {"op_latency_s_p50", "op_latency_s_p90", "ops_per_s"}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = run_bench("--seed", "7", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_every_workload_emits_every_end_to_end_metric(quick_result):
    """The metrics of BENCHMARK.json plus the reported ones: issue 12's
    seven names (`failed_fraction` beside the metrics) on every workload."""
    assert list(quick_result["workloads"]) == WORKLOADS
    for name, rec in quick_result["workloads"].items():
        assert set(rec["metrics"]) == END_TO_END | REPORTED, name
        assert "failed_fraction" in rec, name
        for key, metric in rec["metrics"].items():
            assert NAME.fullmatch(key)
            assert metric["value"] > 0, (name, key)
            assert metric["n"] >= 1 and metric["q1"] <= metric["q3"]
            assert metric["run_q1"] == metric["value"] == metric["run_q3"]


def test_no_op_failed_and_nothing_was_left_behind(quick_result):
    for name, rec in quick_result["workloads"].items():
        assert rec["failed_fraction"] == 0, (name, rec["detail"])
        assert rec["detail"]["residue"] == [], name


def test_quick_results_are_flagged_and_fingerprinted(quick_result):
    assert quick_result["quick"] is True
    fp = quick_result["fingerprint"]
    for key in ("git", "cpu_model", "nproc", "ram_mib", "kernel", "python",
                "numpy", "scipy", "native_available"):
        assert key in fp
    assert quick_result["seed"] == 7


def test_driver_form_prints_exactly_the_benchmark_json_names():
    """`--trace 0` prints the end-to-end names, `--trace 1` the per-layer
    names, each as the last stdout line with exactly four keys."""
    for trace, wanted in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run_bench("--workload", "serve-inline", "--seed", "7",
                         "--seconds", "2", "--trace", trace, "--quick")
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert set(last["metrics"]) == wanted
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for key, metric in last["metrics"].items():
            assert NAME.fullmatch(key)
            assert metric["unit"] == units[key]


def test_verifier_rejects_a_corrupted_product():
    import operands as ops
    from harness import Verifier

    s = ops.wiki_rmat(7, ops.rng_for(7))
    ref = ops.reference_product(s)
    good = ops.wrap(ref)
    assert Verifier(ref).check(good)

    wrong_value = ops.wrap(ref)
    wrong_value.data[3] *= 1.0 + 1e-9
    assert not Verifier(ref).check(wrong_value)

    wrong_place = ops.wrap(ref)
    row = int(np.argmax(np.diff(wrong_place.row_offsets) >= 1))
    lo = wrong_place.row_offsets[row]
    taken = set(wrong_place.col_ids[lo:wrong_place.row_offsets[row + 1]].tolist())
    wrong_place.col_ids[lo] = next(c for c in range(wrong_place.n_cols)
                                   if c not in taken)
    assert not Verifier(ref).check(wrong_place)

    # after the first product, the CRC stands in for the reference
    v = Verifier(ref)
    assert v.check(good) and v.check(ops.wrap(ref))
    assert not v.check(wrong_value)


def test_compare_reports_worse_and_refuses_other_hosts(quick_result, tmp_path):
    """`--compare` exits non-zero on a worsened median of a ratio, reports
    the rows in seconds without judging them, and marks
    results from a host with another `nproc`, or with another number of
    runs, not comparable."""
    base = json.loads(json.dumps(quick_result))
    base["quick"] = False

    def compare_with(change) -> subprocess.CompletedProcess:
        new = json.loads(json.dumps(base))
        change(new)
        for label, payload in (("base", base), ("new", new)):
            (tmp_path / f"{label}.json").write_text(json.dumps(payload))
        return run_bench("--compare", str(tmp_path / "base.json"),
                         "--result", str(tmp_path / "new.json"))

    def double(workload: str, key: str):
        def change(new: dict) -> None:
            metric = new["workloads"][workload]["metrics"][key]
            for field in ("value", "run_q1", "run_q3"):
                metric[field] *= 2.0
        return change

    same = compare_with(lambda new: None)
    assert same.returncode == 0, same.stdout
    worse = compare_with(double("ooc-mesh", "slowdown_vs_scipy"))
    assert worse.returncode == 1 and "worse" in worse.stdout
    for key in REPORTED | {"setup_s"}:
        slower = compare_with(double("ooc-mesh", key))
        assert slower.returncode == 0 and "not judged" in slower.stdout

    def other_host(new: dict) -> None:
        new["fingerprint"]["nproc"] += 1

    def more_runs(new: dict) -> None:
        new["runs"] += 1

    for change in (other_host, more_runs):
        refused = compare_with(change)
        assert refused.returncode == 2 and "NOT COMPARABLE" in refused.stdout
