"""The benchmark's own tests: ``python -m pytest perfbench`` from the root.

The last three tests run the real command (about a minute together).
"""

import cProfile
import json
import os
import shutil
import subprocess
import sys

import pytest

from layers import attribute, layer_table
from oracle import stamp_failures
from repro.cluster import run_workload
from repro.experiments import common
from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _tiny_run(s4d: bool, seed: int = 3):
    spec = common.testbed(num_nodes=2, seed=seed)
    campaign = common.ior_campaign(2, 8192, instances=2, sequential=1, seed=seed,
                            requests_per_rank=6)
    return run_workload(spec, campaign, s4d=s4d, phases=("interleaved",))


def _reads(run):
    return [r for phase in run.phases.values() for inst in phase.per_instance
            for rank in inst for r in rank.results if r.op == "read"]


@pytest.mark.parametrize("s4d", [False, True])
def test_oracle_passes_clean_run_and_flags_corrupted_stamp(s4d):
    run = _tiny_run(s4d)
    assert stamp_failures(run) == 0
    read = _reads(run)[3]
    start, end, stamp = read.segments[0]
    read.segments[0] = (start, end, stamp + 1)
    assert stamp_failures(run) == 1


def test_oracle_flags_a_read_that_does_not_cover_its_range():
    run = _tiny_run(True)
    read = _reads(run)[0]
    start, end, stamp = read.segments[-1]
    read.segments[-1] = (start, end - 1, stamp)
    assert stamp_failures(run) == 1


def test_foreign_self_time_is_charged_through_caller_edges():
    rebuilder = ("/x/src/repro/core/rebuilder.py", 1, "fetch")
    layout = ("/x/src/repro/pfs/layout.py", 1, "split")
    sort = ("~", 0, "<built-in method builtins.sorted>")
    heap = ("/usr/lib/python3/heapq.py", 1, "merge")
    lt = ("~", 0, "<built-in method _operator.lt>")
    stats = {
        rebuilder: (1, 1, 1.0, 4.0, {}),
        layout: (1, 1, 1.0, 2.0, {}),
        sort: (2, 2, 3.0, 3.0, {rebuilder: (1, 1, 2.0, 2.0), layout: (1, 1, 1.0, 1.0)}),
        heap: (1, 1, 0.5, 1.0, {rebuilder: (1, 1, 0.5, 1.0)}),
        lt: (1, 1, 0.5, 0.5, {heap: (1, 1, 0.5, 0.5)}),
    }
    out = attribute(stats, "/x/src", "/x/perfbench")
    assert out == pytest.approx({"core.rebuilder": 4.0, "pfs.layout": 2.0})


def test_layer_self_times_sum_to_profile_total():
    profile = cProfile.Profile()
    profile.enable()
    _tiny_run(True)
    profile.disable()
    table = layer_table(profile, SRC, HERE)
    assert sum(table["layers"].values()) == pytest.approx(table["total_s"], rel=1e-9)
    assert sum(table["modules"].values()) == pytest.approx(table["total_s"], rel=1e-9)
    for layer in ("sim", "mpiio", "core", "kvstore", "intervals", "pfs", "network",
                  "devices", "workloads"):
        assert table["layers"].get(layer, 0.0) > 0.0, layer
    assert table["layers"].get("unattributed", 0.0) < 0.01 * table["total_s"]


def test_spec_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: row[:2] for name, row in PER_LAYER.items()}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert doc["paths"] == ["perfbench"]


def test_replica_seeds_are_disjoint_across_run_seeds():
    for w in WORKLOADS.values():
        seen = [set(w.replica_seeds(seed)) for seed in range(50)]
        assert sum(len(s) for s in seen) == len(set().union(*seen))


def _bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout, check=False,
    )


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ior_small_mixed", "--seed", "1",
                  "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_metrics_are_exactly_those_of_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench(ROOT, "--workload", "ior_1024_ranks", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name in declared:
        assert f"metric {name} = " in proc.stdout
