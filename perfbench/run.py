"""The repository's end-to-end benchmark, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload ior_small_mixed --seed 1 --seconds 30 --trace 0

Each sample is a fresh ``child.py`` process that builds a stock and an
S4D cluster through the public API (``ior_campaign``/``testbed``,
``build_cluster``, ``run_workload(..., cluster=...)`` with the shipped
defaults) and runs the stock campaign, then the S4D campaign.  Samples
run one at a time.  A run first measures every derived seed of
``--seed`` once, then keeps sampling until ``--seconds`` would be
exceeded.  Simulated bandwidths aggregate the derived seeds (total
bytes over total simulated time); ``host_s`` is the mean over seeds of
each seed's median campaign time, scaled to reference machine speed
(``speed.py``); ``setup_s`` and ``peak_rss_mib`` are medians.

``--trace 1`` instead runs the first derived seed twice, untraced and
then under cProfile, and reports the per-layer metrics; the layer
table is also written to ``.perfbench_out/layers-<workload>.json``.

Correctness: every sample replays its reads against the byte-stamp
oracle, and its digest of all simulated statistics must match every
other sample of the same seed, in this run and in earlier runs of the
same source tree (``.perfbench_out/digests.json``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spec import END_TO_END, HOLDOUT_SEED, PER_LAYER, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
#: Every run must end within this many seconds, samples included.
HARD_LIMIT_S = 170.0
MiB = 1024 * 1024


def _tree_digest(root: str) -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def _git_rev(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class SampleError(RuntimeError):
    pass


def _sample(root: str, workload: str, seed: int, profile: bool,
            timeout: float) -> dict:
    """Run one child process to completion and return its JSON record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed), "--t0", repr(t0)]
    if profile:
        cmd.append("--profile")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample seed={seed} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SampleError(f"sample seed={seed} exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.monotonic() - t0
    return record


def _check_digests(root: str, workload: str, samples: list[dict]) -> int:
    """Ops of samples whose digest disagrees with another of the same seed."""
    path = os.path.join(root, OUT_DIR, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    tree = _tree_digest(root)
    failed = 0
    for sample in samples:
        key = f"{workload}:{sample['seed']}:{tree}"
        reference = known.setdefault(key, sample["digest"])
        if sample["digest"] != reference:
            print(f"DIGEST MISMATCH seed={sample['seed']}: {sample['digest']} "
                  f"!= {reference}; its {sample['ops']} ops count as failed")
            failed += sample["ops"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return failed


def _bandwidth(samples: list[dict], system: str, op: str) -> float:
    """MiB/s of the write or last read phase: total bytes / total time."""
    moved = duration = 0.0
    for sample in samples:
        stats = sample["stats"][system]
        phase = stats["phases"]["write" if op == "write" else stats["last_read"]]
        moved += phase["bytes"]
        duration += phase["duration"]
    return moved / duration / MiB


def _bucket_s(table: dict, bucket: str) -> float:
    """Self seconds of a layer (``core``) or a module bucket (``core.tables``)."""
    return table["modules" if "." in bucket else "layers"].get(bucket, 0.0)


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    per_seed: dict[int, list[dict]] = {}
    for sample in samples:
        per_seed.setdefault(sample["seed"], []).append(sample)
    bandwidth = {
        (system, op): _bandwidth([group[0] for group in per_seed.values()], system, op)
        for system in ("stock", "s4d")
        for op in ("write", "read")
    }
    return {
        # Mean over seeds, since their work differs; median within a seed.
        "host_s": statistics.fmean(statistics.median(s["host_s"] for s in group)
                                   for group in per_seed.values()),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
        "s4d_write_mb_s": bandwidth["s4d", "write"],
        "s4d_read_mb_s": bandwidth["s4d", "read"],
        "write_speedup": bandwidth["s4d", "write"] / bandwidth["stock", "write"],
        "read_speedup": bandwidth["s4d", "read"] / bandwidth["stock", "read"],
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """The per-layer metrics from one untraced and one traced sample."""
    both = plain["stats"].values()
    s4d = plain["stats"]["s4d"]
    cache = s4d["cache"]
    table = traced["layers"]
    servers = s4d["servers"].values()

    def busy(kind):
        return sum(s["device"]["busy_time"] for s in servers
                   if s["device"]["kind"] == kind)

    fragments = sum(s["subrequests_issued"] + s["subrequests_coalesced"] for s in both)
    routed = cache["requests_to_dservers"] + cache["requests_to_cservers"]
    events = sum(s["events"] for s in both)
    out = {
        "sim.events": events,
        "sim.events_per_host_s": events / plain["host_s"],
        "mpiio.requests": plain["ops"],
        "core.cserver_request_share": cache["requests_to_cservers"] / routed if routed else 0.0,
        "core.read_hit_ratio": cache["read_hit_ratio"],
        "core.admission_ratio": cache["admission_ratio"],
        "core.flushed_bytes": cache["flushed_bytes"],
        "core.fetched_bytes": cache["fetched_bytes"],
        "pfs.subrequests": sum(s["subrequests_issued"] for s in both),
        "pfs.coalesced_ratio": (sum(s["subrequests_coalesced"] for s in both) / fragments
                                if fragments else 0.0),
        "pfs.server.utilisation_max": max(s["utilisation"] for s in servers),
        "pfs.oscache.writes_throttled": sum(
            s["oscache"]["writes_throttled"] for s in servers if s["oscache"]),
        "network.transfers": sum(s["network"]["transfers"] for s in both),
        "network.bytes": sum(s["network"]["bytes"] for s in both),
        "devices.requests": sum(srv["device"]["requests"]
                                for s in both for srv in s["servers"].values()),
        "devices.hdd.busy_s": busy("hdd"),
        "devices.ssd.busy_s": busy("ssd"),
        "host.wall_s": plain["host_wall_s"],
        "host.probe_ms": 1e3 * statistics.median(plain["probes"]),
        "trace.host_s": traced["host_wall_s"],
        "trace.overhead_x": traced["host_wall_s"] / plain["host_wall_s"],
    }
    for op in ("read", "write"):
        for q in ("p50", "p99"):
            out[f"mpiio.{op}.sim_latency_{q}_ms"] = s4d["latency_ms"][op][q]
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = _bucket_s(table, name[: -len(".self_s")])
    return out


def _emphasis_report(root: str, name: str, table: dict) -> list[str]:
    """Does each workload's emphasised layer take its largest share here?"""
    tables = {name: table}
    for other in WORKLOADS:
        path = os.path.join(root, OUT_DIR, f"layers-{other}.json")
        if other != name and os.path.exists(path):
            with open(path) as fh:
                tables[other] = json.load(fh)["layers_table"]

    def share(tab, buckets):
        return sum(_bucket_s(tab, b) for b in buckets) / tab["total_s"]

    lines = []
    for wname, tab in tables.items():
        buckets = WORKLOADS[wname].emphasis
        mine = share(tab, buckets)
        others = {o: share(t, buckets) for o, t in tables.items() if o != wname}
        label = "+".join(buckets)
        if not others:
            lines.append(f"emphasis {wname}: {label} {mine:.1%} of profiled time; "
                         "no other workload traced in this checkout to compare")
            continue
        held = all(mine > v for v in others.values())
        rest = ", ".join(f"{o} {v:.1%}" for o, v in others.items())
        lines.append(f"emphasis {wname}: {label} {mine:.1%} vs {rest}: "
                     + ("holds" if held else "DOES NOT HOLD"))
    return lines


def _describe(w) -> str:
    mode = "+".join(w.phases)
    return (f"{w.ranks} ranks x {w.request // 1024} KiB, {w.instances} IOR instance(s) "
            f"({w.sequential} sequential, {w.instances - w.sequential} random), "
            f"{w.requests_per_rank} requests/rank, phases={mode}, "
            f"read passes={w.read_runs}, {w.nodes} nodes, closed loop")


def _print_reference(w, metrics: dict) -> None:
    if w.paper is None:
        print(f"reference: {w.name} has no paper figure; its simulated numbers "
              "are unvalidated")
        return
    for op, key in (("write", "write_speedup"), ("read", "read_speedup")):
        gain = (metrics[key] - 1.0) * 100.0
        paper = w.paper[f"{op}_gain_pct"]
        print(f"reference {op}_gain_pct: measured {gain:+.1f}% vs paper "
              f"{paper:.1f}% (Fig. 6), difference {gain - paper:+.1f} points")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}; run from the repository "
              "root", file=sys.stderr)
        return 2
    begin = time.monotonic()
    # Byte-compile once so no sample's set-up pays for it.
    compileall.compile_dir(src, quiet=1)

    w = WORKLOADS[args.workload]
    seeds = w.replica_seeds(args.seed)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {w.why}")
    print(f"provenance: git_rev={_git_rev(root)} tree_sha256={_tree_digest(root)[:16]} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} seeds={seeds} "
          f"holdout_seed={HOLDOUT_SEED}")
    print(f"workload: {_describe(w)}")

    samples: list[dict] = []

    def take(seed: int, profile: bool = False) -> dict:
        left = HARD_LIMIT_S - (time.monotonic() - begin)
        sample = _sample(root, w.name, seed, profile, timeout=max(left, 1.0))
        samples.append(sample)
        stock, s4d = sample["stats"]["stock"], sample["stats"]["s4d"]
        print(f"sample seed={seed} {'traced ' if profile else ''}"
              f"setup_s={sample['setup_s']:.3f} "
              f"host_s={sample['host_s']:.3f} (wall {sample['host_wall_s']:.3f}) "
              f"probe_ms={1e3 * statistics.median(sample['probes']):.2f} "
              f"peak_rss_mib={sample['peak_rss_mib']:.1f} "
              f"events={stock['events']}+{s4d['events']} "
              f"loop={stock['scheduler']}/{s4d['scheduler']} ops={sample['ops']} "
              f"failed_ops={sample['failed_ops']} digest={sample['digest'][:16]}")
        return sample

    try:
        if args.trace:
            plain = take(seeds[0])
            traced = take(seeds[0], profile=True)
        else:
            for seed in seeds:
                take(seed)
            i = len(seeds)
            typical = statistics.median(s["wall_s"] for s in samples)
            while time.monotonic() - begin + typical <= min(args.seconds, HARD_LIMIT_S):
                take(seeds[i % len(seeds)])
                i += 1
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = samples[0]
    print(f"sizes: {first['ops'] // 2} requests and {first['data_bytes'] / MiB:.1f} MiB "
          f"per system per seed, cache {first['cache_capacity'] / MiB:.1f} MiB")
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed_ops"] for s in samples)
    failed += _check_digests(root, w.name, samples)

    if args.trace:
        metrics = per_layer(plain, traced)
        units = {name: PER_LAYER[name][0] for name in metrics}
        table = traced["layers"]
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        path = os.path.join(root, OUT_DIR, f"layers-{w.name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": w.name, "seed": seeds[0], "layers_table": table,
                       "metrics": metrics}, fh, indent=1)
        total = table["total_s"]
        print(f"layer table ({path}): profiled self time {total:.3f} s, "
              f"sum of layers {sum(table['layers'].values()):.3f} s")
        for layer, seconds in table["layers"].items():
            subs = ", ".join(f"{m} {s / total:.1%}" for m, s in table["modules"].items()
                             if m.startswith(layer + ".") and s / total >= 0.005)
            print(f"  {layer:<13} {seconds:8.3f} s {seconds / total:6.1%}"
                  + (f"  ({subs})" if subs else ""))
        for line in _emphasis_report(root, w.name, table):
            print(line)
    else:
        metrics = end_to_end(samples)
        units = {name: END_TO_END[name][0] for name in metrics}
        for key in ("host_s", "host_wall_s"):
            values = sorted(s[key] for s in samples)
            print(f"{key} over {len(values)} samples: median "
                  f"{statistics.median(values):.3f}, min {values[0]:.3f}, "
                  f"max {values[-1]:.3f} (too few samples for a tail percentile)")
        _print_reference(w, metrics)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"ops={attempted} failed_ops={failed} failure_share={failed / attempted:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
