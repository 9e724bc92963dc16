"""Per-layer self time from a cProfile run, bucketed by ``repro`` module.

A function defined under ``src/repro`` is charged to its module path
(``pfs/layout.py`` -> ``pfs.layout``; the first component is the layer).
Functions of this benchmark are charged to ``bench``.  Everything else
(builtins such as ``sorted`` or ``heapq.heappush``, and stdlib Python)
is charged to whoever called it: the profile's caller edges give each
foreign function's self time per caller, and a foreign caller passes the
charge on to its own callers in proportion to their cumulative time.
Every second of profiled self time lands in exactly one bucket, so the
buckets sum to the profile total.
"""

from __future__ import annotations

import os
import pstats

#: Bucket for time no caller edge leads out of (profiler bootstrap,
#: recursion cycles inside foreign code).
UNATTRIBUTED = "unattributed"
BENCH = "bench"


class _Classifier:
    def __init__(self, src_root: str, bench_root: str):
        self.repro_root = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self.bench_root = os.path.realpath(bench_root) + os.sep
        self._memo: dict[str, str | None] = {}

    def bucket(self, filename: str) -> str | None:
        """Module bucket of a source file, or None for foreign code."""
        if filename in self._memo:
            return self._memo[filename]
        result: str | None = None
        # Builtins carry the filename "~"; frozen and generated code "<...>".
        path = "" if filename == "~" or filename.startswith("<") else os.path.realpath(filename)
        if path.startswith(self.repro_root):
            rel = path[len(self.repro_root):]
            parts = rel[:-3].split(os.sep) if rel.endswith(".py") else rel.split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            # Layer plus one level: ``obs.streaming.hub`` -> ``obs.streaming``.
            result = ".".join(parts[:2]) if parts else "repro"
        elif path.startswith(self.bench_root):
            result = BENCH
        self._memo[filename] = result
        return result


def attribute(stats: dict, src_root: str, bench_root: str) -> dict[str, float]:
    """Self seconds per module bucket for a ``pstats.Stats(...).stats`` dict."""
    classify = _Classifier(src_root, bench_root)
    own = {func: classify.bucket(func[0]) for func in stats}
    shares: dict[tuple, dict[str, float]] = {}
    visiting: set[tuple] = set()

    def mix(edges: dict, pick: int) -> dict[str, float]:
        # Weighted mixture of the callers' shares; ``pick`` selects the
        # edge's self (2) or cumulative (3) time as the weight.
        total: dict[str, float] = {}
        weight_sum = 0.0
        for caller, edge in edges.items():
            weight = edge[pick]
            if weight <= 0.0 or caller in visiting:
                continue
            weight_sum += weight
            for bucket, share in share_of(caller).items():
                total[bucket] = total.get(bucket, 0.0) + weight * share
        if weight_sum <= 0.0:
            return {}
        return {b: v / weight_sum for b, v in total.items()}

    def share_of(func: tuple) -> dict[str, float]:
        """How the cumulative time of ``func`` divides among buckets."""
        bucket = own.get(func)
        if bucket is not None:
            return {bucket: 1.0}
        cached = shares.get(func)
        if cached is not None:
            return cached
        if func not in stats:
            return {UNATTRIBUTED: 1.0}
        visiting.add(func)
        result = mix(stats[func][4], 3) or {UNATTRIBUTED: 1.0}
        visiting.discard(func)
        shares[func] = result
        return result

    out: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0.0:
            continue
        bucket = own[func]
        if bucket is not None:
            split = {bucket: 1.0}
        else:
            visiting.add(func)
            split = mix(callers, 2) or mix(callers, 3)
            visiting.discard(func)
            split = split or share_of(func)
        for name, share in split.items():
            out[name] = out.get(name, 0.0) + tt * share
    return out


def layer_table(profile, src_root: str, bench_root: str) -> dict:
    """The traced run's layer table: module buckets, layer totals, total."""
    stats = pstats.Stats(profile).stats
    modules = attribute(stats, src_root, bench_root)
    layers: dict[str, float] = {}
    for name, seconds in modules.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return {
        "total_s": sum(entry[2] for entry in stats.values()),
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "modules": dict(sorted(modules.items(), key=lambda kv: -kv[1])),
    }
