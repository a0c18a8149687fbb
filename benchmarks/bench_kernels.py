"""Frozen-kernel benchmark: scalar + batch query latencies for all nine indexes.

Measures, on the quick configuration (a seeded grid analog), the per-query
latency of every registered method with the frozen kernels on versus the
pure-Python reference path (``use_kernels=False``), for

* the scalar ``query`` loop, and
* the batch plane (``query_many`` over a pair batch),

and writes the rows plus the derived speedups to ``BENCH_kernels.json`` —
the machine-readable perf trajectory seeded by this benchmark and uploaded
as a CI artifact.  Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--out BENCH_kernels.json]

Equivalence (kernel results == reference results, bit-for-bit) is asserted
on every method while measuring, so a speedup can never come from answering
a different question.

The ``maintenance`` section times index *maintenance* — ``apply_batch`` and
each PMHL update stage — with the native ``label_row``/``shortcut_row``
kernels against the pure-Python reference, on a freshly built and on a
snapshot-loaded index, plus ``build_s``.  The reference side runs in a
child process with ``REPRO_DISABLE_NATIVE_KERNELS=1``; both sides hash every
label row and shortcut value they end with, and the hashes must match.  The
gate is a ratio: every native label stage at least ``LABEL_STAGE_BAR`` times
faster than the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.kernels.native import native_kernel, native_kernel_error
from repro.registry import create_index, get_spec
from repro.store import load_index, save_index
from repro.throughput.workload import sample_query_pairs

#: All nine methods on quick-config construction parameters.
SPECS = {
    "BiDijkstra": get_spec("BiDijkstra"),
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "TOAIN": get_spec("TOAIN", checkin_fraction=0.25),
    "N-CH-P": get_spec("N-CH-P", num_partitions=4, seed=0),
    "P-TD-P": get_spec("P-TD-P", num_partitions=4, seed=0),
    "PMHL": get_spec("PMHL", num_partitions=4, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=12, expected_partitions=4),
}

#: Methods whose labels freeze into the CSR LabelStore (the H2H family) —
#: the batch acceptance bar (≥12x vs pure Python) applies to these.
H2H_FAMILY = ("DH2H", "MHL", "PMHL", "PostMHL")
#: Methods whose query plane is a bidirectional search over frozen CSR
#: arrays (GraphSnapshot / ShortcutStore) — the CH-search acceptance bar
#: (≥2x scalar and batch) applies to these.
CH_SEARCH_FAMILY = ("BiDijkstra", "DCH", "TOAIN", "N-CH-P", "P-TD-P")

GRID = 52
SCALAR_QUERIES = 400
BATCH_QUERIES = 4000
#: The per-pair search baselines (index-free / CH searches) are orders of
#: magnitude slower per query; smaller counts keep the run short.
SLOW_METHODS = {"BiDijkstra": (60, 240), "DCH": (150, 600), "TOAIN": (150, 600),
                "N-CH-P": (60, 240), "P-TD-P": (150, 600)}


#: Maintenance workload: the served benchmark's index (PMHL, 4 partitions,
#: seed 0, on ``grid_road_network(30, 30, seed=7)``) and its 10-edge batches.
MAINT_GRID = 30
MAINT_BATCHES = 16
MAINT_VOLUME = 10
#: Stages whose work is the top-down label recompute (``label_row``).
LABEL_STAGES = ("partition_label_update", "overlay_label_update", "cross_boundary_update")
LABEL_STAGE_BAR = 3.0


def _maintenance_side() -> Dict[str, object]:
    """PMHL build + batch timings on this process's kernel setting.

    Per variant (``fresh``: as built; ``loaded``: through save/load_index),
    the median over batches 2..N of ``apply_batch`` and of every stage, in
    ms, and a hash of every label row and shortcut value at the end.
    """
    from repro.labeling.h2h import H2HLabels

    side: Dict[str, object] = {"native": native_kernel() is not None}
    snapshots = tempfile.TemporaryDirectory()  # loaded dicts read it lazily
    for variant in ("fresh", "loaded"):
        index = create_index(
            get_spec("PMHL", num_partitions=4, seed=0),
            grid_road_network(MAINT_GRID, MAINT_GRID, seed=7),
        )
        build_seconds = index.build()
        if variant == "loaded":
            save_index(index, snapshots.name)
            index = load_index(snapshots.name)
        totals: List[float] = []
        stages: Dict[str, List[float]] = {}
        for seed in range(MAINT_BATCHES):
            batch = generate_update_batch(index.graph, MAINT_VOLUME, seed=100 + seed)
            start = time.perf_counter()
            report = index.apply_batch(batch)
            if seed == 0:
                continue  # the first batch also pays one-off loads and freezes
            totals.append(time.perf_counter() - start)
            for stage in report.stages:
                stages.setdefault(stage.name, []).append(stage.seconds)
        digest = hashlib.sha256()
        labels = [index.cross_labels, index.overlay.labels]
        labels += index.family.labels + index.extended_family.labels
        for lab in labels:
            assert isinstance(lab, H2HLabels)
            for v in sorted(lab.dis):
                digest.update(repr((v, [x.hex() for x in lab.dis[v]], lab.pos[v])).encode())
        contractions = [index.overlay.contraction]
        contractions += index.family.contractions + index.extended_family.contractions
        for contraction in contractions:
            for v in contraction.order:
                row = contraction.shortcuts[v]
                digest.update(repr((v, [(u, row[u].hex()) for u in contraction.neighbors[v]])).encode())
        side[variant] = {
            "build_s": build_seconds,
            "apply_batch_ms": 1e3 * statistics.median(totals),
            "stage_ms": {name: 1e3 * statistics.median(times) for name, times in stages.items()},
            "digest": digest.hexdigest(),
        }
    snapshots.cleanup()
    return side


def run_maintenance() -> Dict[str, object]:
    """Native vs reference maintenance rows, hashes checked, ratio-gated."""
    native_side = _maintenance_side()
    env = dict(os.environ, REPRO_DISABLE_NATIVE_KERNELS="1")
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--maintenance-side"],
        env=env, capture_output=True, text=True, check=True,
    )
    pure_side = json.loads(child.stdout.strip().splitlines()[-1])
    assert not pure_side["native"]
    section: Dict[str, object] = {
        "workload": {"method": "PMHL", "num_partitions": 4, "grid": MAINT_GRID,
                     "graph_seed": 7, "batches": MAINT_BATCHES,
                     "volume": MAINT_VOLUME, "statistic": "median of batches 2..N"},
        "native_available": native_side["native"],
        "label_stage_bar": LABEL_STAGE_BAR,
    }
    for variant in ("fresh", "loaded"):
        fast, pure = native_side[variant], pure_side[variant]
        assert fast["digest"] == pure["digest"], f"{variant}: native and reference indexes differ"
        rows = {"build_s": (fast["build_s"], pure["build_s"]),
                "apply_batch_ms": (fast["apply_batch_ms"], pure["apply_batch_ms"])}
        for name in fast["stage_ms"]:
            rows[f"stage.{name}_ms"] = (fast["stage_ms"][name], pure["stage_ms"][name])
        section[variant] = {
            name: {"native": a, "pure": b, "speedup": b / a if a > 0 else math.inf}
            for name, (a, b) in rows.items()
        }
        print(f"maintenance ({variant}):")
        for name, row in section[variant].items():
            print(f"  {name:>38}: {row['pure']:9.3f} -> {row['native']:9.3f}  "
                  f"({row['speedup']:5.1f}x)")
        if native_side["native"]:
            for stage in LABEL_STAGES:
                speedup = section[variant][f"stage.{stage}_ms"]["speedup"]
                assert speedup >= LABEL_STAGE_BAR, (
                    f"{variant} {stage}: native only {speedup:.1f}x the reference "
                    f"(bar {LABEL_STAGE_BAR}x)"
                )
    return section


def _measure(index, pairs: List[Tuple[int, int]], scalar_n: int) -> Dict[str, object]:
    scalar_pairs = pairs[:scalar_n]
    # Warm-up freezes the stores outside the timed region (a freeze is paid
    # once per update epoch, not per query).  The one-to-many warm-up group is
    # large enough to trigger every batch-only store (e.g. TOAIN's hub table).
    index.query(*pairs[0])
    index.query_many(pairs[:4])
    index.query_one_to_many(pairs[0][0], [t for _, t in pairs[:16]])

    start = time.perf_counter()
    scalar = [index.query(s, t) for s, t in scalar_pairs]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = index.query_many(pairs)
    batch_seconds = time.perf_counter() - start
    return {
        "scalar_seconds": scalar_seconds,
        "scalar_us_per_query": 1e6 * scalar_seconds / len(scalar_pairs),
        "batch_seconds": batch_seconds,
        "batch_us_per_query": 1e6 * batch_seconds / len(pairs),
        "_scalar_results": scalar,
        "_batch_results": batch,
    }


def run(out_path: str) -> Dict[str, object]:
    base = grid_road_network(GRID, GRID, seed=5)
    report: Dict[str, object] = {
        "benchmark": "frozen query kernels",
        "graph": {"kind": "grid", "side": GRID, "vertices": base.num_vertices,
                  "edges": base.num_edges},
        "native_kernel": native_kernel() is not None,
        "native_kernel_error": native_kernel_error(),
        "python": platform.python_version(),
        "methods": {},
    }
    for name, spec in SPECS.items():
        scalar_n, batch_n = SLOW_METHODS.get(name, (SCALAR_QUERIES, BATCH_QUERIES))
        pairs = list(sample_query_pairs(base, batch_n, seed=3))

        fast = create_index(spec, base.copy())
        build_seconds = fast.build()
        kernels = _measure(fast, pairs, scalar_n)

        reference = create_index(spec, base.copy(), use_kernels=False)
        reference.build()
        pure = _measure(reference, pairs, scalar_n)

        # Both sides of each comparison use the same query plane (the kernel
        # stores are literal ports), so equality is exact for every method —
        # including BiDijkstra, whose documented ulp exception only concerns
        # batch-vs-scalar *within* one configuration.
        assert kernels["_scalar_results"] == pure["_scalar_results"], name
        assert kernels["_batch_results"] == pure["_batch_results"], name
        for row in (kernels, pure):
            del row["_scalar_results"], row["_batch_results"]

        entry = {
            "build_seconds": build_seconds,
            "kernels": kernels,
            "reference": pure,
            "scalar_speedup": pure["scalar_seconds"] / kernels["scalar_seconds"],
            "batch_speedup": pure["batch_seconds"] / kernels["batch_seconds"],
            "h2h_family": name in H2H_FAMILY,
            "family": "h2h" if name in H2H_FAMILY else "ch_search",
        }
        report["methods"][name] = entry
        print(
            f"{name:>10}: scalar {entry['scalar_speedup']:5.1f}x "
            f"({pure['scalar_us_per_query']:8.1f} -> {kernels['scalar_us_per_query']:7.1f} us)   "
            f"batch {entry['batch_speedup']:5.1f}x "
            f"({pure['batch_us_per_query']:8.1f} -> {kernels['batch_us_per_query']:7.1f} us)"
        )

    report["families"] = _family_rows(report["methods"])
    report["maintenance"] = run_maintenance()
    for family, row in report["families"].items():
        print(
            f"{family:>10}: scalar min {row['scalar_speedup_min']:.1f}x "
            f"geomean {row['scalar_speedup_geomean']:.1f}x   "
            f"batch min {row['batch_speedup_min']:.1f}x "
            f"geomean {row['batch_speedup_geomean']:.1f}x"
        )

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")
    return report


def _family_rows(methods: Dict[str, Dict]) -> Dict[str, Dict[str, object]]:
    """Per-family speedup summaries (the acceptance bars are per family)."""
    rows: Dict[str, Dict[str, object]] = {}
    for family, members in (("h2h", H2H_FAMILY), ("ch_search", CH_SEARCH_FAMILY)):
        scalar = [methods[m]["scalar_speedup"] for m in members]
        batch = [methods[m]["batch_speedup"] for m in members]
        rows[family] = {
            "methods": list(members),
            "scalar_speedup_min": min(scalar),
            "scalar_speedup_geomean": math.exp(sum(map(math.log, scalar)) / len(scalar)),
            "batch_speedup_min": min(batch),
            "batch_speedup_geomean": math.exp(sum(map(math.log, batch)) / len(batch)),
        }
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path (default: BENCH_kernels.json)")
    parser.add_argument("--maintenance-side", action="store_true",
                        help="print one process's maintenance timings as JSON "
                             "(the reference half of the maintenance rows)")
    args = parser.parse_args()
    if args.maintenance_side:
        print(json.dumps(_maintenance_side()))
        return
    run(args.out)


if __name__ == "__main__":
    main()
