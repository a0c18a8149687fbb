#!/usr/bin/env python3
"""Served shortest-distance query benchmark, end to end and layer by layer.

Run from the root of a checkout (Python >= 3.11)::

    python3 perfbench/run.py --workload scalar-uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload live-traffic --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload batch-od --seed 1 --seconds 2 --smoke

Each run builds PMHL (4 partitions, seed 0) on ``grid_road_network(30, 30,
seed=7)``, saves it with ``repro.store.save_index`` and launches ``python -m
repro.experiments serve --snapshot DIR --announce FILE`` as a subprocess,
several times; ``setup_s`` is the median time from the build to the first
correct answer.  The last server is then driven through ``AsyncClient``
connections for ``--seconds`` after a one-second warm-up.  A seeded sample
of answers is checked against Dijkstra on the graph of the epoch each reply
reports; any wrong answer fails the run.

``--trace 0`` ends with the gated end-to-end metrics; ``--trace 1`` runs
the same seeded traffic with a sample of requests traced, replays the
sampled payloads through each layer in-process, and ends with the per-layer
metrics.  Every metric is printed with its unit and sample count; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full report (header, every metric, the layer map) and
the Chrome trace land in ``.bench_build/perfbench/results/``.  ``--smoke``
uses an 8x8 grid so a run takes seconds.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid (8x8, 2 partitions) for a seconds-long check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Keep every file the run writes (compiled kernel, staging directories)
    # inside the checkout; the server subprocess inherits both.
    os.environ["XDG_CACHE_HOME"] = os.path.join(OUT, "cache")
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, SRC)

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the server tree is still killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return bench.execute(args, ROOT, OUT)


if __name__ == "__main__":
    sys.exit(main())
