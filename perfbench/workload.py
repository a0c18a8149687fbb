"""Seeded inputs, workload table and the Dijkstra-oracle answer check.

Everything the benchmark sends to the server is drawn here from the
workload seed; the server only ever sees the generated frames.  The graph
and the index build are fixed (``grid_road_network(30, 30, seed=7)``, PMHL
with 4 partitions and partitioner seed 0), so the seed changes the traffic,
not the system under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.dijkstra import dijkstra_distance
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch, generate_update_stream

#: Relative tolerance of the oracle comparison: the seeded differential suite's
#: ``REL_TOL`` (methods may associate path sums differently than Dijkstra).
REL_TOL = 1e-9

Pair = Tuple[int, int]

#: Zipf exponent of the hot-set popularity.
ZIPF_S = 1.0
#: Edges per update batch (the paper's batch volume).
UPDATE_VOLUME = 10


@dataclass(frozen=True)
class GraphSpec:
    """The fixed system under test: graph, method and build parameters."""

    side: int = 30
    graph_seed: int = 7
    method: str = "PMHL"
    num_partitions: int = 4
    index_seed: int = 0

    def graph(self) -> Graph:
        return grid_road_network(self.side, self.side, seed=self.graph_seed)

    def describe(self) -> Dict[str, object]:
        return {
            "graph": f"grid_road_network({self.side}, {self.side}, "
            f"seed={self.graph_seed})",
            "method": self.method,
            "num_partitions": self.num_partitions,
            "index_seed": self.index_seed,
        }


FULL = GraphSpec()
#: Smoke mode: a tiny grid so a whole run takes seconds.
SMOKE = GraphSpec(side=8, num_partitions=2)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    name: str
    #: ``"closed"``: each connection sends its next frame when the last
    #: returns.  ``"open"``: Poisson arrivals at ``rate`` on one connection.
    loop: str
    #: ``"scalar"`` (one ``query`` frame per pair) or ``"batch"``
    #: (``query_batch`` frames of ``batch_size`` pairs).
    plane: str
    connections: int
    batch_size: int = 1
    #: Open loop only: queries per second and the Zipf hot set size.
    rate: float = 0.0
    hot_pairs: int = 0
    #: Seconds between the due times of two update batches (0: no updates).
    update_interval: float = 0.0


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` names all but
#: ``scalar-uniform``: its server CPU per query rose up to 40% with host CPU
#: steal (IQR/median 0.13-0.28 over ten seeds, against a 0.24 bound), so it
#: is kept for analysis by hand and is not gated.
WORKLOADS: Dict[str, Workload] = {
    "scalar-uniform": Workload(
        "scalar-uniform", loop="closed", plane="scalar", connections=2
    ),
    "batch-od": Workload(
        "batch-od", loop="closed", plane="batch", connections=2, batch_size=64
    ),
    "live-traffic": Workload(
        "live-traffic", loop="open", plane="scalar", connections=1,
        rate=300.0, hot_pairs=2000, update_interval=1.4,
    ),
}

#: Why each workload exists (the long form of ``BENCHMARK.json``'s ``why``).
RATIONALE: Dict[str, str] = {
    "scalar-uniform": (
        "Per-frame cost dominates: uniform pairs, fresh per request, so the "
        "4096-entry engine cache almost never hits.  Exercises the server and "
        "serving scalar path; barely touches the kernel, the batch plane or "
        "maintenance."
    ),
    "batch-od": (
        "Per-frame cost amortised 64x: origin-destination matrices of 64 "
        "uniform pairs.  The engine batch plane (per-pair metrics and "
        "QueryResults), the JSON codec for 64 pairs and query_many do the work."
    ),
    "live-traffic": (
        "The paper's setting: Poisson scalar queries at 300/s, Zipf-skewed over "
        "a hot set of 2000 pairs (the cache works), while a second connection "
        "sends an apply_batch frame of 10 edge updates every 1.4 s.  The only "
        "workload that exercises maintenance: core update stages, epoch locks, "
        "the BiDijkstra fallback and cache invalidation.  An install takes "
        "about 0.5 s in the server on a quiet host, so no backlog builds even "
        "at 2x that; with the update rate fixed, maintenance is most of the "
        "server CPU per query and that figure grows linearly with install "
        "cost.  A run of S seconds carries S / 1.4 + 1 batches (29 at 40 s)."
    ),
}


def _rng(seed: int, *tags: object) -> random.Random:
    # str seeds hash through sha512, so the stream is stable across processes.
    return random.Random(":".join(str(part) for part in (seed,) + tags))


def uniform_pairs(vertices: Sequence[int], seed: int, stream: object) -> Iterator[Pair]:
    """Endless uniform (source, target) pairs for one connection."""
    rng = _rng(seed, "uniform", stream)
    while True:
        yield rng.choice(vertices), rng.choice(vertices)


def zipf_pairs(vertices: Sequence[int], hot: int, seed: int) -> Iterator[Pair]:
    """Endless pairs drawn Zipf(``ZIPF_S``) over a seeded hot set of ``hot`` pairs."""
    rng = _rng(seed, "hot")
    hot_set = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(hot)]
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, hot + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    draw = _rng(seed, "zipf")
    while True:
        yield draw.choices(hot_set, cum_weights=cumulative)[0]


def poisson_schedule(rate: float, seconds: float, seed: int, tag: str) -> List[float]:
    """Arrival offsets (seconds from the window start) of a Poisson process."""
    rng = _rng(seed, "arrivals", tag)
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def update_stream(graph: Graph, batches: int, seed: int) -> List[UpdateBatch]:
    """The paper's x0.5 / x2 update protocol, drawn against the evolving graph."""
    return generate_update_stream(graph, batches, UPDATE_VOLUME, seed=seed)


def epoch_graphs(base: Graph, batches: Sequence[UpdateBatch]) -> List[Graph]:
    """Graph of every epoch: ``[base, base+b1, base+b1+b2, ...]``."""
    graphs = [base]
    for batch in batches:
        graph = graphs[-1].copy()
        batch.apply(graph)
        graphs.append(graph)
    return graphs


@dataclass(frozen=True)
class Answer:
    """One served distance as the server reported it."""

    source: int
    target: int
    distance: float
    epoch: int


def check_answers(answers: Sequence[Answer], graphs: Sequence[Graph]) -> List[str]:
    """Compare served answers with Dijkstra on their epoch's graph.

    Returns one description per wrong answer; an epoch the benchmark never
    produced counts as wrong.
    """
    wrong: List[str] = []
    for answer in answers:
        if not 0 <= answer.epoch < len(graphs):
            wrong.append(f"{answer}: unknown epoch")
            continue
        expected = dijkstra_distance(graphs[answer.epoch], answer.source, answer.target)
        if not _close(answer.distance, expected):
            wrong.append(f"{answer}: expected {expected!r}")
    return wrong


def _close(got: object, expected: float) -> bool:
    """``got`` is a number within ``REL_TOL`` of ``expected`` (inf == inf)."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=0.0)


def sample_every(items: Sequence, limit: int, seed: int, tag: str) -> List:
    """A seeded sample of at most ``limit`` items, in their original order."""
    if len(items) <= limit:
        return list(items)
    picks = sorted(_rng(seed, "sample", tag).sample(range(len(items)), limit))
    return [items[i] for i in picks]


def quantile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank quantile; ``None`` for an empty sample."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]
