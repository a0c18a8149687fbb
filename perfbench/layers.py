"""Metric catalogue, span recorder, and the traced per-layer replay.

The traced run records spans from the benchmark's own calls into each
module's public functions: the client round trip to the ``serve``
subprocess (layer ``server``), then the same payloads through
``encode_frame``/``decode_body`` (``protocol``), an in-process
``ServingEngine`` (``serving``) and 1-worker ``ClusterEngine``
(``cluster``), ``index.query``/``query_many``/``apply_batch`` (``core``),
the frozen ``LabelStore`` batch kernel (``kernels``) and
``save_index``/``load_index`` (``store``).  A layer's self time on a request
is its span minus its child layer's span on the same request.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: End-to-end metrics gated by ``BENCHMARK.json`` (every workload, untraced).
#: They are CPU time, memory and set-up time: on a shared two-vCPU host the
#: tail latency of whole runs spreads far wider than CPU per query (op_p99_ms
#: IQR/median up to 1.0 over ten seeds, against at most 0.19).
END_TO_END: Dict[str, str] = {
    "cpu_us_per_query": "us",
    "server_rss_mb": "MB",
    "setup_s": "s",
}

#: End-to-end figures printed and recorded in every report but not gated:
#: qps and the latency percentiles spread with host load (see above);
#: failed_frac is 0 on a healthy run; slo_miss_frac and update_p50_ms exist
#: only on ``live-traffic``.
REPORTED: Dict[str, str] = {
    "qps": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "failed_frac": "ratio",
    "slo_miss_frac": "ratio",
    "update_p50_ms": "ms",
}
UNITS: Dict[str, str] = {**END_TO_END, **REPORTED}

UPDATE_STAGES = (
    "edge_update",
    "partition_shortcut_update",
    "overlay_shortcut_update",
    "partition_label_update",
    "overlay_label_update",
    "post_boundary_update",
    "cross_boundary_update",
)

SERVING_STAGES = (
    "cache", "BIDIJKSTRA", "PCH", "NO_BOUNDARY", "POST_BOUNDARY", "CROSS_BOUNDARY",
)

#: Per-layer metric -> (unit, the end-to-end metrics and workloads it moves).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "server.rtt_us": ("us", "op_p50_ms, qps on scalar-uniform"),
    "server.self_us": ("us", "op_p50_ms, qps, cpu_us_per_query on scalar-uniform"),
    "server.cpu_share": ("ratio", "qps, cpu_us_per_query on scalar-uniform"),
    "server.retries": ("count", "failed_frac, op_p99_ms everywhere"),
    "server.errors": ("count", "failed_frac everywhere"),
    "protocol.scalar.encode_req_us": ("us", "cpu_us_per_query on scalar-uniform"),
    "protocol.scalar.decode_req_us": ("us", "cpu_us_per_query on scalar-uniform"),
    "protocol.scalar.encode_resp_us": ("us", "cpu_us_per_query on scalar-uniform"),
    "protocol.scalar.decode_resp_us": ("us", "cpu_us_per_query on scalar-uniform"),
    "protocol.batch.encode_req_us": ("us", "cpu_us_per_query on batch-od"),
    "protocol.batch.decode_req_us": ("us", "cpu_us_per_query on batch-od"),
    "protocol.batch.encode_resp_us": ("us", "cpu_us_per_query on batch-od"),
    "protocol.batch.decode_resp_us": ("us", "cpu_us_per_query on batch-od"),
    "protocol.bytes_per_query": ("B", "cpu_us_per_query on batch-od, scalar-uniform"),
    "serving.serve_us": ("us", "qps on scalar-uniform"),
    "serving.serve_batch_us": ("us", "qps on batch-od"),
    "serving.self_us": ("us", "qps on scalar-uniform"),
    "serving.batch_self_us": ("us", "qps on batch-od"),
    "serving.cache_hit_ratio": ("ratio", "slo_miss_frac on live-traffic; ~0 on scalar-uniform"),
    "serving.cache_invalidated": ("count", "slo_miss_frac on live-traffic"),
    "serving.shed": ("count", "slo_miss_frac, failed_frac on live-traffic"),
    **{
        f"serving.stage_share.{stage}": ("ratio", "slo_miss_frac, op_p99_ms on live-traffic")
        for stage in SERVING_STAGES
    },
    "cluster.serve_batch_us": ("us", "qps of serve --workers 1; no change on batch-od"),
    "cluster.self_us": ("us", "qps of serve --workers 1; no change on batch-od"),
    "core.query_us": ("us", "<=2% of op_p50_ms on scalar-uniform"),
    "core.query_many_us": ("us", "<=2% of qps on batch-od"),
    "core.apply_batch_ms": ("ms", "update_p50_ms, slo_miss_frac on live-traffic"),
    **{
        f"core.stage.{stage}_ms": ("ms", "update_p50_ms, slo_miss_frac on live-traffic")
        for stage in UPDATE_STAGES
    },
    "core.build_s": ("s", "setup_s everywhere"),
    "kernels.native": ("bool", "core.query_us, core.query_many_us"),
    "kernels.query_pairs_us": ("us", "<=2% of qps on batch-od"),
    "store.save_s": ("s", "setup_s everywhere"),
    "store.load_s": ("s", "setup_s, server_rss_mb everywhere"),
    "loadgen.cpu_share": ("ratio", "must stay well below 1 so the client never caps qps"),
    "loadgen.lag_p99_ms": ("ms", "op_p99_ms, slo_miss_frac on live-traffic"),
}


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """In-memory spans, written out as Chrome-trace JSON at exit."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []

    def span(
        self, layer: str, start: float, end: float, request: int,
        parent: Optional[str] = None,
    ) -> None:
        self.spans.append((layer, start, end, request, parent))

    def timed(self, layer: str, request: int, parent: Optional[str], fn, *args):
        """Call ``fn(*args)`` inside a span; return its result."""
        start = time.perf_counter()
        result = fn(*args)
        self.span(layer, start, time.perf_counter(), request, parent)
        return result

    def durations(self, layer: str) -> Dict[int, float]:
        """Request id -> span seconds for ``layer`` (last span wins)."""
        return {req: end - start for name, start, end, req, _ in self.spans if name == layer}

    def write_chrome(self, path: str) -> None:
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": request,
                "args": {"request": request, "parent": parent},
            }
            for layer, start, end, request, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_times(tracer: Tracer, layer: str, child: str, sizes: Dict[int, int]) -> List[float]:
    """Per query: ``layer``'s span minus ``child``'s span on the same request."""
    inner = tracer.durations(child)
    return [(seconds - inner[req]) / sizes[req]
            for req, seconds in tracer.durations(layer).items() if req in inner]


def per_query(tracer: Tracer, layer: str, sizes: Dict[int, int]) -> List[float]:
    """Per query: ``layer``'s span on each request over the request's pairs."""
    return [seconds / sizes[req] for req, seconds in tracer.durations(layer).items()]


def replay_layers(
    tracer: Tracer,
    snapshot: str,
    scalar: Sequence[Tuple[int, Tuple[int, int]]],
    batches: Sequence[Tuple[int, List[Tuple[int, int]]]],
    updates: Sequence,
) -> Tuple[Dict[str, Tuple[float, int]], Dict[int, int]]:
    """Replay sampled payloads through every layer below the socket.

    ``scalar`` and ``batches`` are ``(request id, pairs)`` samples; the ids
    of live-traced requests are reused so their spans line up with the
    ``server`` span.  Returns the per-layer metrics this replay produces, as
    ``name -> (value, samples)``, and the wire bytes (request plus response
    frame) of every replayed request.
    """
    from repro.cluster import ClusterEngine
    from repro.kernels.label_store import LabelStore
    from repro.kernels.native import native_kernel_error
    from repro.serving.engine import ServingEngine
    from repro.server.protocol import OP_QUERY, OP_QUERY_BATCH
    from repro.store import load_index

    sizes = {req: len(pairs) for req, pairs in batches}
    sizes.update({req: 1 for req, _ in scalar})
    frame_bytes: Dict[int, int] = {}
    out: Dict[str, Tuple[float, int]] = {}

    def put(name: str, values: Sequence[float], scale: float = 1e6) -> None:
        out[name] = (median_or_zero(values) * scale, len(values))

    load_times = []
    for _ in range(3):
        started = time.perf_counter()
        load_index(snapshot)
        load_times.append(time.perf_counter() - started)
    put("store.load_s", load_times, 1.0)

    # serve's single-process backend: ServingEngine.from_snapshot(path) with
    # the constructor defaults.
    with ServingEngine.from_snapshot(snapshot) as engine:
        index = engine.index
        store = LabelStore.freeze(index.cross_labels)
        if store is None:
            raise RuntimeError("LabelStore.freeze(cross_labels) returned None")
        for req, (source, target) in scalar:
            payload = {"source": source, "target": target}
            result = tracer.timed("serving.serve", req, "server", engine.serve, source, target)
            tracer.timed("core.query", req, "serving.serve", index.query, source, target)
            reply = {
                "distance": result.distance, "epoch": result.epoch,
                "stage": result.stage, "from_cache": result.from_cache,
            }
            frame_bytes[req] = _codec(tracer, "scalar", req, OP_QUERY, payload, reply)
        for req, pairs in batches:
            payload = {"pairs": [[s, t] for s, t in pairs]}
            results = tracer.timed(
                "serving.serve_batch", req, "server", engine.serve_batch, pairs
            )
            tracer.timed("core.query_many", req, "serving.serve_batch", index.query_many, pairs)
            tracer.timed("kernels.query_pairs", req, "core.query_many", store.query_pairs, pairs)
            reply = {"distances": [r.distance for r in results], "epoch": results[0].epoch}
            frame_bytes[req] = _codec(tracer, "batch", req, OP_QUERY_BATCH, payload, reply)

    # serve --workers 1: ClusterEngine(snapshot, num_workers=1), defaults.
    # Forked only after the engine above has stopped its threads.
    with ClusterEngine(snapshot, num_workers=1) as cluster:
        for req, pairs in batches:
            tracer.timed("cluster.serve_batch", req, "server", cluster.serve_batch, pairs)

    stage_ms: Dict[str, List[float]] = {stage: [] for stage in UPDATE_STAGES}
    apply_s = []
    index = load_index(snapshot)
    for batch in updates:
        started = time.perf_counter()
        report = index.apply_batch(batch)
        apply_s.append(time.perf_counter() - started)
        for stage in UPDATE_STAGES:
            stage_ms[stage].append(report.stage_seconds(stage))
    put("core.apply_batch_ms", apply_s, 1e3)
    for stage in UPDATE_STAGES:
        put(f"core.stage.{stage}_ms", stage_ms[stage], 1e3)

    out["kernels.native"] = (1.0 if native_kernel_error() is None else 0.0, 1)
    put("serving.serve_us", per_query(tracer, "serving.serve", sizes))
    put("serving.serve_batch_us", per_query(tracer, "serving.serve_batch", sizes))
    put("serving.self_us", self_times(tracer, "serving.serve", "core.query", sizes))
    put("serving.batch_self_us",
        self_times(tracer, "serving.serve_batch", "core.query_many", sizes))
    put("cluster.serve_batch_us", per_query(tracer, "cluster.serve_batch", sizes))
    put("cluster.self_us",
        self_times(tracer, "cluster.serve_batch", "serving.serve_batch", sizes))
    put("core.query_us", per_query(tracer, "core.query", sizes))
    put("core.query_many_us", per_query(tracer, "core.query_many", sizes))
    put("kernels.query_pairs_us", per_query(tracer, "kernels.query_pairs", sizes))
    for plane in ("scalar", "batch"):
        for part in ("encode_req", "decode_req", "encode_resp", "decode_resp"):
            name = f"protocol.{plane}.{part}"
            put(f"{name}_us", list(tracer.durations(name).values()))
    return out, frame_bytes


def _codec(tracer: Tracer, plane: str, req: int, op: int, payload, reply) -> int:
    """Time the four codec steps of one request/response; return wire bytes."""
    from repro.server.protocol import OP_RESULT, decode_body, encode_frame

    prefix = f"protocol.{plane}"
    request = tracer.timed(f"{prefix}.encode_req", req, "server", encode_frame, op, req, payload)
    tracer.timed(f"{prefix}.decode_req", req, "server", decode_body, request[4:])
    response = tracer.timed(
        f"{prefix}.encode_resp", req, "server", encode_frame, OP_RESULT, req, reply
    )
    tracer.timed(f"{prefix}.decode_resp", req, "server", decode_body, response[4:])
    return len(request) + len(response)
