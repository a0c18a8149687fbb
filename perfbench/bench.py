"""One benchmark run: set-ups, the measured window, checks and metrics.

``run.py`` checks the checkout and the environment, then calls
:func:`execute`.  See ``run.py`` for what a run does and prints.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import sys
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy

from drivers import Op, batch_frame, call, closed_loop, open_loop, query_frame, update_loop
from layers import (
    END_TO_END, PER_LAYER, SERVING_STAGES, UNITS, Tracer, median_or_zero, replay_layers,
)
from repro.kernels.native import native_kernel, native_kernel_error
from repro.registry import create_index, get_spec
from repro.server.client import AsyncClient
from repro.server.protocol import OP_APPLY_BATCH, OP_QUERY, OP_STATS
from repro.store import save_index
from serverproc import (
    ServerProcess, cpu_seconds, cpu_steal_ticks, loadavg, peak_rss_mb,
)
from workload import (
    FULL, RATIONALE, SMOKE, WORKLOADS, Answer, check_answers, epoch_graphs,
    poisson_schedule, quantile, sample_every, uniform_pairs, update_stream, zipf_pairs,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
WARMUP_SECONDS = 1.0
#: Traced runs trace every TRACE_EVERY-th frame of a connection.
TRACE_EVERY = 8
#: Replay sample sizes per plane (requests).
REPLAY_SCALAR = 400
REPLAY_BATCHES = 40
#: Update batches replayed on a loaded index for ``core.stage.*``.
REPLAY_UPDATES = 4
#: Answers checked against Dijkstra per run.
CHECK_ANSWERS = 600
SLO_SECONDS = 0.050
#: Deadline of the ``stats`` requests that bracket the measured window.
STATS_DEADLINE = 30.0


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _source_digest(src: str) -> str:
    """Digest of the measured package's sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(src, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_sha(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _host_sample() -> Dict[str, object]:
    return {"loadavg": loadavg(), "steal_ticks": cpu_steal_ticks(), "time": time.time()}


async def _first_answer(host: str, port: int, source: int, target: int) -> dict:
    client = await AsyncClient.connect(host, port)
    try:
        return await asyncio.wait_for(
            client.request(OP_QUERY, {"source": source, "target": target}), 30.0)
    finally:
        await client.close()


class Run:
    """One invocation of one workload."""

    def __init__(self, args, root: str, out: str) -> None:
        self.args = args
        self.root = root
        self.workload = WORKLOADS[args.workload]
        self.spec = SMOKE if args.smoke else FULL
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.workdir = os.path.join(out, "runs", f"{tag}-{os.getpid()}")
        self.report_path = os.path.join(out, "results", f"{tag}.json")
        self.trace_path = os.path.join(out, "results", f"{tag}.trace.json")
        os.makedirs(self.workdir)
        os.makedirs(os.path.dirname(self.report_path), exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.base = self.spec.graph()
        self.vertices = sorted(self.base.vertices())
        wl = self.workload
        self.batches = []
        if wl.update_interval:
            count = int(self.seconds / wl.update_interval) + 1
            self.batches = update_stream(self.base, count, self.seed)
        self.servers: List[ServerProcess] = []
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.checked = 0

    def put(self, name: str, value: Optional[float], unit: str, samples: int) -> None:
        # A quantile of no samples is None; it prints as nan.
        self.metrics[name] = (math.nan if value is None else float(value), unit, int(samples))

    def pair_stream(self, tag: object):
        wl = self.workload
        if wl.hot_pairs:
            return zipf_pairs(self.vertices, wl.hot_pairs, self.seed)
        return uniform_pairs(self.vertices, self.seed, tag)

    def frame_stream(self, conn: int):
        pairs = self.pair_stream(conn)
        if self.workload.plane == "scalar":
            return (query_frame(pair) for pair in pairs)
        size = self.workload.batch_size
        return (batch_frame([next(pairs) for _ in range(size)]) for _ in iter(int, 1))

    # ------------------------------------------------------------------
    def setup_once(self, attempt: int) -> Dict[str, float]:
        """Build, save, spawn, first correct answer (timed)."""
        spec = self.spec
        started = time.perf_counter()
        index = create_index(
            get_spec(spec.method, num_partitions=spec.num_partitions, seed=spec.index_seed),
            spec.graph(),
        )
        index.build()
        built = time.perf_counter()
        folder = os.path.join(self.workdir, f"setup{attempt}")
        snapshot = os.path.join(folder, "gen-000000")
        save_index(index, snapshot, atomic=True, generation=0)
        saved = time.perf_counter()
        server = ServerProcess(snapshot, folder, self.env)
        self.servers.append(server)
        host, port = server.start()
        source, target = next(self.pair_stream("setup"))
        reply = asyncio.run(_first_answer(host, port, source, target))
        answered = time.perf_counter()
        answer = Answer(source, target, reply.get("distance"), reply.get("epoch"))
        if answer.epoch != 0 or check_answers([answer], [self.base]):
            raise RuntimeError(f"wrong first answer {reply} for {(source, target)}")
        self.snapshot, self.server, self.address = snapshot, server, (host, port)
        return {"setup": answered - started, "build": built - started, "save": saved - built}

    def setup(self) -> None:
        native_kernel()  # compile once per machine, not per set-up
        times = []
        for attempt in range(SETUPS):
            if self.servers:
                self.servers[-1].stop()
            times.append(self.setup_once(attempt))
        self.put("setup_s", statistics.median(t["setup"] for t in times),
                 UNITS["setup_s"], SETUPS)
        for name, key in (("core.build_s", "build"), ("store.save_s", "save")):
            self.put(name, statistics.median(t[key] for t in times), PER_LAYER[name][0], SETUPS)

    def teardown(self) -> None:
        errors = []
        for server in self.servers:
            try:
                server.stop()
            except Exception as exc:  # keep killing the rest
                errors.append(exc)
        if errors:
            raise errors[0]
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    async def drive(self) -> None:
        wl = self.workload
        host, port = self.address
        clients = [await AsyncClient.connect(host, port) for _ in range(wl.connections)]
        control = await AsyncClient.connect(host, port)
        updater = await AsyncClient.connect(host, port) if self.batches else None
        traced = (lambda index: index % TRACE_EVERY == 0) if self.trace else (lambda index: False)
        marks: Dict[str, Dict[str, object]] = {}
        # Scanning /proc once keeps the marks on the event loop cheap.
        pids = self.server.tree()

        async def mark(name: str, at: float) -> None:
            await asyncio.sleep(max(0.0, at - time.perf_counter()))
            marks[name] = {
                "wall": time.perf_counter(),
                "server_cpu": cpu_seconds(pids),
                "client_cpu": _cpu_self(),
            }
            now = time.perf_counter()
            stats = Op(0, OP_STATS, {}, 0, due=now, sent=now)
            await call(control, stats, STATS_DEADLINE)
            if not stats.ok:
                raise RuntimeError(f"stats request at the {name} of the window: {stats.error}")
            marks[name]["stats"] = stats.reply

        try:
            start = time.perf_counter() + WARMUP_SECONDS
            end = start + self.seconds
            jobs = [mark("start", start), mark("end", end)]
            if wl.loop == "closed":
                for conn, client in enumerate(clients):
                    jobs.append(closed_loop(client, self.frame_stream(conn), start, end, traced))
            else:
                offsets = poisson_schedule(
                    wl.rate, WARMUP_SECONDS + self.seconds, self.seed, "queries")
                jobs.append(open_loop(
                    clients[0], self.frame_stream(0), offsets, start - WARMUP_SECONDS, traced))
            if updater is not None:
                jobs.append(update_loop(updater, self.batches, start, end, wl.update_interval))
            results = await asyncio.gather(*jobs)
        finally:
            for client in clients + [control] + ([updater] if updater else []):
                await client.close()
        self.marks = marks
        ops = [op for group in results[2:] for op in group]
        self.updates = [op for op in ops if op.op == OP_APPLY_BATCH]
        self.queries = [op for op in ops if op.op != OP_APPLY_BATCH]
        if wl.loop == "open":  # arrivals due before ``start`` were warm-up
            self.queries = [op for op in self.queries if op.due >= start]

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Seeded sample of answers against Dijkstra on the reported epoch."""
        answers = []
        for op in self.queries:
            if not op.ok:
                continue
            if "pairs" in op.payload:
                pairs = op.payload["pairs"]
                distances = op.reply["distances"]
                if len(distances) != len(pairs):
                    distances = [None] * len(pairs)  # every pair counts as wrong
                for (source, target), distance in zip(pairs, distances):
                    answers.append(Answer(source, target, distance, op.reply["epoch"]))
            else:
                answers.append(Answer(op.payload["source"], op.payload["target"],
                                      op.reply["distance"], op.reply["epoch"]))
        graphs = epoch_graphs(self.base, self.batches[: len(self.updates)])
        sample = sample_every(answers, CHECK_ANSWERS, self.seed, "check")
        wrong = check_answers(sample, graphs)
        for expected, op in enumerate(self.updates, start=1):
            if op.ok and op.reply.get("epoch") != expected:
                wrong.append(f"update {expected} reported epoch {op.reply.get('epoch')}")
        self.checked = len(sample)
        return wrong

    # ------------------------------------------------------------------
    def end_to_end(self) -> None:
        wl = self.workload
        ok = [op for op in self.queries if op.ok]
        start, end = self.marks["start"], self.marks["end"]
        a, b = start["wall"], end["wall"]
        seconds = b - a
        cpu = end["server_cpu"] - start["server_cpu"]
        answered = sum(op.queries for op in ok if a <= op.done < b)
        # Open loop: latency from the due time; closed loop: round trip.
        if wl.loop == "open":
            latency = [(op.done - op.due) * 1e3 for op in ok if a <= op.due < b]
        else:
            latency = [op.rtt * 1e3 for op in ok if a <= op.sent < b]
        self.put("qps", answered / seconds, UNITS["qps"], len(latency))
        self.put("op_p50_ms", quantile(latency, 0.50), UNITS["op_p50_ms"], len(latency))
        self.put("op_p99_ms", quantile(latency, 0.99), UNITS["op_p99_ms"], len(latency))
        self.put("cpu_us_per_query", cpu / max(answered, 1) * 1e6,
                 UNITS["cpu_us_per_query"], answered)
        tree = self.server.tree()
        self.put("server_rss_mb", peak_rss_mb(tree), UNITS["server_rss_mb"], len(tree))

        attempted = len(self.queries) + len(self.updates)
        failed = sum(not op.ok for op in self.queries + self.updates)
        self.put("failed_frac", failed / max(attempted, 1), UNITS["failed_frac"], attempted)
        if wl.loop == "open":
            missed = sum(not op.ok or op.done - op.due > SLO_SECONDS for op in self.queries)
            self.put("slo_miss_frac", missed / max(len(self.queries), 1),
                     UNITS["slo_miss_frac"], len(self.queries))
        if self.updates:
            rtts = [op.rtt * 1e3 for op in self.updates if op.ok]
            self.put("update_p50_ms", quantile(rtts, 0.5), UNITS["update_p50_ms"], len(rtts))
        self.attempted, self.failed = attempted, failed
        self.failures = Counter(op.error for op in self.queries + self.updates if not op.ok)

    def per_layer(self) -> None:
        wl = self.workload
        start, end = self.marks["start"], self.marks["end"]
        wall = end["wall"] - start["wall"]
        self.put("server.cpu_share", (end["server_cpu"] - start["server_cpu"]) / wall,
                 "ratio", 1)
        self.put("loadgen.cpu_share", (end["client_cpu"] - start["client_cpu"]) / wall,
                 "ratio", 1)
        server0, server1 = start["stats"]["server"], end["stats"]["server"]
        self.put("server.retries", server1["retries_total"] - server0["retries_total"],
                 "count", 1)
        self.put("server.errors", server1["errors_total"] - server0["errors_total"], "count", 1)
        lag = [(op.sent - op.due) * 1e3 for op in self.queries]
        self.put("loadgen.lag_p99_ms", quantile(lag, 0.99) or 0.0, "ms", len(lag))

        b0, b1 = start["stats"]["backend"], end["stats"]["backend"]
        cache0, cache1 = b0.get("cache") or {}, b1.get("cache") or {}
        hits = cache1.get("hits", 0) - cache0.get("hits", 0)
        misses = cache1.get("misses", 0) - cache0.get("misses", 0)
        self.put("serving.cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
                 "ratio", hits + misses)
        self.put("serving.cache_invalidated",
                 cache1.get("invalidated", 0) - cache0.get("invalidated", 0), "count", 1)
        self.put("serving.shed", b1["queries_shed"] - b0["queries_shed"], "count", 1)
        # Scalar replies name their stage; batch replies do not, so the batch
        # plane reads the engine's per-stage counters instead.
        stages: Counter = Counter()
        if wl.plane == "scalar":
            stages.update(op.reply["stage"] for op in self.queries if op.ok)
        else:
            for stage, count in b1["by_stage"].items():
                stages[stage] += count - b0["by_stage"].get(stage, 0)
        total = sum(stages.values())
        for stage in SERVING_STAGES:
            self.put(f"serving.stage_share.{stage}", stages[stage] / total if total else 0.0,
                     "ratio", total)

        # Spans: the live round trip of each sampled traced request, then the
        # same payloads through the layers below; the other plane's samples
        # are drawn from this workload's pair distribution.
        tracer = Tracer()
        traced = [op for op in self.queries if op.traced and op.ok]
        limit = REPLAY_SCALAR if wl.plane == "scalar" else REPLAY_BATCHES
        live = sample_every(traced, limit, self.seed, "trace")
        for request, op in enumerate(live):
            tracer.span("server", op.sent, op.done, request)
        extra = self.pair_stream("replay")
        if wl.plane == "scalar":
            scalar = [(req, (op.payload["source"], op.payload["target"]))
                      for req, op in enumerate(live)]
            batches = [(len(live) + i, [next(extra) for _ in range(64)])
                       for i in range(REPLAY_BATCHES)]
        else:
            batches = [(req, [tuple(p) for p in op.payload["pairs"]])
                       for req, op in enumerate(live)]
            scalar = [(len(live) + i, next(extra)) for i in range(REPLAY_SCALAR)]
        # The first batches of this seed's live-traffic update stream.
        updates = update_stream(self.base, REPLAY_UPDATES, self.seed)
        layer, frame_bytes = replay_layers(tracer, self.snapshot, scalar, batches, updates)
        for name, (value, samples) in layer.items():
            self.put(name, value, PER_LAYER[name][0], samples)

        # server.self_us: round trip minus server-side codec minus the engine.
        engine = tracer.durations(
            "serving.serve" if wl.plane == "scalar" else "serving.serve_batch")
        decode_req = tracer.durations(f"protocol.{wl.plane}.decode_req")
        encode_resp = tracer.durations(f"protocol.{wl.plane}.encode_resp")
        rtt = tracer.durations("server")
        server_self = [seconds - decode_req[req] - encode_resp[req] - engine[req]
                       for req, seconds in rtt.items()]
        self.put("server.rtt_us", median_or_zero(list(rtt.values())) * 1e6, "us", len(rtt))
        self.put("server.self_us", median_or_zero(server_self) * 1e6, "us", len(server_self))
        own = scalar if wl.plane == "scalar" else batches
        per_query = [frame_bytes[req] / (1 if wl.plane == "scalar" else len(pairs))
                     for req, pairs in own]
        self.put("protocol.bytes_per_query", statistics.mean(per_query), "B", len(per_query))
        tracer.write_chrome(self.trace_path)

    # ------------------------------------------------------------------
    def header(self, before, after) -> Dict[str, object]:
        return {
            "git_sha": _git_sha(self.root),
            "source_sha256": _source_digest(os.path.join(self.root, "src")),
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "native_kernel": native_kernel_error() or "loaded",
            **self.spec.describe(),
            "workload": self.workload.name,
            "workload_seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "smoke": bool(self.args.smoke),
            "server_argv": self.servers[-1].argv if self.servers else None,
            "host_before": before,
            "host_after": after,
        }


def execute(args, root: str, out: str) -> int:
    """Run ``args.workload`` once; print metrics and the result line."""
    run = Run(args, root, out)
    before = _host_sample()
    try:
        run.setup()
        asyncio.run(run.drive())
        wrong = run.check()
        run.end_to_end()
        if args.trace:
            run.per_layer()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.teardown()
    after = _host_sample()

    for name, (value, unit, samples) in sorted(run.metrics.items()):
        print(f"{name:<40} {value:>14.6g} {unit:<6} n={samples}")
    print(f"wrong_answers {len(wrong)} of {run.checked} checked")
    failures = " ".join(f"{kind}={count}" for kind, count in sorted(run.failures.items()))
    print(f"failed_ops {run.failed} {failures}".rstrip())
    if run.failed:
        print(f"perfbench: {run.failed} failed ops: {failures}", file=sys.stderr)
    for line in wrong[:20]:
        print(f"  WRONG {line}")
        print(f"perfbench: WRONG {line}", file=sys.stderr)
    report = {
        "header": run.header(before, after),
        "rationale": RATIONALE[args.workload],
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in run.metrics.items()},
        "layer_map": {name: moves for name, (_, moves) in PER_LAYER.items()},
        "wrong_answers": wrong,
        "checked": run.checked,
    }
    with open(run.report_path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"report: {os.path.relpath(run.report_path, root)}")
    names = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    print(json.dumps({
        "correct": not wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name][0], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if not wrong else 1
