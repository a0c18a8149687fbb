"""Tests for repro.cluster — sharded multi-process serving.

Covers the ISSUE 8 acceptance bars: bit-identical answers versus the
single-process :class:`~repro.serving.engine.ServingEngine` (fresh and
post-update, plus a seeded differential against the Dijkstra oracle),
epoch-barrier consistency under interleaved update/query batches (every shard
answers at the same epoch — no torn reads), worker-crash/hang recovery with
typed :class:`~repro.exceptions.ClusterWorkerError`, graceful shutdown
without orphan processes, the snapshot republish lifecycle, and the atomic
``save_index`` / ``export_snapshot`` write path the cluster depends on.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.cluster import ClusterEngine, ShardRouter
from repro.cluster.routing import _stable_hash
from repro.exceptions import (
    ClusterError,
    ClusterWorkerError,
    EngineStoppedError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_stream
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.store import load_snapshot_graph, read_manifest, save_index
from repro.throughput.workload import sample_query_pairs

SIDE = 7
SEED = 7
QUERY_COUNT = 40


@pytest.fixture(scope="module")
def base_graph():
    return grid_road_network(SIDE, SIDE, seed=SEED)


@pytest.fixture(scope="module")
def pmhl_snapshot(base_graph, tmp_path_factory):
    """A built PMHL index persisted once for every test in the module."""
    index = create_index(
        get_spec("PMHL", num_partitions=4, seed=0), base_graph.copy()
    )
    index.build()
    path = str(tmp_path_factory.mktemp("cluster") / "gen-000000")
    save_index(index, path, atomic=True, generation=0)
    return path


@pytest.fixture(scope="module")
def query_pairs(base_graph):
    return list(sample_query_pairs(base_graph, QUERY_COUNT, seed=3))


@pytest.fixture(scope="module")
def update_batches(base_graph):
    return generate_update_stream(base_graph, 3, 10, seed=11)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process.

    An orphan that exited stays a zombie until its new parent reaps it,
    and ``os.kill(pid, 0)`` still succeeds on a zombie; read its state
    from ``/proc`` where there is one.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def make_cluster(snapshot, tmp_path, **kwargs):
    kwargs.setdefault("num_workers", 2)
    kwargs.setdefault("publish_dir", str(tmp_path / "gens"))
    return ClusterEngine(snapshot, **kwargs)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_partition_affinity(self):
        router = ShardRouter(3, {0: 0, 1: 0, 2: 1, 3: 2})
        assert router.partition_aware
        # Same source partition -> same worker, whatever the target.
        assert router.worker_for(0, 2) == router.worker_for(1, 3)

    def test_hash_fallback_is_deterministic_and_spread(self):
        router = ShardRouter(4)
        assert not router.partition_aware
        first = [router.worker_for(v, v + 1) for v in range(64)]
        assert first == [router.worker_for(v, v + 1) for v in range(64)]
        # The multiplicative mix must not send consecutive ids to one worker.
        assert len(set(first)) == 4

    def test_unknown_source_routes_by_target_partition(self):
        router = ShardRouter(2, {5: 1})
        assert router.worker_for(99, 5) == _stable_hash(1) % 2

    def test_split_preserves_positions(self):
        router = ShardRouter(2)
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5)]
        assignments = router.split(pairs)
        seen = sorted(
            position for entries in assignments.values() for position, _ in entries
        )
        assert seen == [0, 1, 2, 3]
        for entries in assignments.values():
            for position, pair in entries:
                assert pairs[position] == pair

    def test_single_worker_takes_everything(self):
        router = ShardRouter(1, {0: 3})
        assert router.split([(0, 1), (9, 9)]).keys() == {0}

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


# ----------------------------------------------------------------------
# Bit-identical answers vs the single-process engine
# ----------------------------------------------------------------------
class TestBitIdentical:
    def test_fresh_matches_single_process(self, pmhl_snapshot, query_pairs, tmp_path):
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            assert cluster.partition_aware
            got = cluster.query_batch(query_pairs)
        with single:
            expected = single.query_batch(query_pairs)
        assert got == expected

    def test_post_update_matches_single_process(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path) as cluster, single:
            for batch in update_batches:
                cluster.apply_batch(batch)
                single.submit_batch(batch)
            single.wait_for_maintenance()
            got = cluster.serve_batch(query_pairs)
            expected = single.serve_batch(query_pairs)
        assert [r.distance for r in got] == [r.distance for r in expected]
        assert {r.epoch for r in got} == {len(update_batches)}

    def test_seeded_differential_vs_dijkstra(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for round_number, batch in enumerate([None, *update_batches[:2]]):
                if batch is not None:
                    cluster.apply_batch(batch)
                epoch = cluster.current_epoch
                graph = cluster.graph_at(epoch)
                pairs = list(sample_query_pairs(graph, 12, seed=100 + round_number))
                results = cluster.serve_batch(pairs)
                for (source, target), result in zip(pairs, results):
                    oracle = dijkstra_distance(graph, source, target)
                    assert result.distance == pytest.approx(oracle, rel=1e-12), (
                        f"seed={100 + round_number} pair=({source},{target}) "
                        f"epoch={epoch}"
                    )

    def test_unpartitioned_method_uses_hash_fallback(
        self, base_graph, query_pairs, tmp_path
    ):
        index = create_index(get_spec("DH2H"), base_graph.copy())
        index.build()
        snapshot = str(tmp_path / "dh2h")
        save_index(index, snapshot, atomic=True)
        with make_cluster(snapshot, tmp_path) as cluster:
            assert not cluster.partition_aware
            assert cluster.query_batch(query_pairs) == index.query_many(query_pairs)
            # Both shards actually served (hash spread, not all-on-one).
            busy = [w for w in cluster.worker_stats() if w["queries_served"] > 0]
            assert len(busy) == 2

    def test_scalar_serve_and_vertex_validation(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            source, target = query_pairs[0]
            result = cluster.serve(source, target)
            assert result.distance == cluster.query(source, target)
            assert result.stage.startswith("shard")
            with pytest.raises(VertexNotFoundError):
                cluster.serve(source, 10_000)
            assert cluster.serve_batch([]) == []


# ----------------------------------------------------------------------
# Epoch barrier: no torn reads across an update broadcast
# ----------------------------------------------------------------------
class TestEpochBarrier:
    def test_every_shard_answers_at_the_same_epoch(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        """The acceptance bar: across update broadcasts, each served batch
        carries exactly one epoch and matches that epoch's Dijkstra oracle."""
        with make_cluster(pmhl_snapshot, tmp_path, num_workers=3) as cluster:
            observed = []
            errors = []
            stop = threading.Event()

            def serve_loop():
                try:
                    while not stop.is_set():
                        results = cluster.serve_batch(query_pairs)
                        observed.append(results)
                except Exception as exc:  # surfaced below; never swallowed
                    errors.append(exc)

            server = threading.Thread(target=serve_loop)
            server.start()
            try:
                for batch in update_batches:
                    cluster.apply_batch(batch)
                    time.sleep(0.05)  # let some batches serve at this epoch
            finally:
                stop.set()
                server.join()

            assert not errors, f"serve loop raised: {errors[0]!r}"
            assert observed
            epochs_seen = set()
            for results in observed:
                epochs = {r.epoch for r in results}
                assert len(epochs) == 1, f"torn batch: epochs {sorted(epochs)}"
                epochs_seen |= epochs
            # Answers are consistent with the graph of the epoch they report.
            for results in observed:
                epoch = results[0].epoch
                graph = cluster.graph_at(epoch)
                for result in results[:5]:
                    oracle = dijkstra_distance(graph, result.source, result.target)
                    assert result.distance == pytest.approx(oracle, rel=1e-12)
            # The stream actually crossed epochs (else the test proved nothing).
            assert len(epochs_seen) >= 2

    def test_worker_epochs_agree_after_each_broadcast(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for expected, batch in enumerate(update_batches, start=1):
                cluster.apply_batch(batch)
                assert cluster.current_epoch == expected
                assert {w["epoch"] for w in cluster.worker_stats()} == {expected}

    def test_submitted_batches_drain_in_order(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for batch in update_batches:
                cluster.submit_batch(batch)
            assert cluster.wait_for_maintenance(timeout=60)
            assert cluster.pending_batches == 0
            assert cluster.current_epoch == len(update_batches)
            assert not cluster.maintenance_errors
            results = cluster.serve_batch(query_pairs)
            assert {r.epoch for r in results} == {len(update_batches)}

    def test_update_report_aggregates_shard_stages(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            report = cluster.apply_batch(update_batches[0])
        assert report.stages
        assert report.stages[0].name == "edge_update"
        assert report.total_seconds > 0


# ----------------------------------------------------------------------
# Worker death / hang robustness
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_crash_fails_batch_typed_then_recovers(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            expected = cluster.query_batch(query_pairs)
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            with pytest.raises(ClusterWorkerError) as excinfo:
                cluster.query_batch(query_pairs)
            assert excinfo.value.worker_id == 0
            assert isinstance(excinfo.value, ClusterError)
            # The failed worker was respawned: full pool, identical answers.
            assert cluster.query_batch(query_pairs) == expected
            assert cluster.stats()["respawns"] == 1

    def test_hung_worker_hits_timeout_and_recovers(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(
            pmhl_snapshot, tmp_path, worker_timeout=1.0
        ) as cluster:
            expected = cluster.query_batch(query_pairs)
            cluster.inject_worker_hang(0, seconds=30.0)
            started = time.monotonic()
            with pytest.raises(ClusterWorkerError) as excinfo:
                cluster.query_batch(query_pairs)
            assert time.monotonic() - started < 10.0  # timeout, not the sleep
            assert "hung" in excinfo.value.reason or "died" in excinfo.value.reason
            assert cluster.query_batch(query_pairs) == expected

    def test_respawn_replays_journal_after_update(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        # publish_interval=0: no republish, so the respawn *must* replay the
        # journal over generation 0 to reach the current epoch.
        with make_cluster(
            pmhl_snapshot, tmp_path, publish_interval=0
        ) as cluster:
            cluster.apply_batch(update_batches[0])
            expected = cluster.query_batch(query_pairs)
            assert cluster.stats()["journal_batches"] == 1
            cluster.inject_worker_crash(1)
            time.sleep(0.2)
            with pytest.raises(ClusterWorkerError):
                cluster.query_batch(query_pairs)
            results = cluster.serve_batch(query_pairs)
            assert [r.distance for r in results] == expected
            assert {r.epoch for r in results} == {1}

    def test_respawn_uses_last_published_generation(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(
            pmhl_snapshot, tmp_path, publish_interval=1
        ) as cluster:
            cluster.apply_batch(update_batches[0])
            expected = cluster.query_batch(query_pairs)
            # The republished generation is now the respawn base: no journal.
            assert cluster.stats()["journal_batches"] == 0
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            with pytest.raises(ClusterWorkerError):
                cluster.query_batch(query_pairs)
            assert cluster.query_batch(query_pairs) == expected

    def test_crash_during_update_broadcast_still_closes_barrier(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            report = cluster.apply_batch(update_batches[0])
            assert report.stages  # surviving shard's timings
            assert cluster.current_epoch == 1
            results = cluster.serve_batch(query_pairs)
            assert {r.epoch for r in results} == {1}
            assert {w["epoch"] for w in cluster.worker_stats()} == {1}


# ----------------------------------------------------------------------
# Graceful shutdown: no orphan processes
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_leaves_no_orphans(self, pmhl_snapshot, query_pairs, tmp_path):
        cluster = make_cluster(pmhl_snapshot, tmp_path, num_workers=3)
        cluster.start()
        cluster.query_batch(query_pairs)
        pids = [process.pid for process in cluster._dispatcher.processes()]
        assert len(pids) == 3
        cluster.stop()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # joined and reaped: the pid is gone

    def test_stop_is_idempotent_and_stopped_engine_rejects_work(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        cluster = make_cluster(pmhl_snapshot, tmp_path)
        cluster.start()
        cluster.stop()
        cluster.stop()
        with pytest.raises(EngineStoppedError):
            cluster.serve_batch(query_pairs)
        with pytest.raises(EngineStoppedError):
            cluster.submit_batch(update_batches[0])
        with pytest.raises(EngineStoppedError):
            cluster.apply_batch(update_batches[0])
        with pytest.raises(EngineStoppedError):
            cluster.publish_snapshot()

    def test_killed_host_leaves_no_orphans(self, pmhl_snapshot):
        """SIGKILL of the process holding the engine (no ``stop()`` runs):
        every worker sees its pipe close and exits on its own."""
        import select
        import signal
        import subprocess
        import sys

        script = (
            "import sys, time\n"
            "from repro.cluster import ClusterEngine\n"
            "engine = ClusterEngine(sys.argv[1], num_workers=2)\n"
            "engine.start()\n"
            "pids = [p.pid for p in engine._dispatcher.processes()]\n"
            "print(' '.join(map(str, pids)), flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        host = subprocess.Popen(
            [sys.executable, "-c", script, pmhl_snapshot],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([host.stdout], [], [], 60.0)
            assert ready, "engine host never reported its workers"
            pids = [int(pid) for pid in host.stdout.readline().split()]
            assert len(pids) == 2
            host.send_signal(signal.SIGKILL)
            host.wait(10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
            for pid in survivors:  # don't leak them past a failing test
                os.kill(pid, signal.SIGKILL)
            assert survivors == []
        finally:
            if host.poll() is None:
                host.kill()
                host.wait(10)
            host.stdout.close()

    def test_stop_kills_hung_worker(self, pmhl_snapshot, tmp_path):
        cluster = make_cluster(pmhl_snapshot, tmp_path)
        cluster.start()
        pids = [process.pid for process in cluster._dispatcher.processes()]
        cluster.inject_worker_hang(0, seconds=60.0)
        time.sleep(0.2)
        started = time.monotonic()
        cluster.stop()
        assert time.monotonic() - started < 30.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
# Snapshot republish lifecycle + atomic writes
# ----------------------------------------------------------------------
class TestRepublish:
    def test_generation_published_after_each_window(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        publish_dir = tmp_path / "pub"
        with make_cluster(
            pmhl_snapshot, tmp_path, publish_dir=str(publish_dir), publish_interval=1
        ) as cluster:
            cluster.apply_batch(update_batches[0])
            cluster.apply_batch(update_batches[1])
            published = cluster.published_snapshots
            assert cluster.current_generation == 2
        assert [os.path.basename(p) for p in published] == ["gen-000001", "gen-000002"]
        manifest = read_manifest(published[1])
        assert manifest["generation"] == 2
        assert manifest["extras"]["epoch"] == 2
        assert manifest["extras"]["cluster_epoch"] == 2
        # Atomic write: no staging/retired directories left behind.
        leftovers = [n for n in os.listdir(publish_dir) if ".tmp" in n or ".old" in n]
        assert leftovers == []

    def test_publish_interval_batches_windows(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(
            pmhl_snapshot, tmp_path, publish_interval=2
        ) as cluster:
            cluster.apply_batch(update_batches[0])
            assert cluster.published_snapshots == []
            cluster.apply_batch(update_batches[1])
            assert len(cluster.published_snapshots) == 1

    def test_late_joining_cluster_starts_from_published_generation(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(
            pmhl_snapshot, tmp_path, publish_interval=1
        ) as cluster:
            cluster.apply_batch(update_batches[0])
            expected = cluster.query_batch(query_pairs)
            latest = cluster.published_snapshots[-1]
        # A brand-new cluster (a "late joiner") warm-starts from the published
        # generation and serves the updated weights bit-identically.
        with make_cluster(latest, tmp_path, num_workers=1) as fresh:
            assert fresh.current_generation == 1
            assert fresh.query_batch(query_pairs) == expected

    def test_manual_publish(self, pmhl_snapshot, tmp_path):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            path = cluster.publish_snapshot()
            assert cluster.current_generation == 1
            assert read_manifest(path)["generation"] == 1


class TestAtomicSnapshotWrites:
    def test_atomic_overwrite_replaces_whole_directory(self, base_graph, tmp_path):
        index = create_index(get_spec("DCH"), base_graph.copy())
        index.build()
        target = str(tmp_path / "snap")
        save_index(index, target, atomic=True, generation=1)
        before = read_manifest(target)
        save_index(index, target, atomic=True, generation=2)
        after = read_manifest(target)
        assert (before["generation"], after["generation"]) == (1, 2)
        assert [n for n in os.listdir(tmp_path) if ".tmp" in n or ".old" in n] == []
        assert load_snapshot_graph(target).num_edges == base_graph.num_edges

    def test_serving_export_snapshot_is_atomic_with_generation(
        self, base_graph, tmp_path
    ):
        index = create_index(get_spec("DCH"), base_graph.copy())
        engine = ServingEngine(index, cache_capacity=0, snapshot_limit=0)
        target = str(tmp_path / "export")
        engine.export_snapshot(target, generation=7)
        engine.export_snapshot(target, generation=8)  # atomic overwrite
        manifest = read_manifest(target)
        assert manifest["generation"] == 8
        assert manifest["extras"]["epoch"] == 0
        assert [n for n in os.listdir(tmp_path) if ".tmp" in n or ".old" in n] == []

    def test_generation_defaults_to_zero(self, base_graph, tmp_path):
        index = create_index(get_spec("DCH"), base_graph.copy())
        index.build()
        target = str(tmp_path / "plain")
        save_index(index, target)
        assert read_manifest(target)["generation"] == 0
