"""Worker-process management for the cluster engine.

The :class:`Dispatcher` owns the worker pool: it forks N processes (each
warm-starting from the shared snapshot via ``repro.cluster.worker``), routes
per-worker sub-batches through their pipes, enforces liveness (reply timeout
+ ``is_alive`` check), and respawns dead or hung workers from the last
published snapshot generation plus the journal of update batches committed
since — so a respawned worker rejoins at exactly the cluster's current epoch.

Concurrency model: the dispatcher itself is *not* thread-safe — the
:class:`~repro.cluster.engine.ClusterEngine` serializes access under its
dispatch lock.  Parallelism comes from the worker processes: a scatter sends
every sub-batch before gathering any reply, so all shards compute
concurrently while the dispatcher blocks on the slowest one.

Failure model: a worker that dies, hangs past ``worker_timeout`` or reports a
command error fails the in-flight batch with a typed
:class:`~repro.exceptions.ClusterWorkerError` *after* being respawned, so the
next batch finds a full pool again.  Update broadcasts are the exception —
survivors have already installed the batch, so the dispatcher folds it into
the respawn journal and the epoch barrier still closes (see
:meth:`Dispatcher.broadcast_update`).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.exceptions import ClusterError, ClusterWorkerError
from repro.graph.updates import UpdateBatch

from repro.cluster.worker import worker_main

#: Default seconds a worker may stay silent before it is declared hung.
DEFAULT_WORKER_TIMEOUT = 60.0


def _pick_context(name: Optional[str] = None):
    """The multiprocessing context to spawn workers with.

    ``fork`` is preferred where available: it is fast and lets the page cache
    warmed by the dispatcher's own snapshot reads benefit the children
    immediately.  Everything sent over the pipes is picklable, so ``spawn``
    (macOS/Windows default) works identically, just with a slower start.
    """
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_entry(inherited, *args) -> None:
    """Child entry point: drop inherited dispatcher-side pipe ends, then serve.

    Under ``fork`` the child inherits the dispatcher's end of its own pipe
    and of every earlier worker's.  While any process holds a dispatcher
    end, ``recv()`` on the worker end never sees EOF — so a worker would
    outlive a killed dispatcher forever.  Closing them here leaves the
    dispatcher process as the only holder.
    """
    for conn in inherited:
        conn.close()
    worker_main(*args)


class WorkerHandle:
    """One live worker process plus its dispatcher-side pipe end."""

    __slots__ = ("worker_id", "process", "conn")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn

    def is_alive(self) -> bool:
        return self.process.is_alive()


class Dispatcher:
    """Spawn, talk to, supervise and respawn the cluster's worker pool."""

    def __init__(
        self,
        snapshot_path: str,
        num_workers: int,
        base_epoch: int = 0,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        spawn_timeout: float = 120.0,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ClusterError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.worker_timeout = worker_timeout
        self.spawn_timeout = spawn_timeout
        #: Last published snapshot generation — what respawned workers load.
        self.base_snapshot = snapshot_path
        #: Cluster epoch captured by ``base_snapshot``.
        self.base_epoch = base_epoch
        #: Update batches committed after ``base_epoch``, oldest first;
        #: replayed on respawn, cleared by :meth:`note_published`.
        self.journal: List[UpdateBatch] = []
        self.respawns = 0
        self._ctx = _pick_context(start_method)
        self._handles: Dict[int, WorkerHandle] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        try:
            for worker_id in range(self.num_workers):
                self._handles[worker_id] = self._spawn(worker_id)
        except Exception:
            self.stop()
            raise

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every worker down; no orphan processes survive this call."""
        handles, self._handles = self._handles, {}
        self._started = False
        for handle in handles.values():
            try:
                handle.conn.send(("shutdown", None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for handle in handles.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            # Release the process object's resources (semaphores, pidfd).
            if hasattr(handle.process, "close"):
                handle.process.close()

    @property
    def is_started(self) -> bool:
        return self._started

    def worker_ids(self) -> List[int]:
        return sorted(self._handles)

    def processes(self) -> List[object]:
        """Live process handles (tests assert none survive ``stop``)."""
        return [handle.process for handle in self._handles.values()]

    # ------------------------------------------------------------------
    # Spawning and respawning
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        # Only a forked child inherits these; ``spawn`` would pickle copies.
        inherited = (
            [parent_conn] + [handle.conn for handle in self._handles.values()]
            if self._ctx.get_start_method() == "fork"
            else []
        )
        process = self._ctx.Process(
            target=_worker_entry,
            args=(
                inherited,
                child_conn,
                worker_id,
                self.base_snapshot,
                self.base_epoch,
                list(self.journal),
            ),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(worker_id, process, parent_conn)
        # Synchronous readiness check: the ping only returns once load_index
        # and the journal replay finished, so a handle returned from here is
        # serving at the cluster's current epoch.
        reply = self._request(handle, "ping", None, timeout=self.spawn_timeout)
        expected = self.base_epoch + len(self.journal)
        if reply["epoch"] != expected:
            self._destroy(handle)
            raise ClusterError(
                f"worker {worker_id} started at epoch {reply['epoch']}, "
                f"expected {expected}"
            )
        return handle

    def _destroy(self, handle: WorkerHandle) -> None:
        """Tear one worker down hard (dead/hung path; no protocol goodbye)."""
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
        if hasattr(handle.process, "close"):
            handle.process.close()

    def _respawn(self, worker_id: int, reason: str) -> None:
        """Replace a failed worker with a fresh one at the current epoch."""
        started = time.perf_counter()
        old = self._handles.pop(worker_id, None)
        if old is not None:
            self._destroy(old)
        self._handles[worker_id] = self._spawn(worker_id)
        self.respawns += 1
        if obs.is_enabled():
            obs.record_span(
                "cluster.respawn", time.perf_counter() - started,
                worker=worker_id, reason=reason,
            )
            obs.registry().counter(
                "repro_cluster_respawns_total",
                "Workers respawned after death/hang/command failure",
            ).inc()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _request(
        self, handle: WorkerHandle, command: str, payload, timeout: Optional[float]
    ):
        """One send/recv round trip; raises ``ClusterWorkerError`` untyped
        (without respawning — callers own the recovery policy)."""
        self._send(handle, command, payload)
        return self._recv(handle, command, timeout)

    def _send(self, handle: WorkerHandle, command: str, payload) -> None:
        try:
            handle.conn.send((command, payload))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ClusterWorkerError(
                handle.worker_id, f"pipe closed sending {command!r}: {exc}"
            ) from exc

    def _recv(self, handle: WorkerHandle, command: str, timeout: Optional[float]):
        budget = self.worker_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                alive = handle.is_alive()
                raise ClusterWorkerError(
                    handle.worker_id,
                    f"{'hung (alive but silent)' if alive else 'died'} "
                    f"after {budget:.1f}s awaiting {command!r} reply",
                )
            try:
                # Bounded poll so a worker that dies *without* closing the
                # pipe (SIGKILL) is still detected by the liveness check.
                if handle.conn.poll(min(remaining, 0.05)):
                    status, result = handle.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise ClusterWorkerError(
                    handle.worker_id, f"pipe closed awaiting {command!r}: {exc}"
                ) from exc
            if not handle.is_alive() and not handle.conn.poll(0):
                raise ClusterWorkerError(
                    handle.worker_id,
                    f"died (exitcode {handle.process.exitcode}) awaiting {command!r}",
                )
        if status != "ok":
            raise ClusterWorkerError(handle.worker_id, f"command {command!r}: {result}")
        return result

    def request(
        self, worker_id: int, command: str, payload=None, timeout: Optional[float] = None
    ):
        """Round trip to one worker, with the standard recovery policy:
        on failure the worker is respawned, then the error propagates."""
        handle = self._handles.get(worker_id)
        if handle is None:
            raise ClusterError(f"no worker {worker_id} (cluster not started?)")
        try:
            return self._request(handle, command, payload, timeout)
        except ClusterWorkerError as exc:
            self._respawn(worker_id, exc.reason)
            raise

    def _scatter(
        self, requests: Dict[int, Tuple[str, object]], timeout: Optional[float] = None
    ) -> Tuple[Dict[int, object], Dict[int, ClusterWorkerError]]:
        """Send every request before gathering any reply.

        Always drains a reply (or a failure) from *every* worker it reached,
        so pipes never hold stale responses for the next batch.  Returns
        ``(results, failures)`` keyed by worker id.
        """
        results: Dict[int, object] = {}
        failures: Dict[int, ClusterWorkerError] = {}
        sent: List[int] = []
        for worker_id, (command, payload) in requests.items():
            handle = self._handles.get(worker_id)
            if handle is None:
                failures[worker_id] = ClusterWorkerError(worker_id, "no such worker")
                continue
            try:
                self._send(handle, command, payload)
                sent.append(worker_id)
            except ClusterWorkerError as exc:
                failures[worker_id] = exc
        for worker_id in sent:
            handle = self._handles[worker_id]
            command = requests[worker_id][0]
            try:
                results[worker_id] = self._recv(handle, command, timeout)
            except ClusterWorkerError as exc:
                failures[worker_id] = exc
        return results, failures

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    def query_shards(
        self, assignments: Dict[int, List], timeout: Optional[float] = None
    ) -> Dict[int, Tuple[int, List[float]]]:
        """Scatter per-worker pair lists, gather ``(epoch, distances)``.

        On any shard failure the surviving replies are discarded, every
        failed worker is respawned at the current epoch, and the first
        failure is raised — the in-flight batch fails as a whole, typed.
        """
        results, failures = self._scatter(
            {wid: ("query", pairs) for wid, pairs in assignments.items()}, timeout
        )
        if failures:
            for worker_id, failure in sorted(failures.items()):
                self._respawn(worker_id, failure.reason)
            raise next(iter(sorted(failures.items())))[1]
        return results

    def broadcast_update(
        self, batch: UpdateBatch, timeout: Optional[float] = None
    ) -> Tuple[Dict[int, Tuple[int, List]], List[int]]:
        """Phase one of the epoch barrier: install ``batch`` on every shard.

        Returns ``(acks, respawned_ids)`` where each ack is the worker's
        ``(new_epoch, stage_timings)``.  The batch is appended to the respawn
        journal *before* any recovery, so a worker that dies mid-install is
        respawned with the batch included and the barrier still closes: after
        this call every live worker is at the new epoch, unconditionally.
        """
        alive = {wid: ("update", batch) for wid in self._handles}
        results, failures = self._scatter(alive, timeout)
        self.journal.append(batch)
        respawned: List[int] = []
        for worker_id, failure in sorted(failures.items()):
            self._respawn(worker_id, failure.reason)
            respawned.append(worker_id)
        return results, respawned

    # ------------------------------------------------------------------
    # Republish bookkeeping
    # ------------------------------------------------------------------
    def note_published(self, path: str, epoch: int) -> None:
        """A fresh snapshot generation is live: respawns now start there."""
        self.base_snapshot = path
        self.base_epoch = epoch
        self.journal.clear()
