"""Benchmark-owned load drivers over :class:`repro.server.client.AsyncClient`.

Only ``AsyncClient.connect`` / ``request`` / ``close`` are used, so what is
measured does not depend on ``repro.server.loadgen``.  Every request has a
deadline; RETRY frames are honoured up to a fixed budget, after which the
request counts as failed, as do ERROR frames, timeouts and dropped
connections.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    ProtocolError,
    RemoteServerError,
    ServerBackpressureError,
    ServerClosedError,
)
from repro.graph.updates import UpdateBatch
from repro.server.client import AsyncClient
from repro.server.protocol import OP_APPLY_BATCH, OP_QUERY, OP_QUERY_BATCH

#: RETRY frames absorbed per request before it counts as failed.
RETRY_BUDGET = 16
#: Cap on one backoff sleep, whatever the server's hint.
MAX_RETRY_WAIT = 0.25
QUERY_DEADLINE = 5.0
UPDATE_DEADLINE = 60.0

#: (op, payload, queries carried) of one request frame.
Frame = Tuple[int, dict, int]


@dataclass
class Op:
    """One request as the client saw it (all times ``perf_counter``)."""

    index: int
    op: int
    payload: dict
    queries: int
    #: Due time (open loop) or the moment the previous reply arrived (closed).
    due: float
    sent: float
    done: float = 0.0
    reply: Optional[dict] = None
    retries: int = 0
    error: Optional[str] = None
    traced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def rtt(self) -> float:
        return self.done - self.sent


def query_frame(pair: Tuple[int, int]) -> Frame:
    return OP_QUERY, {"source": pair[0], "target": pair[1]}, 1


def batch_frame(pairs: Sequence[Tuple[int, int]]) -> Frame:
    return OP_QUERY_BATCH, {"pairs": [[s, t] for s, t in pairs]}, len(pairs)


def update_frame(batch: UpdateBatch) -> Frame:
    updates = [[u.u, u.v, u.old_weight, u.new_weight] for u in batch]
    return OP_APPLY_BATCH, {"updates": updates}, 0


async def call(client: AsyncClient, record: Op, deadline: float) -> None:
    """Send ``record``'s frame, honouring RETRY hints; fill reply or error."""
    try:
        async with asyncio.timeout(deadline):
            while True:
                try:
                    record.reply = await client.request(record.op, record.payload)
                    break
                except ServerBackpressureError as exc:
                    if record.retries >= RETRY_BUDGET:
                        record.error = "retry_budget"
                        break
                    record.retries += 1
                    await asyncio.sleep(min(exc.suggested_wait_seconds, MAX_RETRY_WAIT))
    except TimeoutError:
        record.error = "timeout"
    except RemoteServerError as exc:
        record.error = f"error:{exc.code}"
    except ServerClosedError:
        record.error = "closed"
    except ProtocolError as exc:
        record.error = f"protocol:{exc.code}"
    record.done = time.perf_counter()


async def closed_loop(
    client: AsyncClient,
    frames: Iterator[Frame],
    start: float,
    end: float,
    traced: Callable[[int], bool],
) -> List[Op]:
    """Send frames back to back until ``end``; keep those sent from ``start``.

    Frames sent before ``start`` are warm-up and are not returned.
    """
    records: List[Op] = []
    previous = time.perf_counter()
    index = 0
    while True:
        now = time.perf_counter()
        if now >= end:
            break
        op, payload, queries = next(frames)
        record = Op(index, op, payload, queries, due=previous, sent=now)
        if now >= start:
            record.traced = traced(index)
            records.append(record)
            index += 1
        await call(client, record, QUERY_DEADLINE)
        previous = record.done
        if record.error == "closed":
            break
    return records


async def open_loop(
    client: AsyncClient,
    frames: Iterator[Frame],
    schedule: Sequence[float],
    start: float,
    traced: Callable[[int], bool],
) -> List[Op]:
    """Send one frame at each ``start + offset``, regardless of replies."""
    records: List[Op] = []
    inflight: Set[asyncio.Task] = set()
    for index, offset in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        op, payload, queries = next(frames)
        record = Op(index, op, payload, queries, due=due, sent=time.perf_counter())
        record.traced = traced(index)
        records.append(record)
        task = asyncio.ensure_future(call(client, record, QUERY_DEADLINE))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
    if inflight:
        await asyncio.gather(*inflight)
    return records


async def update_loop(
    client: AsyncClient,
    batches: Sequence[UpdateBatch],
    start: float,
    end: float,
    interval: float,
) -> List[Op]:
    """``apply_batch`` frames due every ``interval`` seconds from ``start`` to ``end``.

    The rate is fixed, so the server CPU a window spends on maintenance
    grows linearly with the cost of one install.  A batch is sent only
    after the previous one installed (its old weights assume that one); if
    an install outlasts ``interval``, the next batch goes out late, which
    shows as ``sent`` past ``due``; none is sent once the window has ended.
    """
    records: List[Op] = []
    for index, batch in enumerate(batches):
        due = start + index * interval
        if due >= end or time.perf_counter() >= end:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        op, payload, _ = update_frame(batch)
        record = Op(index, op, payload, 0, due=due, sent=time.perf_counter())
        records.append(record)
        await call(client, record, UPDATE_DEADLINE)
        if not record.ok:
            break  # later batches' old weights assume this one installed
    return records
