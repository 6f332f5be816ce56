"""The asyncio wire server: many analysts, one statistical DBMS.

The event loop owns accepting connections and framing; actual DBMS work
runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor` so a
slow scan never stalls the loop.  Between the two sits admission control:

* at most ``max_inflight`` requests execute concurrently (a semaphore
  whose slot is returned only when the worker thread actually finishes —
  threads cannot be cancelled, so a timed-out request keeps its slot
  until its thread yields and ``max_inflight`` bounds *real* concurrent
  executions);
* at most ``max_queue`` more may wait for a slot — beyond that the server
  answers ``busy`` immediately (queue-depth rejection, counter
  ``server.reject``) instead of building an unbounded backlog;
* every admitted request carries a deadline (``request_timeout_s``,
  covering queue wait + execution); expiry answers ``timeout`` (counter
  ``server.timeout``).  A ``timeout`` response leaves the operation's
  outcome *ambiguous*: the worker thread may still commit afterwards, so
  clients must verify the view version before retrying a write.  Workers
  mitigate the window by refusing to start past their deadline (counter
  ``server.expired_skip``) and bounding their lock waits by the time
  remaining.

Concurrency control is delegated to a
:class:`~repro.concurrency.transactions.TransactionCoordinator`.  A read
is served one of two ways (MVCC), a write one way:

* **Memoized scalar queries are answered inline.**  A ``query`` whose
  answer already sits in the head version's publication-time summary
  snapshot or per-version memo is answered directly on the event loop
  (counter ``server.read_inline``) — three bare reads, no lock, no
  latch, no pin, so it cannot stall framing (REPRO-C205).  The loop
  never *computes*.
* **Every other read is a plain job on the worker pool**: a memo miss,
  a bootstrap read, a bulk payload (``columns``/``history``).  The
  handler runs under ``with coordinator.read(sid, view)`` — pin the
  latest published :class:`~repro.concurrency.mvcc.ViewVersion` under
  the connection's own sid, compute, unpin — acquiring no view lock and
  no summary latch.  A miss computes once and memoizes on the immutable
  version, so the next identical query against it is an inline hit.
  ``stats`` stays on the inline executor so it answers even when the
  worker pool is saturated.
* **Write ops** (``update``/``undo``) run per-view serialized write
  transactions on the same worker pool through the
  propagator/WAL/group-commit pipeline; each publishes a new immutable
  version at commit.  ``publish``/``adopt`` serialize under the registry
  lock and ``checkpoint`` quiesces the whole system.

Each connection is one session id (``s1``, ``s2``, ...); its WAL
transactions carry that id and its locks and version pins are torn down
on disconnect.

Request execution is wrapped in a per-request span
(``server.<op>``), so a :class:`~repro.concurrency.tracing.
ConcurrentTracer` yields per-request timing plus ``server.*``/``lock.*``
counter totals via :meth:`~repro.obs.tracer.Tracer.counter_totals`.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.concurrency.transactions import TransactionCoordinator
from repro.core.dbms import StatisticalDBMS
from repro.core.errors import (
    DeadlockError,
    LockTimeoutError,
    ProtocolError,
    ReproError,
    ServerError,
    SnapshotError,
)
from repro.metadata.persistence import result_to_jsonable, value_to_jsonable
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.expressions import col
from repro.server.protocol import encode_frame, read_frame

#: Ops answered without admission control (kept responsive under load);
#: their registry reads still run off the event loop, under the
#: coordinator's registry lock, on a dedicated inline executor.
_INLINE_OPS = frozenset({"handshake", "stats", "close"})


class AnalystServer:
    """One DBMS served to N connections over the frame protocol."""

    def __init__(
        self,
        dbms: StatisticalDBMS,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 4,
        max_inflight: int = 8,
        max_queue: int = 16,
        request_timeout_s: float = 30.0,
        lock_timeout_s: float = 10.0,
        tracer: AbstractTracer | None = None,
        coordinator: TransactionCoordinator | None = None,
        allow_debug: bool = False,
    ) -> None:
        self.dbms = dbms
        self.host = host
        self.port = port  # 0 until serving; then the real bound port
        self.max_workers = max_workers
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self.tracer = tracer if tracer is not None else (
            dbms.tracer if dbms.tracer.enabled else NULL_TRACER
        )
        self.coordinator = coordinator or TransactionCoordinator(
            dbms, tracer=self.tracer, timeout_s=lock_timeout_s
        )
        self.allow_debug = allow_debug
        self._sids = itertools.count(1)
        self._pool: ThreadPoolExecutor | None = None
        self._inline_pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._slots: asyncio.Semaphore | None = None
        self._queued = 0
        self._inflight = 0
        self.accepted = 0
        self.rejected = 0
        self.timed_out = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting (resolves ``self.port`` when 0)."""
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-worker"
        )
        # Inline ops (handshake/stats) run here so they never queue behind
        # long DBMS work, yet still read the registry under its lock.
        self._inline_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-inline"
        )
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._inline_pool is not None:
            self._inline_pool.shutdown(wait=False, cancel_futures=True)
            self._inline_pool = None

    async def serve_forever(self) -> None:
        """Run until cancelled."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sid = f"s{next(self._sids)}"
        analyst = sid
        self.accepted += 1
        self.tracer.add("server.accept")
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    await self._send(
                        writer, {"ok": False, "error": {"code": "protocol", "message": str(exc)}}
                    )
                    break
                if request is None:
                    break
                op = request.get("op")
                request_id = request.get("id")
                if op == "handshake":
                    analyst = str(request.get("analyst", sid))
                    response = await self._inline(
                        request_id, self._handshake_result, sid, analyst
                    )
                elif op == "stats":
                    response = await self._inline(
                        request_id, self._stats, request, sid
                    )
                elif op == "close":
                    await self._send(writer, self._ok(request_id, {"sid": sid}))
                    break
                else:
                    response = await self._admit(sid, analyst, request)
                await self._send(writer, response)
        finally:
            released = await self._teardown(sid)
            self.tracer.add("server.close")
            if released:
                self.tracer.add("server.locks_released_on_close", released)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: loop shutdown caught us draining the
                # close; locks are already released, so finish quietly
                # instead of ending the task cancelled (which asyncio's
                # streams callback would log as an error).
                pass

    async def _teardown(self, sid: str) -> int:
        """Release a disconnecting session's locks off the event loop.

        ``coordinator.release`` takes the sessions latch and the lock
        manager's mutex — blocking waits the loop must not make
        (REPRO-C205): with 8 analysts connected, one disconnect contending
        on the lock manager would stall every other connection's framing.
        """
        pool = self._inline_pool
        if pool is not None:
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    pool, self.coordinator.release, sid
                )
            except (RuntimeError, asyncio.CancelledError):
                # Pool rejected the job, or stop() cancelled it before it
                # ran: fall through so the locks are still freed.
                pass
        # Shutdown path only: the executor is gone, so no other connection
        # is being served that this brief block could stall.
        return self.coordinator.release(sid)  # repro-lint: disable=REPRO-C205

    async def _send(self, writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    async def _inline(self, request_id: Any, fn: Callable[..., dict[str, Any]], *args: Any) -> dict[str, Any]:
        """Run a lightweight op off the loop, bypassing admission control.

        handshake/stats stay answerable while the worker pool is
        saturated, but their shared-state reads (registry names) still go
        through the coordinator's registry lock on the inline executor —
        never bare on the event loop.
        """
        assert self._inline_pool is not None
        loop = asyncio.get_running_loop()
        try:
            return self._ok(
                request_id, await loop.run_in_executor(self._inline_pool, fn, *args)
            )
        except ServerError as exc:
            return self._err(request_id, exc.code, str(exc))
        except ReproError as exc:
            self.tracer.add("server.error")
            return self._err(request_id, type(exc).__name__, str(exc))
        except Exception as exc:  # never tear down the connection
            self.tracer.add("server.error")
            return self._err(
                request_id, "internal", f"unexpected {type(exc).__name__}: {exc}"
            )

    def _handshake_result(self, sid: str, analyst: str) -> dict[str, Any]:
        return {
            "sid": sid,
            "analyst": analyst,
            "views": self.coordinator.registry_names(sid),
        }

    # -- admission ---------------------------------------------------------

    async def _admit(self, sid: str, analyst: str, request: dict[str, Any]) -> dict[str, Any]:
        """Queue-depth rejection, then deadline-bounded execution.

        The inflight slot is returned by ``_release_slot`` when the worker
        thread actually finishes — not when the deadline fires — because a
        thread cannot be cancelled; this keeps ``max_inflight`` a bound on
        real concurrent executions even across timeouts.
        """
        request_id = request.get("id")
        raw_timeout = request.get("timeout_s", self.request_timeout_s)
        try:
            timeout_s = float(raw_timeout)
        except (TypeError, ValueError):
            return self._err(
                request_id, "protocol", f"'timeout_s' must be a number, got {raw_timeout!r}"
            )
        if timeout_s <= 0:
            return self._err(request_id, "protocol", "'timeout_s' must be positive")
        if request.get("op") == "query":
            response = self._serve_read_inline(sid, request)
            if response is not None:
                return response
        if self._queued >= self.max_queue:
            self.rejected += 1
            self.tracer.add("server.reject")
            return self._err(
                request_id,
                "busy",
                f"queue full ({self._queued} waiting, "
                f"{self._inflight} in flight); retry later",
            )
        self.tracer.add("server.request")
        deadline = time.monotonic() + timeout_s
        assert self._slots is not None and self._pool is not None
        self._queued += 1
        try:
            try:
                await asyncio.wait_for(self._slots.acquire(), timeout=timeout_s)
            except asyncio.TimeoutError:
                return self._timeout_response(request_id, timeout_s)
        finally:
            self._queued -= 1
        # Slot held: hand off to a worker thread.  The future is shielded
        # so a deadline expiry abandons the result without cancelling the
        # bookkeeping; _release_slot runs on the loop when the thread ends.
        self._inflight += 1
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._pool, self._execute, sid, analyst, request, deadline
        )
        future.add_done_callback(self._release_slot)
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=deadline - time.monotonic()
            )
        except asyncio.TimeoutError:
            return self._timeout_response(request_id, timeout_s)

    def _serve_read_inline(
        self, sid: str, request: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Answer a memoized scalar query on the event loop, or punt.

        The loop only ever serves what is *already computed*: a
        well-formed query whose result sits in the head version's
        publication-time summary snapshot or per-version memo.  That
        keeps the path provably non-blocking (REPRO-C205) — a bare
        chain read (:meth:`~repro.concurrency.transactions.
        TransactionCoordinator.chain_if_published`), a bare head read
        (:meth:`~repro.concurrency.mvcc.VersionChain.head`), and a bare
        dict probe (:meth:`~repro.concurrency.mvcc.ViewVersion.cached`)
        — no lock, no latch, no pin.  Everything else returns ``None``
        and takes the admission-controlled worker path: bootstrap reads,
        memo misses (a worker computes once and memoizes on the version,
        so the *next* identical query hits here) and malformed requests
        (the worker shapes the ``protocol`` error).
        """
        try:
            chain = self.coordinator.chain_if_published(self._view_of(request))
            key = self._query_key(request)
        except ProtocolError:
            return None
        version = chain.head() if chain is not None else None
        if version is None:
            return None
        hit, value = version.cached(key)
        if not hit:
            return None  # compute — and memoize — on a worker, never here
        try:
            payload = result_to_jsonable(value)
        except Exception:
            return None  # the worker path shapes the error envelope
        self.tracer.add("server.request")
        self.tracer.add("server.read_inline")
        self.tracer.add("mvcc.memo_hit")
        with self.tracer.span("server.query", sid=sid):
            return self._ok(
                request.get("id"),
                {"value": payload, "version": version.view_version},
            )

    def _release_slot(self, future: "Future[dict[str, Any]] | asyncio.Future[dict[str, Any]]") -> None:
        self._inflight -= 1
        if self._slots is not None:
            self._slots.release()
        if not future.cancelled():
            future.exception()  # retrieve, so abandoned results never warn

    def _timeout_response(self, request_id: Any, timeout_s: float) -> dict[str, Any]:
        self.timed_out += 1
        self.tracer.add("server.timeout")
        return self._err(
            request_id,
            "timeout",
            f"request exceeded its {timeout_s}s deadline; outcome is "
            "ambiguous (the worker may still complete) — verify the view "
            "version before retrying a write",
        )

    # -- execution (worker threads) ----------------------------------------

    def _execute(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        op = str(request.get("op"))
        request_id = request.get("id")
        if time.monotonic() >= deadline:
            # The client has already been answered "timeout"; doing the
            # work anyway would silently commit an update the client was
            # told failed.  Skip it — this narrows (not closes) the
            # ambiguity window documented on the timeout response.
            self.tracer.add("server.expired_skip")
            return self._err(
                request_id, "timeout", "deadline expired before execution started"
            )
        with self.tracer.span(f"server.{op}", sid=sid):
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                return self._err(request_id, "unknown_op", f"unknown op {op!r}")
            # Any failure answers an error frame: a malformed request
            # (missing/ill-typed fields) must never tear down the
            # connection, which would release the session's locks.
            try:
                return self._ok(
                    request_id, handler(sid, analyst, request, deadline)
                )
            except DeadlockError as exc:
                return self._err(request_id, "deadlock", str(exc))
            except LockTimeoutError as exc:
                return self._err(request_id, "lock_timeout", str(exc))
            except SnapshotError as exc:
                return self._err(request_id, "snapshot", str(exc))
            except ServerError as exc:
                return self._err(request_id, exc.code, str(exc))
            except ReproError as exc:
                self.tracer.add("server.error")
                return self._err(request_id, type(exc).__name__, str(exc))
            except Exception as exc:
                self.tracer.add("server.error")
                return self._err(
                    request_id, "internal", f"unexpected {type(exc).__name__}: {exc}"
                )

    @staticmethod
    def _remaining(deadline: float) -> float:
        """Lock-wait budget left before this request's deadline."""
        return max(deadline - time.monotonic(), 0.0)

    # Each _op_* runs on a worker thread with admission already granted;
    # ``deadline`` (monotonic) bounds its lock waits via _remaining().

    def _op_open_view(
        self, sid: str, analyst: str, request: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        session = self.coordinator.session(sid, self._view_of(request), analyst)
        view = session.view
        return {
            "view": view.name,
            "version": view.version,
            "rows": len(view),
            "attributes": list(view.schema.names),
        }

    def _op_query(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        function, attrs = self._query_key(request)  # protocol errors before any pinning
        with self.coordinator.read(
            sid, view_name, timeout_s=self._remaining(deadline)
        ) as reader:
            return {
                "value": result_to_jsonable(reader.compute(function, attrs)),
                "version": reader.version,
            }

    @staticmethod
    def _query_key(request: dict[str, Any]) -> tuple[str, tuple[str, ...]]:
        """The ``(function, attributes)`` summary key a ``query`` asks for.

        The one parser of a query's shape — the inline probe looks the
        key up, the worker handler computes it.  Raises
        :class:`ProtocolError` unless the request names a string function
        and either an attribute or a two-item attributes list.
        """
        function = request.get("function")
        if not isinstance(function, str):
            raise ProtocolError("op 'query' needs a string 'function'")
        attributes = request.get("attributes")
        if attributes is not None:
            if not isinstance(attributes, (list, tuple)) or len(attributes) != 2:
                raise ProtocolError("'attributes' must be a two-item list")
            return function, (str(attributes[0]), str(attributes[1]))
        if "attribute" not in request:
            raise ProtocolError("op 'query' needs 'attribute' or 'attributes'")
        return function, (str(request["attribute"]),)

    def _op_columns(
        self, sid: str, analyst: str, request: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        """Raw column values under one snapshot (the atomicity probe)."""
        view_name = self._view_of(request)
        attributes = request.get("attributes")
        if not isinstance(attributes, (list, tuple)) or not attributes:
            raise ProtocolError("op 'columns' needs a non-empty 'attributes' list")
        names = [str(a) for a in attributes]
        # One immutable pinned version serves every requested column, so
        # the multi-attribute atomicity probe holds by construction.
        with self.coordinator.read(
            sid, view_name, timeout_s=self._remaining(deadline)
        ) as reader:
            return {
                "version": reader.version,
                "columns": {
                    name: [value_to_jsonable(v) for v in reader.column(name)]
                    for name in names
                },
            }

    def _op_update(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        where = request.get("where")
        assignments = request.get("assignments")
        if not isinstance(assignments, dict) or not assignments:
            raise ProtocolError("op 'update' needs a non-empty 'assignments' object")
        predicate = None
        if where is not None:
            if not isinstance(where, dict) or not {"attribute", "equals"} <= set(where):
                raise ProtocolError("'where' needs 'attribute' and 'equals'")
            predicate = col(str(where["attribute"])) == where["equals"]
        with self.coordinator.write(
            sid, view_name, analyst, timeout_s=self._remaining(deadline)
        ) as session:
            report = session.update(
                predicate, assignments, description=f"update by {analyst}"
            )
            return {
                "version": session.view.version,
                "entries_visited": report.entries_visited,
            }

    def _op_undo(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        try:
            count = int(request.get("count", 1))
        except (TypeError, ValueError):
            raise ProtocolError(
                f"'count' must be an integer, got {request.get('count')!r}"
            ) from None
        with self.coordinator.write(
            sid, view_name, analyst, timeout_s=self._remaining(deadline)
        ) as session:
            if count > len(session.view.history):
                return {"version": session.view.version, "undone": 0}
            session.undo(count)
            return {"version": session.view.version, "undone": count}

    def _op_publish(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        with self.coordinator.registry_write(
            sid, timeout_s=self._remaining(deadline)
        ) as dbms:
            edits = dbms.publish(view_name, publisher=analyst)
            return {
                "view": view_name,
                "publisher": edits.publisher,
                "version": edits.version,
            }

    def _op_adopt(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        new_name = request.get("new_name")
        if not new_name:
            raise ProtocolError("op 'adopt' needs a 'new_name'")
        new_name = str(new_name)
        with self.coordinator.registry_write(
            sid, timeout_s=self._remaining(deadline)
        ) as dbms:
            view = dbms.adopt_published(view_name, new_name, analyst)
            return {"view": view.name, "rows": len(view)}

    def _op_history(self, sid: str, analyst: str, request: dict[str, Any], deadline: float) -> dict[str, Any]:
        view_name = self._view_of(request)
        with self.coordinator.read(
            sid, view_name, timeout_s=self._remaining(deadline)
        ) as reader:
            return {
                "version": reader.version,
                "operations": [
                    {
                        "version": op.version,
                        "kind": op.kind.value,
                        "attribute": op.attribute,
                        "cells": op.cells_changed,
                    }
                    for op in reader.operations()
                ],
            }

    def _op_checkpoint(
        self, sid: str, analyst: str, request: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        path = self.coordinator.checkpoint(
            sid, timeout_s=self._remaining(deadline)
        )
        return {"path": str(path)}

    def _op_debug_sleep(
        self, sid: str, analyst: str, request: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        """Occupy a worker slot (admission-control tests only)."""
        if not self.allow_debug:
            raise ServerError("forbidden", "debug ops are disabled")
        seconds = float(request.get("seconds", 0.1))
        time.sleep(seconds)
        return {"slept": seconds}

    # -- stats -------------------------------------------------------------

    def _stats(self, request: dict[str, Any], sid: str) -> dict[str, Any]:
        prefix = str(request.get("prefix", ""))
        counters: dict[str, float] = {}
        totals = getattr(self.tracer, "counter_totals", None)
        if callable(totals):
            counters = totals(prefix)
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "queued": self._queued,
            "inflight": self._inflight,
            "views": self.coordinator.registry_names(sid),
            "counters": counters,
        }

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _view_of(request: dict[str, Any]) -> str:
        view = request.get("view")
        if not view:
            raise ProtocolError(f"op {request.get('op')!r} needs a 'view'")
        return str(view)

    @staticmethod
    def _ok(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
        response = {"ok": True, "result": result}
        if request_id is not None:
            response["id"] = request_id
        return response

    @staticmethod
    def _err(request_id: Any, code: str, message: str) -> dict[str, Any]:
        response = {"ok": False, "error": {"code": code, "message": message}}
        if request_id is not None:
            response["id"] = request_id
        return response


class ServerThread:
    """Run an :class:`AnalystServer` on a background event-loop thread.

    The shell's ``serve`` command and the tests use this: ``start()``
    returns once the port is bound (resolving port 0 to the real port),
    ``stop()`` tears the loop down.  ``kill()`` abandons the loop without
    cleanup — the crash half of the stress test's kill-and-recover phase.
    """

    def __init__(self, server: AnalystServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopping: asyncio.Event | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout_s: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServerError("startup", "server failed to bind in time")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        await self.server.start()
        self._ready.set()
        try:
            await self._stopping.wait()
        finally:
            await self.server.stop()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain, join the thread."""
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    def kill(self) -> None:
        """Abandon the server without cleanup (simulated crash).

        The daemon loop thread is left to die with the process as far as
        the caller is concerned; the durability directory is whatever the
        last committed fsync left behind — exactly what ``recover()``
        must handle.
        """
        if self._loop is not None and self._stopping is not None:
            # Stop accepting so the port frees up, but skip all draining.
            self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread = None
