"""Line-delimited JSON service exposing sessions over TCP.

Each inbound line is one UTF-8 JSON object and yields exactly one reply line.
The protocol has five request kinds (open_session, gaze_event, query_strategy,
task_performance, close_session) answered by session_opened, ack,
strategy_response, episode_result, session_closed or error.  A query that
never receives its task_performance times out: the episode is recorded
without a value update and an error line is pushed to the querying
connection.

The dispatch core is synchronous and transport-free; the asyncio layer only
frames lines, serialises replies, and runs the timeout clock.  All messages
for one session funnel through the same sequential state machine no matter
which connection carries them.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import json
import random
from dataclasses import dataclass
from typing import Any, Mapping

from .config import AppConfig, config_digest
from .policy import init_from_scoring
from .scoring import ScoringTable
from .session import Session, SessionStateError, TaskPerformance
from .partner_model import PartnerModel

REQUEST_KINDS = (
    "open_session",
    "gaze_event",
    "task_performance",
    "query_strategy",
    "close_session",
)


def serialize(message: Mapping[str, Any]) -> bytes:
    """Canonical reply encoding: compact, key-sorted, newline-terminated."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


@dataclass
class DispatchResult:
    """A reply plus timer bookkeeping for the transport layer."""

    reply: dict[str, Any]
    arm_timeout: str | None = None
    disarm_timeout: str | None = None


class StrategyService:
    """Transport-independent protocol state machine."""

    def __init__(self, config: AppConfig | None = None) -> None:
        self.config = config or AppConfig()
        self.table: ScoringTable = self.config.scoring_table()
        self.digest = config_digest(self.config)
        self.sessions: dict[str, Session] = {}
        self._counter = 0

    # -- helpers ---------------------------------------------------------

    def _error(self, reason: str, session: str | None = None) -> DispatchResult:
        reply: dict[str, Any] = {"kind": "error", "reason": reason}
        if session is not None:
            reply["session"] = session
        return DispatchResult(reply=reply)

    # -- dispatch --------------------------------------------------------

    def dispatch(self, line: str) -> DispatchResult:
        """Handle one raw inbound line; never raises."""
        text = line.strip()
        if not text:
            return self._error("empty line")
        try:
            message = json.loads(text)
        except (ValueError, RecursionError) as exc:
            return self._error(f"malformed json: {exc}")
        if not isinstance(message, dict):
            return self._error("message must be a json object")
        kind = message.get("kind")
        if kind is None:
            return self._error("missing kind")
        if not isinstance(kind, str) or kind not in REQUEST_KINDS:
            return self._error(f"unknown kind: {kind!r}")
        if kind == "open_session":
            return self._open_session()

        session_id = message.get("session")
        if session_id is None:
            return self._error("missing session")
        if not isinstance(session_id, str) or session_id not in self.sessions:
            return self._error(f"unknown session: {session_id!r}")
        handler = {
            "gaze_event": self._gaze_event,
            "query_strategy": self._query_strategy,
            "task_performance": self._task_performance,
            "close_session": self._close_session,
        }[kind]
        try:
            return handler(session_id, message)
        except SessionStateError as exc:
            return self._error(str(exc), session_id)
        except (TypeError, ValueError, KeyError) as exc:
            return self._error(f"invalid message: {exc}", session_id)

    # -- handlers --------------------------------------------------------

    def _open_session(self) -> DispatchResult:
        self._counter += 1
        session_id = f"s-{self._counter:06d}"
        hyper = self.config.policy
        q_init = hyper.q_init if self.config.server.preconfigured else 0.0
        session = Session(
            self.table,
            init_from_scoring(self.table.truth, q_init, hyper),
            partner=PartnerModel(self.config.partner_model),
            config=self.config.session,
            rng=random.Random(self._counter),
        )
        self.sessions[session_id] = session
        return DispatchResult(
            reply={
                "kind": "session_opened",
                "session": session_id,
                "config_digest": self.digest,
            }
        )

    def _gaze_event(self, session_id: str, message: Mapping[str, Any]) -> DispatchResult:
        session = self.sessions[session_id]
        target = message.get("target")
        if not isinstance(target, int) or isinstance(target, bool):
            return self._error("gaze_event needs an integer target", session_id)
        if not 0 <= target < len(session.partner.gaze.weights):
            return self._error("target out of range", session_id)
        session.ingest_gaze(target)
        return DispatchResult(reply={"kind": "ack", "session": session_id})

    def _query_strategy(self, session_id: str, message: Mapping[str, Any]) -> DispatchResult:
        session = self.sessions[session_id]
        task = message.get("task")
        if not isinstance(task, str) or not task:
            return self._error("query_strategy needs a task string", session_id)
        result = session.query(task)
        capacity, gaze, task_class = result.triple.as_labels()
        return DispatchResult(
            reply={
                "kind": "strategy_response",
                "session": session_id,
                "negation": result.action.negation.value,
                "hesitation": result.action.hesitation.value,
                "state": result.state.value,
                "triple": [capacity, gaze, task_class],
            },
            arm_timeout=session_id,
        )

    def _task_performance(self, session_id: str, message: Mapping[str, Any]) -> DispatchResult:
        session = self.sessions[session_id]
        if session.pending_task is None:
            return self._error("no pending query", session_id)
        task = message.get("task")
        if task is not None and task != session.pending_task:
            return self._error(
                f"task mismatch: pending {session.pending_task!r}, got {task!r}", session_id
            )
        performance = _parse_performance(message)
        record = session.complete(performance)
        return DispatchResult(
            reply={
                "kind": "episode_result",
                "session": session_id,
                "episode": record.index,
                "reward": record.reward,
                "cumulative_reward": record.cumulative_reward,
            },
            disarm_timeout=session_id,
        )

    def _close_session(self, session_id: str, message: Mapping[str, Any]) -> DispatchResult:
        session = self.sessions.pop(session_id)
        session.abort_pending()
        return DispatchResult(
            reply={"kind": "session_closed", "session": session_id},
            disarm_timeout=session_id,
        )

    # -- timeout ---------------------------------------------------------

    def timeout_pending(self, session_id: str) -> dict[str, Any] | None:
        """Abort a query that never saw its task_performance.

        Returns the error line to push, or None when the session is gone or
        the query already resolved.
        """
        session = self.sessions.get(session_id)
        if session is None or session.pending_task is None:
            return None
        session.abort_pending()
        return {
            "kind": "error",
            "reason": "task_performance timeout",
            "session": session_id,
        }


def _parse_performance(message: Mapping[str, Any]) -> TaskPerformance:
    values: list[Any] = []
    for dimension in ("comprehension", "enabledness"):
        payload = message.get(dimension)
        if not isinstance(payload, Mapping):
            raise ValueError(f"task_performance needs a {dimension} object")
        success = payload.get("success")
        elapsed = payload.get("time")
        if not isinstance(success, bool):
            raise ValueError(f"{dimension}.success must be a boolean")
        if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)):
            raise ValueError(f"{dimension}.time must be a number")
        values += (success, float(elapsed))
    # TaskPerformance's fields are (ok, time) per dimension, in this order.
    return TaskPerformance(*values)


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Drop the rest of an over-long line, through its newline or end of input,
    so that it gets one reply however long it is."""
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


class TcpServer:
    """Asyncio shell: line framing, reply serialisation, timeout clock."""

    def __init__(self, service: StrategyService, host: str | None = None, port: int | None = None):
        self.service = service
        self.host = host if host is not None else service.config.server.host
        self.port = port if port is not None else service.config.server.port
        self._server: asyncio.AbstractServer | None = None
        self._timers: dict[str, asyncio.TimerHandle] = {}
        # Live connections: handler task -> its writer, so close() can end them.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)

    @property
    def bound_port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def _disarm(self, session_id: str) -> None:
        handle = self._timers.pop(session_id, None)
        if handle is not None:
            handle.cancel()

    def _arm(self, session_id: str, writer: asyncio.StreamWriter) -> None:
        self._disarm(session_id)
        loop = asyncio.get_running_loop()
        timeout = self.service.config.server.query_timeout
        self._timers[session_id] = loop.call_later(timeout, self._fire, session_id, writer)

    def _fire(self, session_id: str, writer: asyncio.StreamWriter) -> None:
        self._timers.pop(session_id, None)
        reply = self.service.timeout_pending(session_id)
        if reply is None:
            return
        try:
            writer.write(serialize(reply))
        except (ConnectionError, RuntimeError):
            pass

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial
                except asyncio.LimitOverrunError as exc:
                    await _skip_line(reader, exc.consumed)
                    writer.write(serialize({"kind": "error", "reason": "line too long"}))
                    await writer.drain()
                    continue
                if not line:
                    break
                result = self.service.dispatch(line.decode("utf-8", errors="replace"))
                if result.disarm_timeout:
                    self._disarm(result.disarm_timeout)
                writer.write(serialize(result.reply))
                if result.arm_timeout:
                    self._arm(result.arm_timeout, writer)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass


async def serve(config: AppConfig, host: str | None = None, port: int | None = None) -> None:
    """Run the service until cancelled."""
    # asyncio reads each chunk into a new 256 KiB buffer.  Keep glibc from
    # mapping a fresh one per read, which costs a page fault per request.
    with contextlib.suppress(OSError, AttributeError, TypeError):
        ctypes.CDLL(None).mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
        ctypes.CDLL(None).mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
    server = TcpServer(StrategyService(config), host=host, port=port)
    await server.start()
    bound = server.bound_port
    print(f"listening on {server.host}:{bound}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()
