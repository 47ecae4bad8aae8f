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

The replies alone drive the clock: a strategy_response starts its session's
once queued, an episode_result or session_closed stops it, and any other
reply, an error included, leaves it as it is.

Framing works on whole reads: every complete line in a read is dispatched in
order and the unfinished tail waits for the next read.  Clients may pipeline;
their requests are answered in order, and the replies to one read go out in
one write, possibly one segment.  A line whose content is over 64 KiB gets
one "line too long" reply and the rest of it is skipped through its newline;
an unterminated final line is still answered at end of input.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import json
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from .config import AppConfig, config_digest
from .policy import init_from_scoring
from .scoring import ScoringTable
from .session import Session, SessionStateError, TaskPerformance
from .partner_model import PartnerModel

# json.dumps builds an encoder per call when given options; build it once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def serialize(message: Mapping[str, Any]) -> bytes:
    """Canonical reply encoding: compact, key-sorted, newline-terminated."""
    return (_encode(message) + "\n").encode("utf-8")


@dataclass
class DispatchResult:
    """The reply to one line; ``TcpServer._answer`` runs the clock from its kind."""

    reply: dict[str, Any]


def _error(reason: str, session: str | None = None) -> dict[str, Any]:
    """The one shape of an error reply."""
    reply: dict[str, Any] = {"kind": "error", "reason": reason}
    if session is not None:
        reply["session"] = session
    return reply


class StrategyService:
    """Transport-independent protocol state machine."""

    def __init__(self, config: AppConfig | None = None) -> None:
        self.config = config or AppConfig()
        self.table: ScoringTable = self.config.scoring_table()
        self.digest = config_digest(self.config)
        self.sessions: dict[str, Session] = {}
        self._counter = 0

    # -- dispatch --------------------------------------------------------

    def dispatch(self, line: str) -> DispatchResult:
        """Handle one raw inbound line; never raises."""
        return DispatchResult(self._reply(line))

    def _reply(self, line: str) -> dict[str, Any]:
        text = line.strip()
        if not text:
            return _error("empty line")
        try:
            message = json.loads(text)
        except (ValueError, RecursionError) as exc:
            return _error(f"malformed json: {exc}")
        if not isinstance(message, dict):
            return _error("message must be a json object")
        kind = message.get("kind")
        if kind is None:
            return _error("missing kind")
        if kind == "open_session":
            return self._open_session()
        handler = self._HANDLERS.get(kind) if isinstance(kind, str) else None
        if handler is None:
            return _error(f"unknown kind: {kind!r}")

        session_id = message.get("session")
        if session_id is None:
            return _error("missing session")
        session = self.sessions.get(session_id) if isinstance(session_id, str) else None
        if session is None:
            return _error(f"unknown session: {session_id!r}")
        try:
            return handler(self, session_id, session, message)
        except SessionStateError as exc:
            return _error(str(exc), session_id)
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            return _error(f"invalid message: {exc}", session_id)

    # -- handlers --------------------------------------------------------

    def _open_session(self) -> dict[str, Any]:
        self._counter += 1
        session_id = f"s-{self._counter:06d}"
        session = Session(
            self.table,
            init_from_scoring(
                self.table, self.config.policy, preconfigured=self.config.server.preconfigured
            ),
            partner=PartnerModel(self.config.partner_model),
            config=self.config.session,
            rng=random.Random(self._counter),
        )
        self.sessions[session_id] = session
        return {
            "kind": "session_opened",
            "session": session_id,
            "config_digest": self.digest,
        }

    def _gaze_event(self, session_id: str, session: Session, message: Mapping[str, Any]) -> dict[str, Any]:
        target = message.get("target")
        if not isinstance(target, int) or isinstance(target, bool):
            return _error("gaze_event needs an integer target", session_id)
        if not 0 <= target < self.config.partner_model.num_targets:
            return _error("target out of range", session_id)
        session.ingest_gaze(target)
        return {"kind": "ack", "session": session_id}

    def _query_strategy(self, session_id: str, session: Session, message: Mapping[str, Any]) -> dict[str, Any]:
        task = message.get("task")
        if not isinstance(task, str) or not task:
            return _error("query_strategy needs a task string", session_id)
        result = session.query(task)
        capacity, gaze, task_class = result.triple.as_labels()
        return {
            "kind": "strategy_response",
            "session": session_id,
            "negation": result.action.negation.value,
            "hesitation": result.action.hesitation.value,
            "state": result.state.value,
            "triple": [capacity, gaze, task_class],
        }

    def _task_performance(self, session_id: str, session: Session, message: Mapping[str, Any]) -> dict[str, Any]:
        if session.pending_task is None:
            return _error("no pending query", session_id)
        task = message.get("task")
        if task is not None and task != session.pending_task:
            return _error(
                f"task mismatch: pending {session.pending_task!r}, got {task!r}", session_id
            )
        performance = _parse_performance(message)
        record = session.complete(performance)
        return {
            "kind": "episode_result",
            "session": session_id,
            "episode": record.index,
            "reward": record.reward,
            "cumulative_reward": record.cumulative_reward,
        }

    def _close_session(self, session_id: str, session: Session, message: Mapping[str, Any]) -> dict[str, Any]:
        del self.sessions[session_id]
        session.abort_pending()
        return {"kind": "session_closed", "session": session_id}

    _HANDLERS = {
        "gaze_event": _gaze_event,
        "query_strategy": _query_strategy,
        "task_performance": _task_performance,
        "close_session": _close_session,
    }

    # -- timeout ---------------------------------------------------------

    def timeout_pending(self, session_id: str) -> dict[str, Any] | None:
        """Abort a query that never saw its task_performance.

        Returns the error line to push, or None when the session is gone or
        the query already resolved.
        """
        session = self.sessions.get(session_id)
        if session is None or session.abort_pending() is None:
            return None
        return _error("task_performance timeout", session_id)


def _parse_performance(message: Mapping[str, Any]) -> TaskPerformance:
    fields: dict[str, Any] = {}
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
        fields.update({f"{dimension}_ok": success, f"{dimension}_time": float(elapsed)})
    return TaskPerformance(**fields)


# Longest line content served; a longer line gets one "line too long" reply.
_LINE_LIMIT = 1 << 16
# Replies that end their session's pending query, and so stop its clock.
_DISARMING = ("episode_result", "session_closed")
# Replies are written and drained before their batch would pass this many
# bytes, so a client that never reads holds at most about twice this in the
# server's transport.
_FLUSH_BYTES = 1 << 16


class TcpServer:
    """Asyncio shell: line framing, reply serialisation, timeout clock."""

    def __init__(self, service: StrategyService, host: str, port: int):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        # Pending queries in deadline order, as the timeout is one constant.
        self._timers: OrderedDict[str, tuple[float, asyncio.StreamWriter]] = OrderedDict()
        self._clock: asyncio.TimerHandle | None = None
        # Live connections: handler task -> its writer, so close() can end them.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)

    @property
    def bound_port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._clock is not None:
            self._clock.cancel()
        self._timers.clear()
        self._server.close()
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()

    def _arm(self, session_id: str, writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.service.config.server.query_timeout
        self._timers.pop(session_id, None)  # a re-armed session goes to the back
        self._timers[session_id] = (deadline, writer)
        if self._clock is None:
            self._clock = loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        """Time out every query whose deadline has passed, then wait for the head."""
        loop = asyncio.get_running_loop()
        # asyncio may run a timer up to a clock tick early: what it ran for is due.
        now = max(loop.time(), self._clock.when())
        self._clock = None
        while self._timers:
            session_id, (deadline, writer) = next(iter(self._timers.items()))
            if deadline > now:
                self._clock = loop.call_at(deadline, self._expire)
                break
            del self._timers[session_id]
            reply = self.service.timeout_pending(session_id)
            if reply is not None:
                with contextlib.suppress(ConnectionError, RuntimeError):
                    writer.write(serialize(reply))

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        tail = b""  # the unfinished last line of the reads so far
        skipping = False  # inside an over-long line that has had its reply
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    # An unterminated final line is still a request.
                    if tail:
                        await self._answer([tail], writer)
                    break
                if skipping:
                    end = data.find(b"\n")
                    if end < 0:
                        continue
                    data, skipping = data[end + 1 :], False
                lines = (tail + data).split(b"\n")
                tail = lines.pop()
                if len(tail) > _LINE_LIMIT:
                    # Answer it now; the rest of it is skipped through its newline.
                    lines.append(tail)
                    tail, skipping = b"", True
                await self._answer(lines, writer)
        except ConnectionError:
            pass
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _answer(self, lines: list[bytes], writer: asyncio.StreamWriter) -> None:
        """Dispatch lines in order and send their replies, one write and one
        drain per batch of at most _FLUSH_BYTES (or of one larger reply)."""
        replies: list[bytes] = []
        pending = 0
        for line in lines:
            if len(line) > _LINE_LIMIT:
                reply = _error("line too long")
            else:
                reply = self.service.dispatch(line.decode("utf-8", errors="replace")).reply
            kind = reply["kind"]
            if kind in _DISARMING:
                self._timers.pop(reply["session"], None)
            data = serialize(reply)
            if replies and pending + len(data) > _FLUSH_BYTES:
                writer.write(b"".join(replies))
                await writer.drain()
                replies.clear()
                pending = 0
            replies.append(data)
            pending += len(data)
            # Armed once its reply is queued: a timeout error never overtakes it.
            if kind == "strategy_response":
                self._arm(reply["session"], writer)
        if replies:
            writer.write(b"".join(replies))
            await writer.drain()


async def serve(config: AppConfig, host: str, port: int) -> None:
    """Run the service until cancelled."""
    # asyncio reads each chunk into a new 256 KiB buffer.  Keep glibc from
    # mapping a fresh one per read, which costs a page fault per request.
    with contextlib.suppress(OSError, AttributeError, TypeError):
        ctypes.CDLL(None).mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
        ctypes.CDLL(None).mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
    server = TcpServer(StrategyService(config), host=host, port=port)
    await server.start()
    print(f"listening on {host}:{server.bound_port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()
