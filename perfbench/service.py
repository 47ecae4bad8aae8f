"""live_sessions and session_churn: the TCP service as partners use it.

Both start a fresh ``scaffolder serve --bind 127.0.0.1:0`` for every run:
session ids come from a per-server counter, so replaying a script on a reused
server would turn most lines into ``unknown session`` errors.

* live_sessions is a closed loop: two connections, each running one long
  session, send their next request only after the previous reply arrived.
  The sessions are opened in a fixed order, so their ids are known.  An
  episode is three ``gaze_event``s, a ``query_strategy`` and a
  ``task_performance``; sessions are never closed, so their records grow.
* session_churn is one pipelined connection streaming short sessions (open,
  one or two episodes, close) with a fixed share of ordinary protocol
  mistakes: unknown session, no pending query, task mismatch, target out of
  range.  Its throughput is measured with many lines in flight, its latency
  with one batch in flight at a time, in alternating half-second windows.
  The oversized-integer line is not in the mix: it drops the connection (a
  known defect, ROADMAP open item 3), which would end the run.

Correctness, all outside the timed loop: a fixed check script must produce
the committed reply digest over TCP; each connection's timed reply stream
must equal the replies an in-process ``StrategyService`` gives to the same
lines; and the count of every reply kind and error reason must equal what
the script implies.  Replies are read in bulk and only counted while timing.
"""

from __future__ import annotations

import hashlib
import json
import random
import select
import socket
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

from scaffolder import config as config_mod
from scaffolder import server as server_mod

from harness import (
    SETUP_SPAWNS,
    BenchError,
    Report,
    ServerProcess,
    Windows,
    percentile,
    server_setup_times,
    start_server,
    vm_hwm_mb,
)
from tracing import Tracer

TASKS = ("assemble-frame", "attach-wheel", "tighten-bolt", "fit-panel", "route-cable")
TARGETS = 3  # gaze targets of the default partner model
MISTAKES = ("unknown_session", "no_pending_query", "task_mismatch", "target_out_of_range")
MISTAKE_SESSION_SHARE = 0.5  # sessions in session_churn that carry one mistake
REPLY_KINDS = ("session_opened", "ack", "strategy_response", "episode_result", "session_closed", "error")
REASON_PREFIXES = {
    "unknown_session": b'"reason":"unknown session:',
    "no_pending_query": b'"reason":"no pending query"',
    "task_mismatch": b'"reason":"task mismatch:',
    "target_out_of_range": b'"reason":"target out of range"',
}

CHECK_LIVE_EPISODES = 20
CHECK_CHURN_SESSIONS = 20
FIRST_TIMED_SESSION = 2 + CHECK_CHURN_SESSIONS  # the check script opens 1 + 20 sessions

# live_sessions reads the server's peak RSS after this many replies, so the
# figure measures memory per amount of work, not how fast the run went.
RSS_AFTER_REPLIES = 100_000

CHURN_CHUNK = 32  # lines per write
CHURN_WINDOW = 256  # lines in flight at most while measuring throughput
# session_churn's measured time repeats PHASE_WINDOWS windows of 0.5 s: the
# first THROUGHPUT_WINDOWS pipelined, the rest one batch at a time.
PHASE_WINDOWS = 5
THROUGHPUT_WINDOWS = 3
POLL_TIMEOUT_MS = 30_000
DIGESTS = Path(__file__).resolve().parent / "digests.json"

OPEN = b'{"kind":"open_session"}\n'


def session_id(number: int) -> str:
    return f"s-{number:06d}"


# -- scripts -------------------------------------------------------------
# A script is a stream of (request line, expected reply kind) pairs; errors
# are "error:<mistake>".


def _gaze(sid: str, target: int) -> bytes:
    return f'{{"kind":"gaze_event","session":"{sid}","target":{target}}}\n'.encode()


def _query(sid: str, task: str) -> bytes:
    return f'{{"kind":"query_strategy","session":"{sid}","task":"{task}"}}\n'.encode()


def _performance(sid: str, task: str, rng: random.Random) -> bytes:
    parts = []
    for dimension in ("comprehension", "enabledness"):
        success = "true" if rng.random() < 0.6 else "false"
        parts.append(f'"{dimension}":{{"success":{success},"time":{round(rng.uniform(0.5, 12.0), 3)!r}}}')
    return f'{{"kind":"task_performance","session":"{sid}","task":"{task}",{",".join(parts)}}}\n'.encode()


def episode(sid: str, rng: random.Random, mistake: str | None = None, stale: str = "s-000000"):
    """One episode's lines; ``mistake`` inserts one erroneous line."""
    if mistake == "unknown_session":
        yield _gaze(stale, rng.randrange(TARGETS)), "error:unknown_session"
    for _ in range(3):
        yield _gaze(sid, rng.randrange(TARGETS)), "ack"
    if mistake == "target_out_of_range":
        yield _gaze(sid, TARGETS + rng.randrange(5)), "error:target_out_of_range"
    task = rng.choice(TASKS)
    if mistake == "no_pending_query":
        yield _performance(sid, task, rng), "error:no_pending_query"
    yield _query(sid, task), "strategy_response"
    if mistake == "task_mismatch":
        other = rng.choice([t for t in TASKS if t != task])
        yield _performance(sid, other, rng), "error:task_mismatch"
    yield _performance(sid, task, rng), "episode_result"


def live_script(seed: str, sid: str):
    """An endless single session (after its open line)."""
    rng = random.Random(seed)
    while True:
        yield from episode(sid, rng)


def churn_script(seed: str, first_session: int):
    """Endless short sessions numbered from ``first_session``."""
    rng = random.Random(seed)
    number = first_session
    stale = session_id(0)
    while True:
        sid = session_id(number)
        number += 1
        yield OPEN, "session_opened"
        episodes = rng.choice((1, 2))
        mistake = rng.choice(MISTAKES) if rng.random() < MISTAKE_SESSION_SHARE else None
        mistake_at = rng.randrange(episodes)
        for index in range(episodes):
            yield from episode(sid, rng, mistake if index == mistake_at else None, stale)
        yield f'{{"kind":"close_session","session":"{sid}"}}\n'.encode(), "session_closed"
        stale = sid


def check_script() -> list[tuple[bytes, str]]:
    """The fixed script whose replies have a committed digest (sessions 1..21)."""
    first = session_id(1)
    lines = [(OPEN, "session_opened")]
    live = live_script("check-live", first)
    lines += [next(live) for _ in range(5 * CHECK_LIVE_EPISODES)]
    lines.append((f'{{"kind":"close_session","session":"{first}"}}\n'.encode(), "session_closed"))
    sessions = 0
    for line, kind in churn_script("check-churn", 2):
        if kind == "session_opened":
            if sessions == CHECK_CHURN_SESSIONS:
                break
            sessions += 1
        lines.append((line, kind))
    return lines


# -- checks --------------------------------------------------------------


def mismatched_lines(actual: bytes, expected: bytes) -> int:
    """Reply lines that differ, plus lines missing on either side."""
    if actual == expected:
        return 0
    got, want = actual.splitlines(), expected.splitlines()
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def histogram_failures(replies: bytes, expected: Counter) -> int:
    """Distance between the reply-kind and error-reason counts and the script's."""
    actual = Counter()
    for kind in REPLY_KINDS:
        actual[kind] = replies.count(b'"kind":"%s"' % kind.encode())
    for mistake, prefix in REASON_PREFIXES.items():
        actual[f"error:{mistake}"] = replies.count(prefix)
    want = Counter()
    for kind, count in expected.items():
        want[kind] += count
        if kind.startswith("error:"):
            want["error"] += count
    return sum(abs(actual[k] - want[k]) for k in set(actual) | set(want))


def replay(streams: list[list[bytes]], service=None) -> list[bytes]:
    """Replies an in-process service gives to the same lines.

    The first line of every stream (its open_session) is dispatched first,
    in stream order, as the TCP clients do; the rest stream by stream.
    Sessions are independent, so interleaving does not change replies.
    """
    service = service if service is not None else server_mod.StrategyService(config_mod.load_config())
    serialize = server_mod.serialize
    out = [[serialize(service.dispatch(stream[0].decode()).reply)] for stream in streams]
    for stream, replies in zip(streams, out):
        dispatch = service.dispatch
        replies.extend(serialize(dispatch(line.decode()).reply) for line in stream[1:])
    return [b"".join(replies) for replies in out]


def check_replies(report: Report, lines: list[bytes], replies: bytes, expected: bytes, kinds: Counter, what: str) -> None:
    report.check(len(lines), mismatched_lines(replies, expected), f"{what}: replies differ from the in-process service")
    report.check(0, histogram_failures(replies, kinds), f"{what}: reply-kind histogram differs from the script")


def run_check_script(port: int, report: Report) -> None:
    """Send the fixed check script on its own connection and check its replies."""
    script = check_script()
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(b"".join(line for line, _ in script))
        compare_check_replies(report, _read_lines(sock, len(script)), "over TCP")


def compare_check_replies(report: Report, replies: bytes, where: str) -> None:
    """The check script's replies must match the committed digest and kinds."""
    script = check_script()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["service_check_script"]
    digest = hashlib.sha256(replies).hexdigest()
    report.check(len(script), int(digest != expected), f"check script {where}: reply digest {digest} != {expected}")
    kinds = Counter(kind for _, kind in script)
    report.check(0, histogram_failures(replies, kinds), f"check script {where}: reply kinds")


def _read_lines(sock: socket.socket, count: int) -> bytes:
    data = bytearray()
    sock.settimeout(POLL_TIMEOUT_MS / 1000)
    while data.count(b"\n") < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise BenchError("server closed the connection")
        data += chunk
    return bytes(data)


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# -- load generators -----------------------------------------------------


class Connection:
    """One closed-loop client connection and everything it sent and got."""

    def __init__(self, sock: socket.socket, script) -> None:
        self.sock = sock
        self.script = script
        self.sent: list[bytes] = []
        self.kinds: Counter = Counter()
        self.replies = bytearray()
        self.latency_ns = array("q")
        self.is_query = array("b")
        self.t_send = 0
        self.next = next(script)

    def send_next(self) -> None:
        line, kind = self.next
        self.sent.append(line)
        self.kinds[kind] += 1
        self.t_send = time.perf_counter_ns()
        self.sock.sendall(line)
        self.next = next(self.script)  # prepared while the reply is in flight


def closed_loop(port: int, seed: int, seconds: float, warmup_s: float, server_pid: int) -> dict:
    """live_sessions: two connections, each one session, one request in flight each."""
    conns = []
    for index in range(2):  # open in a fixed order so the session ids are known
        sock = _connect(port)
        sid = session_id(FIRST_TIMED_SESSION + index)
        conn = Connection(sock, live_script(f"live-{seed}-{index}", sid))
        conn.sent.append(OPEN)
        conn.kinds["session_opened"] += 1
        sock.sendall(OPEN)
        conn.replies += _read_lines(sock, 1)
        conns.append(conn)
    poller = select.poll()
    by_fd = {}
    for conn in conns:
        conn.sock.settimeout(None)
        poller.register(conn.sock.fileno(), select.POLLIN)
        by_fd[conn.sock.fileno()] = conn
    turnaround_ns = 0
    turnarounds = 0
    replies = 0
    rss_mb = None
    start = time.perf_counter_ns()
    measure_from = start + int(warmup_s * 1e9)
    deadline = measure_from + int(seconds * 1e9)
    windows = Windows(measure_from, deadline)
    cpu_start = time.process_time()
    for conn in conns:
        conn.send_next()
    active = len(conns)
    while active:
        events = poller.poll(POLL_TIMEOUT_MS)
        if not events:
            raise BenchError("no reply from the server within the poll timeout")
        for fd, _ in events:
            conn = by_fd[fd]
            data = conn.sock.recv(1 << 16)
            now = time.perf_counter_ns()
            if not data:
                raise BenchError("server closed the connection")
            conn.replies += data
            if conn.replies[-1] != 10:  # reply still partial
                continue
            replies += 1
            if replies == RSS_AFTER_REPLIES:
                rss_mb = vm_hwm_mb(server_pid)
            if now >= measure_from:
                windows.add(now, sample=now - conn.t_send)
                conn.latency_ns.append(now - conn.t_send)
                conn.is_query.append(conn.sent[-1].startswith(b'{"kind":"query_strategy"'))
            if now >= deadline:
                poller.unregister(fd)
                active -= 1
                continue
            conn.send_next()
            turnaround_ns += conn.t_send - now
            turnarounds += 1
    end = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu_start
    for conn in conns:
        conn.sock.close()
    measured = [v for conn in conns for v in conn.latency_ns]
    queries = [v for conn in conns for v, q in zip(conn.latency_ns, conn.is_query) if q]
    return {
        "streams": [(conn.sent, bytes(conn.replies), conn.kinds) for conn in conns],
        "latency_ns": measured,
        "p50_window_ns": windows.latency(50),
        "p90_window_ns": windows.latency(90),
        "p99_window_ns": windows.latency(99),
        "query_ns": queries,
        "rss_mb": rss_mb,
        "requests_per_s": windows.rate(),
        "windows": len(windows.counts),
        "cpu_share": cpu_s / ((end - start) / 1e9),
        "turnaround_us": turnaround_ns / max(turnarounds, 1) / 1e3,
    }


def pipelined(port: int, seed: int, seconds: float, warmup_s: float) -> dict:
    """session_churn: one connection streaming the churn script in two
    alternating phases, so that both figures sample the whole run.

    In the throughput phase up to CHURN_WINDOW lines are in flight, which
    gives lines_per_s.  In the latency phase one CHURN_CHUNK batch is in
    flight at a time, and each batch is timed from its write to its last
    reply, so the latency is the server's time for the batch rather than the
    client's queue depth.
    """
    sock = _connect(port)
    sock.setblocking(False)
    script = churn_script(f"churn-{seed}", FIRST_TIMED_SESSION)
    sent_chunks: list[bytes] = []
    kinds: Counter = Counter()
    replies: list[bytes] = []
    in_flight: list[tuple[int, int]] = []  # (line count when the chunk is answered, send time or -1)
    head = 0
    sent = received = 0
    outbuf = b""
    fd = sock.fileno()
    poller = select.poll()
    mask = select.POLLIN | select.POLLOUT
    poller.register(fd, mask)
    start = time.perf_counter_ns()
    measure_from = start + int(warmup_s * 1e9)
    deadline = measure_from + int(seconds * 1e9)
    rate = Windows(measure_from, deadline)
    latency = Windows(measure_from, deadline)

    def latency_phase(now: int) -> bool:
        return now >= measure_from and rate.index(now) % PHASE_WINDOWS >= THROUGHPUT_WINDOWS
    last_reply = start
    cpu_start = time.process_time()
    stopping = False
    while True:
        now = time.perf_counter_ns()
        stopping = stopping or now >= deadline
        if stopping and not outbuf and received == sent:
            break
        window = CHURN_CHUNK if latency_phase(now) else CHURN_WINDOW
        want = select.POLLIN
        if outbuf or (not stopping and sent - received + CHURN_CHUNK <= window):
            want |= select.POLLOUT
        if want != mask:
            poller.modify(fd, want)
            mask = want
        events = poller.poll(POLL_TIMEOUT_MS)
        if not events:
            raise BenchError("no reply from the server within the poll timeout")
        revents = events[0][1]
        if revents & select.POLLIN:
            data = sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            last_reply = time.perf_counter_ns()
            replies.append(data)
            count = data.count(b"\n")
            received += count
            if not latency_phase(last_reply):
                rate.add(last_reply, count)
            while head < len(in_flight) and in_flight[head][0] <= received:
                if in_flight[head][1] >= 0:  # filed by send time, so under its latency window
                    latency.add(in_flight[head][1], sample=last_reply - in_flight[head][1])
                head += 1
        elif revents & (select.POLLERR | select.POLLHUP):
            raise BenchError("connection to the server failed")
        if revents & select.POLLOUT:
            if not outbuf:
                lines = []
                for _ in range(CHURN_CHUNK):
                    line, kind = next(script)
                    lines.append(line)
                    kinds[kind] += 1
                outbuf = b"".join(lines)
                sent_chunks.append(outbuf)
                now = time.perf_counter_ns()
                idle = sent == received and latency_phase(now)
                sent += CHURN_CHUNK
                in_flight.append((sent, now if idle else -1))
            outbuf = outbuf[sock.send(outbuf):]
    cpu_s = time.process_time() - cpu_start
    sock.close()
    batches = [v for samples in latency.samples for v in samples]
    return {
        "streams": [(b"".join(sent_chunks).splitlines(keepends=True), b"".join(replies), kinds)],
        "latency_ns": batches,
        "p50_window_ns": latency.latency(50) if batches else None,
        "p90_window_ns": latency.latency(90) if batches else None,
        "latency_windows": sum(map(bool, latency.samples)),
        "lines_per_s": rate.rate(lambda index: index % PHASE_WINDOWS < THROUGHPUT_WINDOWS),
        "windows": sum(index % PHASE_WINDOWS < THROUGHPUT_WINDOWS for index in range(len(rate.counts))),
        "cpu_share": cpu_s / ((last_reply - start) / 1e9),
    }


# -- workloads -----------------------------------------------------------


def _warmup(seconds: float) -> float:
    return min(1.0, 0.1 * seconds)


def run_live(seed: int, seconds: float, report: Report) -> None:
    server, setup = start_server()
    with server:
        run_check_script(server.port, report)
        load = closed_loop(server.port, seed, seconds, _warmup(seconds), server.proc.pid)
        end_rss_mb = server.stop()
    setup += server_setup_times(SETUP_SPAWNS)
    rss_mb, rss_note = load["rss_mb"], f"server_peak_rss_mb after {RSS_AFTER_REPLIES} replies"
    if rss_mb is None:
        rss_mb, rss_note = end_rss_mb, "server_peak_rss_mb at the end: too few replies"
    check_against_replay(report, load["streams"])
    latency_us = [v / 1e3 for v in load["latency_ns"]]
    query_us = [v / 1e3 for v in load["query_ns"]]
    report.metric("setup_s", statistics.median(setup), "s", len(setup), "server spawn to listening")
    windows = f"slow quartile of {load['windows']} 0.5 s windows"
    report.metric("throughput_per_s", load["requests_per_s"], "1/s", load["windows"], f"requests_per_s, {windows}")
    report.metric("latency_p50_us", load["p50_window_ns"] / 1e3, "us", len(latency_us),
                  f"request_p50_us, each window's p50, {windows}")
    report.metric("latency_p90_us", load["p90_window_ns"] / 1e3, "us", len(latency_us),
                  f"request_p90_us, each window's p90, {windows}")
    report.show("request_p99_us", load["p99_window_ns"] / 1e3, "us", len(latency_us), f"each window's p99, {windows}")
    report.show("request_p50_us", statistics.median(latency_us), "us", len(latency_us), "over every request")
    report.metric("peak_rss_mb", rss_mb, "MB", None, rss_note)
    report.show("query_p99_us", percentile(query_us, 99), "us", len(query_us), "strategy_response only")
    report.tail("request", latency_us)
    report.tail("query", query_us)
    report.show("client.cpu_share", load["cpu_share"], "share")
    report.show("client.turnaround_us", load["turnaround_us"], "us")


def run_churn(seed: int, seconds: float, report: Report) -> None:
    server, setup = start_server()
    with server:
        run_check_script(server.port, report)
        load = pipelined(server.port, seed, seconds, _warmup(seconds))
        rss_mb = server.stop()
    setup += server_setup_times(SETUP_SPAWNS)
    if not load["latency_ns"]:
        raise BenchError("the run was too short for a latency phase")
    check_against_replay(report, load["streams"])
    latency_us = [v / 1e3 for v in load["latency_ns"]]
    report.metric("setup_s", statistics.median(setup), "s", len(setup), "server spawn to listening")
    report.metric("throughput_per_s", load["lines_per_s"], "1/s", load["windows"],
                  f"lines_per_s, slow quartile of {load['windows']} pipelined 0.5 s windows")
    batch = f"{CHURN_CHUNK}-line batch, one in flight"
    windows = f"slow quartile of {load['latency_windows']} one-batch 0.5 s windows"
    report.metric("latency_p50_us", load["p50_window_ns"] / 1e3, "us", len(latency_us), f"{batch}, each window's p50, {windows}")
    report.metric("latency_p90_us", load["p90_window_ns"] / 1e3, "us", len(latency_us), f"{batch}, each window's p90, {windows}")
    report.show("batch_p50_us", statistics.median(latency_us), "us", len(latency_us), "over every batch")
    report.metric("peak_rss_mb", rss_mb, "MB", None, "server_peak_rss_mb")
    report.tail("batch", latency_us)
    report.show("client.cpu_share", load["cpu_share"], "share")


def _checked_service(report: Report):
    """A fresh in-process service that has already answered the check script."""
    service = server_mod.StrategyService(config_mod.load_config())
    (replies,) = replay([[line for line, _ in check_script()]], service)
    compare_check_replies(report, replies, "in-process")
    return service


def check_against_replay(report: Report, streams) -> tuple[list[bytes], float, object]:
    """Replay each connection's lines in-process and compare the replies.

    Returns (expected replies per connection, replay seconds, the service).
    """
    service = _checked_service(report)
    start = time.perf_counter()
    expected = replay([lines for lines, _, _ in streams], service)
    elapsed = time.perf_counter() - start
    for index, ((lines, replies, kinds), want) in enumerate(zip(streams, expected)):
        check_replies(report, lines, replies, want, kinds, f"connection {index}")
    return expected, elapsed, service


def run_traced(workload: str, seed: int, seconds: float, report: Report, tracer: Tracer) -> dict[str, float]:
    """An untraced TCP pass, then its lines replayed in-process untraced and traced."""
    with ServerProcess() as server:
        run_check_script(server.port, report)
        if workload == "live_sessions":
            load = closed_loop(server.port, seed, 0.4 * seconds, _warmup(seconds), server.proc.pid)
            wire_us = statistics.median(load["latency_ns"]) / 1e3
        else:
            load = pipelined(server.port, seed, 0.4 * seconds, _warmup(seconds))
            wire_us = 1e6 / load["lines_per_s"]
    streams = [lines for lines, _, _ in load["streams"]]
    lines = sum(len(stream) for stream in streams)
    untraced, untraced_s, _ = check_against_replay(report, load["streams"])

    service = _checked_service(report)
    with tracer.installed():
        start = time.perf_counter()
        traced = replay(streams, service)
        traced_s = time.perf_counter() - start
    report.check(lines, sum(mismatched_lines(a, b) for a, b in zip(traced, untraced)), "traced replies differ")

    opened = sum(reply.count(b'"kind":"session_opened"') for reply in traced)
    extras = {
        "sessions": opened,
        "episodes": sum(reply.count(b'"kind":"episode_result"') for reply in traced),
        "session.records_held": sum(len(s.records) for s in service.sessions.values()),
        "server.transport_us": wire_us - untraced_s / lines * 1e6,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        "client.cpu_share": load["cpu_share"],
        "client.turnaround_us": load.get("turnaround_us", 0.0),
    }
    for mistake, prefix in REASON_PREFIXES.items():
        extras[f"server.error_replies.{mistake}"] = sum(reply.count(prefix) for reply in traced)
    return extras
