import asyncio
import contextlib
import json
import logging
import math
import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scaffolder.config import config_digest, load_config
from scaffolder.server import StrategyService, TcpServer, serialize

README = Path(__file__).parent.parent / "README.md"


def golden_config(data_dir):
    return load_config(data_dir / "golden_config.yaml")


@contextlib.asynccontextmanager
async def connected(config):
    """A fresh server and one client connection to it: (server, reader, writer)."""
    server = TcpServer(StrategyService(config), host="127.0.0.1", port=0)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
        try:
            yield server, reader, writer
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
    finally:
        await server.close()


async def raw_exchange(config, chunks):
    """Write each chunk of raw bytes, yielding to the loop between them, then
    EOF; returns every byte the server sent before it closed."""
    async with connected(config) as (_, reader, writer):
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0)
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=10)


async def tcp_exchange(config, lines, read_extra_after=None, settle=0.0):
    """Send lines over one connection; returns the raw reply lines.

    ``read_extra_after`` maps a 0-based request index to a number of extra
    pushed lines to read right after that request's reply (used for timeout
    errors), with ``settle`` seconds of sleep first.
    """
    replies = []
    async with connected(config) as (_, reader, writer):
        for index, line in enumerate(lines):
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
            replies.append(await asyncio.wait_for(reader.readline(), timeout=5))
            if read_extra_after and index in read_extra_after:
                await asyncio.sleep(settle)
                for _ in range(read_extra_after[index]):
                    replies.append(await asyncio.wait_for(reader.readline(), timeout=5))
    return replies


class TestGoldenTranscript:
    def test_replays_byte_identically(self, data_dir):
        requests = (data_dir / "golden_requests.ndjson").read_text().splitlines()
        expected = (data_dir / "golden_replies.ndjson").read_bytes()
        replies = asyncio.run(tcp_exchange(golden_config(data_dir), requests))
        assert b"".join(replies) == expected
        assert len(replies) == len(requests)

    def test_recorded_values_match_hand_derivation(self, data_dir):
        replies = [
            json.loads(line)
            for line in (data_dir / "golden_replies.ndjson").read_text().splitlines()
        ]
        opened = replies[0]
        assert opened["kind"] == "session_opened"
        assert opened["session"] == "s-000001"
        assert opened["config_digest"] == config_digest(golden_config(data_dir))

        first_strategy = replies[4]
        assert first_strategy["kind"] == "strategy_response"
        assert first_strategy["negation"] == "negation_affirmation"
        assert first_strategy["hesitation"] == "hesitation"
        assert first_strategy["state"] == "Unfocused"
        assert first_strategy["triple"] == ["high", "distracted", "unknown"]

        first_episode = replies[5]
        assert first_episode["reward"] == pytest.approx(
            (math.exp(-0.2) + math.exp(-0.4)) / 2, abs=1e-12
        )
        assert first_episode["episode"] == 1

        second_strategy = replies[6]
        assert second_strategy["negation"] == "negation"
        assert second_strategy["hesitation"] == "none"
        assert second_strategy["state"] == "DistractedMisinterpreter"
        assert second_strategy["triple"] == ["high", "distracted", "success"]

        assert replies[7] == {
            "kind": "error",
            "reason": "target out of range",
            "session": "s-000001",
        }
        assert replies[8]["reward"] == 0.0
        assert replies[9]["reason"] == "no pending query"
        assert replies[10]["kind"] == "session_closed"
        assert replies[11]["reason"].startswith("unknown session")

    def test_fresh_session_first_query_is_engaged_observer(self, data_dir):
        # No gaze events at all: the cold-start classification must route the
        # very first query to the affirmation strategy.
        service = StrategyService(golden_config(data_dir))
        opened = service.dispatch('{"kind":"open_session"}').reply
        reply = service.dispatch(
            json.dumps(
                {"kind": "query_strategy", "session": opened["session"], "task": "fresh"}
            )
        ).reply
        assert reply["negation"] == "affirmation"
        assert reply["hesitation"] == "none"
        assert reply["state"] == "EngagedObserver"
        assert reply["triple"] == ["high", "focused", "unknown"]


class TestProtocolValidation:
    @pytest.fixture()
    def service(self, data_dir):
        return StrategyService(golden_config(data_dir))

    def open(self, service):
        return service.dispatch('{"kind":"open_session"}').reply["session"]

    def test_every_line_yields_exactly_one_reply(self, service):
        lines = [
            '{"kind":"open_session"}',
            "garbage",
            '{"kind":"gaze_event","session":"s-000001","target":0}',
            "",
            '{"kind":"close_session","session":"s-000001"}',
        ]
        for line in lines:
            result = service.dispatch(line)
            assert isinstance(result.reply, dict)
            assert "kind" in result.reply

    def test_unknown_kind(self, service):
        reply = service.dispatch('{"kind":"telemetry"}').reply
        assert reply["kind"] == "error"
        assert "unknown kind" in reply["reason"]

    def test_missing_kind(self, service):
        reply = service.dispatch('{"session":"x"}').reply
        assert reply["reason"] == "missing kind"

    def test_missing_session(self, service):
        reply = service.dispatch('{"kind":"gaze_event","target":0}').reply
        assert reply["reason"] == "missing session"

    def test_unknown_session(self, service):
        reply = service.dispatch('{"kind":"gaze_event","session":"nope","target":0}').reply
        assert reply["kind"] == "error"
        assert "unknown session" in reply["reason"]

    def test_gaze_target_out_of_range(self, service):
        session = self.open(service)
        reply = service.dispatch(
            json.dumps({"kind": "gaze_event", "session": session, "target": 3})
        ).reply
        assert reply["reason"] == "target out of range"

    def test_gaze_target_wrong_type(self, service):
        session = self.open(service)
        for target in ("1", 1.5, True, None):
            reply = service.dispatch(
                json.dumps({"kind": "gaze_event", "session": session, "target": target})
            ).reply
            assert reply["kind"] == "error"

    def test_task_performance_without_query(self, service):
        session = self.open(service)
        reply = service.dispatch(
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": session,
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            )
        ).reply
        assert reply["reason"] == "no pending query"

    def test_double_query_rejected(self, service):
        session = self.open(service)
        service.dispatch(
            json.dumps({"kind": "query_strategy", "session": session, "task": "t"})
        )
        reply = service.dispatch(
            json.dumps({"kind": "query_strategy", "session": session, "task": "t"})
        ).reply
        assert reply["kind"] == "error"
        assert "pending" in reply["reason"]

    def test_task_mismatch_rejected(self, service):
        session = self.open(service)
        service.dispatch(
            json.dumps({"kind": "query_strategy", "session": session, "task": "a"})
        )
        reply = service.dispatch(
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": session,
                    "task": "b",
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            )
        ).reply
        assert reply["kind"] == "error"
        assert "task mismatch" in reply["reason"]

    def test_bad_performance_payload_rejected(self, service):
        session = self.open(service)
        service.dispatch(
            json.dumps({"kind": "query_strategy", "session": session, "task": "t"})
        )
        bad_payloads = [
            {"comprehension": {"success": True, "time": -1.0}},
            {"comprehension": {"success": "yes", "time": 1.0}},
            {"comprehension": None},
            {},
        ]
        for bad in bad_payloads:
            message = {
                "kind": "task_performance",
                "session": session,
                "enabledness": {"success": True, "time": 1.0},
            }
            message.update(bad)
            reply = service.dispatch(json.dumps(message)).reply
            assert reply["kind"] == "error"
        # the pending query is still answerable after bad attempts
        good = service.dispatch(
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": session,
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            )
        ).reply
        assert good["kind"] == "episode_result"

    def test_oversized_integer_time_rejected(self, service):
        session = self.open(service)
        service.dispatch(json.dumps({"kind": "query_strategy", "session": session, "task": "t"}))
        huge = json.dumps(
            {
                "kind": "task_performance",
                "session": session,
                "comprehension": {"success": True, "time": 10**400},
                "enabledness": {"success": True, "time": 1.0},
            }
        )
        reply = service.dispatch(huge).reply
        assert reply["kind"] == "error"
        assert reply["session"] == session
        # the query is still pending and answerable
        good = service.dispatch(
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": session,
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            )
        ).reply
        assert good["kind"] == "episode_result"
        assert good["episode"] == 1

    def test_readme_request_table_matches_the_handlers(self, service):
        # README's wire-protocol table names each request kind and its success reply.
        section = README.read_text(encoding="utf-8").split("## Wire protocol", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for row in section.splitlines():
            if row.startswith("| `"):
                cells = row.strip("|").split("|")
                documented[cells[0].strip().strip("`")] = re.match(r"`(\w+)`", cells[-1].strip()).group(1)
        assert set(documented) == {"open_session", *StrategyService._HANDLERS}
        served = {
            json.loads(line)["kind"]: service.dispatch(line.decode()).reply["kind"]
            for line in (OPEN, GAZE, QUERY, PERFORMANCE, CLOSE)
        }
        assert documented == served

    def test_close_unknown_session(self, service):
        reply = service.dispatch('{"kind":"close_session","session":"s-9"}').reply
        assert reply["kind"] == "error"

    def test_session_ids_are_sequential(self, service):
        assert self.open(service) == "s-000001"
        assert self.open(service) == "s-000002"
        assert self.open(service) == "s-000003"


class TestSessionIsolation:
    def interleaved_replies(self, config):
        service = StrategyService(config)
        first = service.dispatch('{"kind":"open_session"}').reply["session"]
        second = service.dispatch('{"kind":"open_session"}').reply["session"]
        streams = {first: [], second: []}
        plan = [
            (first, {"kind": "gaze_event", "target": 0}),
            (second, {"kind": "gaze_event", "target": 1}),
            (first, {"kind": "gaze_event", "target": 1}),
            (first, {"kind": "query_strategy", "task": "t"}),
            (second, {"kind": "query_strategy", "task": "t"}),
            (
                first,
                {
                    "kind": "task_performance",
                    "task": "t",
                    "comprehension": {"success": True, "time": 2.0},
                    "enabledness": {"success": False, "time": 3.0},
                },
            ),
            (second, {"kind": "gaze_event", "target": 1}),
            (
                second,
                {
                    "kind": "task_performance",
                    "task": "t",
                    "comprehension": {"success": False, "time": 1.0},
                    "enabledness": {"success": False, "time": 1.0},
                },
            ),
            (first, {"kind": "query_strategy", "task": "t"}),
            (second, {"kind": "query_strategy", "task": "t"}),
        ]
        for session, body in plan:
            message = dict(body, session=session)
            streams[session].append((body, service.dispatch(json.dumps(message)).reply))
        return first, second, streams

    def solo_replies(self, config, script):
        service = StrategyService(config)
        session = service.dispatch('{"kind":"open_session"}').reply["session"]
        out = []
        for body, _ in script:
            message = dict(body, session=session)
            out.append(service.dispatch(json.dumps(message)).reply)
        return session, out

    @staticmethod
    def normalize(reply, session):
        clone = dict(reply)
        if clone.get("session") == session:
            clone["session"] = "S"
        return clone

    def test_interleaving_matches_solo_runs(self, data_dir):
        config = golden_config(data_dir)
        first, second, streams = self.interleaved_replies(config)
        for session_id in (first, second):
            solo_id, solo = self.solo_replies(config, streams[session_id])
            interleaved = [reply for _, reply in streams[session_id]]
            got = [self.normalize(r, session_id) for r in interleaved]
            want = [self.normalize(r, solo_id) for r in solo]
            assert got == want

    def test_sessions_shared_across_connections(self, data_dir):
        async def scenario():
            config = golden_config(data_dir)
            service = StrategyService(config)
            server = TcpServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                r1, w1 = await asyncio.open_connection("127.0.0.1", server.bound_port)
                r2, w2 = await asyncio.open_connection("127.0.0.1", server.bound_port)
                try:
                    w1.write(b'{"kind":"open_session"}\n')
                    await w1.drain()
                    opened = json.loads(await r1.readline())
                    session = opened["session"]
                    # a different connection may drive the same session
                    w2.write(
                        json.dumps(
                            {"kind": "gaze_event", "session": session, "target": 0}
                        ).encode()
                        + b"\n"
                    )
                    await w2.drain()
                    ack = json.loads(await r2.readline())
                    assert ack == {"kind": "ack", "session": session}
                finally:
                    for writer in (w1, w2):
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except ConnectionError:
                            pass
            finally:
                await server.close()

        asyncio.run(scenario())


class TestTimeout:
    def test_query_times_out_with_error_push_and_no_update(self, data_dir):
        config = load_config(
            data_dir / "golden_config.yaml",
            overrides={"server": {"query_timeout": 0.05}},
        )
        lines = [
            '{"kind":"open_session"}',
            '{"kind":"query_strategy","session":"s-000001","task":"t"}',
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": "s-000001",
                    "task": "t",
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            ),
            '{"kind":"query_strategy","session":"s-000001","task":"t"}',
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": "s-000001",
                    "task": "t",
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            ),
        ]
        replies = asyncio.run(
            tcp_exchange(config, lines, read_extra_after={1: 1}, settle=0.3)
        )
        parsed = [json.loads(r) for r in replies]
        assert parsed[1]["kind"] == "strategy_response"
        # pushed timeout error after the strategy_response
        assert parsed[2] == {
            "kind": "error",
            "reason": "task_performance timeout",
            "session": "s-000001",
        }
        # the late task_performance finds no pending query
        assert parsed[3]["reason"] == "no pending query"
        # the timed-out episode was recorded: the next completed one is #2
        assert parsed[4]["kind"] == "strategy_response"
        assert parsed[5]["kind"] == "episode_result"
        assert parsed[5]["episode"] == 2

    def test_answered_query_does_not_fire_timer(self, data_dir):
        config = load_config(
            data_dir / "golden_config.yaml",
            overrides={"server": {"query_timeout": 0.05}},
        )
        lines = [
            '{"kind":"open_session"}',
            '{"kind":"query_strategy","session":"s-000001","task":"t"}',
            json.dumps(
                {
                    "kind": "task_performance",
                    "session": "s-000001",
                    "task": "t",
                    "comprehension": {"success": True, "time": 1.0},
                    "enabledness": {"success": True, "time": 1.0},
                }
            ),
            '{"kind":"gaze_event","session":"s-000001","target":0}',
        ]

        async def scenario():
            replies = await tcp_exchange(config, lines, read_extra_after={3: 0}, settle=0.2)
            return replies

        parsed = [json.loads(r) for r in asyncio.run(scenario())]
        assert parsed[2]["kind"] == "episode_result"
        assert parsed[3] == {"kind": "ack", "session": "s-000001"}

    def test_pending_queries_share_one_clock(self, data_dir):
        count = 20

        async def scenario():
            loop = asyncio.get_running_loop()
            scheduled = []
            call_at = loop.call_at

            # call_later schedules through call_at, so this sees every timer.
            def recording_call_at(when, callback, *args, **kwargs):
                handle = call_at(when, callback, *args, **kwargs)
                scheduled.append((getattr(callback, "__self__", None), handle))
                return handle

            loop.call_at = recording_call_at
            async with connected(golden_config(data_dir)) as (server, reader, writer):
                writer.write(b"".join(OPEN + b"\n" + for_session(QUERY, n) + b"\n" for n in range(1, count + 1)))
                replies = [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(2 * count)]
                pending = len(server._timers)
                writer.write(b"".join(for_session(PERFORMANCE, n) + b"\n" for n in range(1, count + 1)))
                replies += [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(count)]
                answered = len(server._timers)
            armed = {id(handle) for owner, handle in scheduled if owner is server}
            return replies, pending, answered, len(armed)

        replies, pending, answered, armed = asyncio.run(scenario())
        kinds = [json.loads(reply)["kind"] for reply in replies]
        assert kinds == ["session_opened", "strategy_response"] * count + ["episode_result"] * count
        assert (pending, answered) == (count, 0)
        assert armed == 1

    @pytest.mark.parametrize(
        "requests, expired",
        [
            ([("query", 1), ("query", 2)], [1, 2]),
            # Answered and queried again, s-000001 moves behind s-000002.
            ([("query", 1), ("query", 2), ("performance", 1), ("query", 1)], [2, 1]),
        ],
    )
    @pytest.mark.parametrize("gap", [0.0, 0.05])
    def test_queries_time_out_in_the_order_made(self, data_dir, requests, expired, gap):
        """Requests ``gap`` seconds apart make the clock wake for each head in turn."""
        config = load_config(data_dir / "golden_config.yaml", overrides={"server": {"query_timeout": 0.2}})

        async def scenario():
            async with connected(config) as (_, reader, writer):
                writer.write(OPEN + b"\n" + OPEN + b"\n")
                for name, n in requests:
                    writer.write(for_session(TIMED_REQUESTS[name][0], n) + b"\n")
                    await asyncio.sleep(gap)
                lines = [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(len(requests) + 4)]
            return [json.loads(line) for line in lines]

        replies = asyncio.run(scenario())
        assert [reply["kind"] for reply in replies[: len(requests) + 2]] == [
            "session_opened",
            "session_opened",
            *(TIMED_REQUESTS[name][1] for name, _ in requests),
        ]
        assert replies[len(requests) + 2 :] == [
            {"kind": "error", "reason": "task_performance timeout", "session": f"s-{n:06d}"} for n in expired
        ]

    def test_close_cancels_the_clock(self, data_dir):
        async def scenario():
            server = TcpServer(StrategyService(short_timeout_config(data_dir)), host="127.0.0.1", port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
            writer.write(OPEN + b"\n" + QUERY + b"\n")
            replies = [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(2)]
            clock = server._clock
            await server.close()
            await asyncio.sleep(0.2)
            tail = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            session = server.service.sessions["s-000001"]
            return replies, clock.cancelled(), dict(server._timers), session.pending_task, tail

        replies, cancelled, timers, pending_task, tail = asyncio.run(scenario())
        assert [json.loads(reply)["kind"] for reply in replies] == ["session_opened", "strategy_response"]
        assert cancelled
        assert timers == {}
        # The query was never timed out: its session still waits for it.
        assert pending_task == "t"
        assert tail == b""

    def test_rearmed_session_moves_behind_the_others(self, data_dir):
        # A session re-queried from another connection while its query still
        # waits to be armed is armed twice with no disarm between; it must
        # take the newest deadline and writer at the back of the queue.
        async def scenario():
            server = TcpServer(StrategyService(short_timeout_config(data_dir)), host="127.0.0.1", port=0)
            first, other, newer = object(), object(), object()
            server._arm("s1", first)
            server._arm("s2", other)
            server._arm("s1", newer)
            timers = dict(server._timers)
            server._clock.cancel()
            return list(timers), timers["s1"][1] is newer, [deadline for deadline, _ in timers.values()]

        order, newer_held, deadlines = asyncio.run(scenario())
        assert order == ["s2", "s1"]
        assert newer_held
        assert deadlines == sorted(deadlines)


def junk_lines(count, seed):
    """Deterministic stream of hostile lines: random text, broken JSON,
    wrong-shaped but valid JSON, binary noise."""
    rng = random.Random(seed)
    charset = string.printable.replace("\n", "").replace("\r", "")
    templates = [
        lambda: "".join(rng.choice(charset) for _ in range(rng.randrange(0, 60))),
        lambda: '{"kind": %d}' % rng.randrange(1000),
        lambda: '{"kind": "gaze_event"}',
        lambda: '{"kind": "gaze_event", "session": 42, "target": 0}',
        lambda: '{"kind": "query_strategy", "session": "s-000001"}',
        lambda: '{"kind": "open_session"',
        lambda: json.dumps(rng.randrange(10**6)),
        lambda: json.dumps([rng.random() for _ in range(3)]),
        lambda: '{"session": "s-000001", "target": 0}',
        lambda: "[" * rng.randrange(1, 40) + "]" * rng.randrange(0, 3),
        lambda: '"' + "\\u00ff" * rng.randrange(1, 10),
        lambda: "null",
        lambda: '{"kind": "task_performance", "session": "s-000001"}',
        # past the interpreter's int-string limit: json.loads raises a plain ValueError
        lambda: '{"kind": "gaze_event", "session": "s-000001", "target": %s}'
        % ("9" * rng.randrange(4301, 5000)),
    ]
    for _ in range(count):
        yield rng.choice(templates)()


class TestFuzz:
    def test_direct_dispatch_survives_junk(self, data_dir):
        service = StrategyService(golden_config(data_dir))
        total = 0
        for line in junk_lines(20_000, seed=1234):
            reply = service.dispatch(line).reply
            assert reply["kind"] == "error", line
            total += 1
        assert total == 20_000

    def test_socket_fuzz_connection_survives(self, data_dir):
        lines = list(junk_lines(1_000, seed=99)) + ['{"kind":"open_session"}']

        async def scenario():
            return await tcp_exchange(golden_config(data_dir), lines)

        replies = asyncio.run(scenario())
        assert len(replies) == len(lines)
        parsed = [json.loads(r) for r in replies]
        assert all(r["kind"] == "error" for r in parsed[:-1])
        # after a thousand hostile lines the service still works
        assert parsed[-1]["kind"] == "session_opened"

    def test_oversized_integer_keeps_connection(self, data_dir):
        lines = [
            '{"kind":"open_session"}',
            '{"kind":"query_strategy","session":"s-000001","task":"t"}',
            '{"kind":"task_performance","session":"s-000001",'
            '"comprehension":{"success":true,"time":' + "9" * 400 + "},"
            '"enabledness":{"success":true,"time":1.0}}',
            '{"kind":"close_session","session":"s-000001"}',
        ]

        async def scenario():
            return await tcp_exchange(golden_config(data_dir), lines)

        replies = [json.loads(r) for r in asyncio.run(scenario())]
        kinds = [reply["kind"] for reply in replies]
        assert kinds == ["session_opened", "strategy_response", "error", "session_closed"]

    def test_deep_nesting_handled(self, data_dir):
        service = StrategyService(golden_config(data_dir))
        reply = service.dispatch("[" * 100_000).reply
        assert reply["kind"] == "error"


LINE_LIMIT = 1 << 16
OPEN = b'{"kind":"open_session"}'
TOO_LONG = ("error", "line too long")
EMPTY = ("error", "empty line")


def padded_open(size):
    """An open_session line whose content is exactly ``size`` bytes."""
    head = b'{"kind":"open_session","pad":"'
    return head + b"x" * (size - len(head) - 2) + b'"}'


class TestLineFraming:
    def test_oversized_line_gets_one_reply(self, data_dir):
        pad = "x" * 1_000_000
        huge = '{"kind":"gaze_event","session":"s-000001","target":0,"pad":"' + pad + '"}'
        lines = ['{"kind":"open_session"}', huge, '{"kind":"close_session","session":"s-000001"}']
        payload = "".join(line + "\n" for line in lines).encode("utf-8")

        received = asyncio.run(raw_exchange(golden_config(data_dir), [payload]))
        replies = [json.loads(line) for line in received.splitlines()]
        assert [reply["kind"] for reply in replies] == ["session_opened", "error", "session_closed"]
        assert replies[1]["reason"] == "line too long"

    @pytest.mark.parametrize(
        "payload, expected",
        [
            pytest.param(padded_open(LINE_LIMIT) + b"\n", [("session_opened", None)], id="at-limit"),
            pytest.param(padded_open(LINE_LIMIT + 1) + b"\n", [TOO_LONG], id="one-over-limit"),
            pytest.param(
                b"x" * 70_000 + b"\n" + OPEN + b"\n",
                [TOO_LONG, ("session_opened", None)],
                id="too-long-then-valid",
            ),
            pytest.param(
                b"y" * 200_000 + b"\n" + padded_open(LINE_LIMIT + 1) + b"\n",
                [TOO_LONG, TOO_LONG],
                id="two-too-long",
            ),
            pytest.param(OPEN, [("session_opened", None)], id="unterminated-final-line"),
            pytest.param(
                OPEN + b"\n" + padded_open(LINE_LIMIT + 1),
                [("session_opened", None), TOO_LONG],
                id="unterminated-too-long",
            ),
            pytest.param(b"\r\n\n\r\n", [EMPTY, EMPTY, EMPTY], id="crlf-and-blank"),
            pytest.param(b"\xff\xfe" + OPEN + b"\n", [("error", "malformed json")], id="undecodable"),
        ],
    )
    def test_framing_edge_cases(self, data_dir, payload, expected):
        received = asyncio.run(raw_exchange(golden_config(data_dir), [payload]))
        replies = [json.loads(line) for line in received.splitlines()]
        assert [reply["kind"] for reply in replies] == [kind for kind, _ in expected]
        for reply, (_, reason) in zip(replies, expected):
            if reason is not None:
                assert reply["reason"].startswith(reason)


QUERY = b'{"kind":"query_strategy","session":"s-000001","task":"t"}'
CLOSE = b'{"kind":"close_session","session":"s-000001"}'
GAZE = b'{"kind":"gaze_event","session":"s-000001","target":0}'
PERFORMANCE = json.dumps(
    {
        "kind": "task_performance",
        "session": "s-000001",
        "task": "t",
        "comprehension": {"success": True, "time": 1.0},
        "enabledness": {"success": True, "time": 1.0},
    }
).encode("utf-8")


TIMED_REQUESTS = {"query": (QUERY, "strategy_response"), "performance": (PERFORMANCE, "episode_result")}


def for_session(line, number):
    """One of the s-000001 requests above, sent for session ``number``."""
    return line.replace(b"s-000001", f"s-{number:06d}".encode())


def short_timeout_config(data_dir):
    return load_config(data_dir / "golden_config.yaml", overrides={"server": {"query_timeout": 0.05}})


def performance_with(**fields):
    """PERFORMANCE with some of its fields replaced."""
    return json.dumps({**json.loads(PERFORMANCE), **fields}).encode("utf-8")


class TestClockRules:
    """Which replies start a session's query clock, which stop it, and which leave it."""

    @staticmethod
    def timers_around(data_dir, script, probe):
        """Send ``script``, then ``probe``: the server's timers before and after
        the probe's reply, that reply, and the loop time the probe was sent at."""

        async def scenario():
            async with connected(golden_config(data_dir)) as (server, reader, writer):
                writer.write(b"".join(line + b"\n" for line in script))
                for _ in script:
                    await asyncio.wait_for(reader.readline(), timeout=5)
                # Let the clock move on, so a re-armed deadline differs from the held one.
                await asyncio.sleep(0.01)
                before, sent = dict(server._timers), asyncio.get_running_loop().time()
                writer.write(probe + b"\n")
                reply = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                return before, dict(server._timers), reply, sent

        return asyncio.run(scenario())

    def test_strategy_response_arms_its_session(self, data_dir):
        before, after, reply, sent = self.timers_around(data_dir, [OPEN], QUERY)
        assert reply["kind"] == "strategy_response"
        assert before == {}
        assert list(after) == ["s-000001"]
        assert after["s-000001"][0] >= sent + golden_config(data_dir).server.query_timeout

    @pytest.mark.parametrize(
        "probe, kind",
        [(PERFORMANCE, "episode_result"), (CLOSE, "session_closed")],
        ids=["episode_result", "session_closed"],
    )
    def test_answer_or_close_disarms_its_session(self, data_dir, probe, kind):
        before, after, reply, _ = self.timers_around(data_dir, [OPEN, QUERY], probe)
        assert reply["kind"] == kind
        assert list(before) == ["s-000001"]
        assert after == {}

    @pytest.mark.parametrize(
        "probe, reason",
        [
            (QUERY, "query already pending"),
            (performance_with(task="other"), "task mismatch"),
            (performance_with(comprehension=None), "invalid message"),
            (GAZE, None),
            (b'{"kind":"close_session","session":"s-000009"}', "unknown session"),
            (b"x" * (LINE_LIMIT + 1), "line too long"),
        ],
        ids=["second_query", "task_mismatch", "bad_payload", "gaze_event", "close_unknown", "too_long"],
    )
    def test_other_replies_keep_the_deadline(self, data_dir, probe, reason):
        before, after, reply, _ = self.timers_around(data_dir, [OPEN, QUERY], probe)
        assert reply["kind"] == ("ack" if reason is None else "error")
        if reason is not None:
            assert reply["reason"].startswith(reason)
        assert list(before) == ["s-000001"]
        assert after == before


class TestPipelining:
    def test_golden_transcript_in_one_write(self, data_dir):
        requests = (data_dir / "golden_requests.ndjson").read_bytes()
        expected = (data_dir / "golden_replies.ndjson").read_bytes()
        assert asyncio.run(raw_exchange(golden_config(data_dir), [requests])) == expected

    def test_golden_transcript_dribbled(self, data_dir):
        requests = (data_dir / "golden_requests.ndjson").read_bytes()
        expected = (data_dir / "golden_replies.ndjson").read_bytes()
        rng = random.Random(14)
        chunks, start = [], 0
        while start < len(requests):
            end = start + rng.randint(1, 7)
            chunks.append(requests[start:end])
            start = end
        assert asyncio.run(raw_exchange(golden_config(data_dir), chunks)) == expected

    def test_query_answered_in_the_same_write_fires_no_timeout(self, data_dir):
        async def scenario():
            async with connected(short_timeout_config(data_dir)) as (server, reader, writer):
                writer.write(OPEN + b"\n" + QUERY + b"\n" + PERFORMANCE + b"\n")
                replies = [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(3)]
                await asyncio.sleep(0.2)
                timers = dict(server._timers)
                writer.write_eof()
                rest = await asyncio.wait_for(reader.read(), timeout=5)
                return replies, timers, rest

        replies, timers, rest = asyncio.run(scenario())
        kinds = [json.loads(reply)["kind"] for reply in replies]
        assert kinds == ["session_opened", "strategy_response", "episode_result"]
        assert timers == {}
        assert rest == b""

    def test_query_ending_a_write_times_out(self, data_dir):
        async def scenario():
            async with connected(short_timeout_config(data_dir)) as (_, reader, writer):
                writer.write(OPEN + b"\n" + QUERY + b"\n")
                return [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(3)]

        replies = [json.loads(reply) for reply in asyncio.run(scenario())]
        assert [reply["kind"] for reply in replies] == ["session_opened", "strategy_response", "error"]
        assert replies[2] == {"kind": "error", "reason": "task_performance timeout", "session": "s-000001"}


class TestBackpressure:
    def test_unread_replies_stay_bounded(self, data_dir):
        lines = 1 << 20
        reply = serialize({"kind": "error", "reason": "empty line"})

        async def scenario():
            async with connected(golden_config(data_dir)) as (server, reader, writer):
                # The client transport keeps what the stalled server does not take.
                writer.write(b"\n" * lines)
                peak, samples_after_stall = 0, 0
                for _ in range(1000):
                    await asyncio.sleep(0.005)
                    for conn in server._connections.values():
                        peak = max(peak, conn.transport.get_write_buffer_size())
                    # Past the high-water mark the server has stopped in drain().
                    if peak > 64 << 10:
                        samples_after_stall += 1
                        if samples_after_stall == 20:
                            break
                writer.write_eof()
                received = 0
                while chunk := await asyncio.wait_for(reader.read(1 << 16), timeout=30):
                    received += len(chunk)
                return peak, received

        peak, received = asyncio.run(scenario())
        assert 64 << 10 < peak <= 128 << 10
        assert received == lines * len(reply)

    def test_one_write_answers_a_batch(self, data_dir, monkeypatch):
        calls = []
        write = asyncio.StreamWriter.write

        def counting_write(self, data):
            calls.append(self)
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        gaze = b'{"kind":"gaze_event","session":"s-000001","target":0}\n'

        async def scenario():
            async with connected(golden_config(data_dir)) as (_, reader, writer):
                writer.write(OPEN + b"\n" + gaze * 99)
                replies = [await asyncio.wait_for(reader.readline(), timeout=5) for _ in range(100)]
                return replies, sum(1 for caller in calls if caller is not writer)

        replies, server_writes = asyncio.run(scenario())
        assert [json.loads(reply)["kind"] for reply in replies] == ["session_opened"] + ["ack"] * 99
        assert server_writes <= 4


class TestShutdown:
    def test_close_ends_live_connections(self, data_dir, caplog):
        async def scenario():
            server = TcpServer(StrategyService(golden_config(data_dir)), host="127.0.0.1", port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
            writer.write(b'{"kind":"open_session"}\n')
            await writer.drain()
            opened = await asyncio.wait_for(reader.readline(), timeout=5)
            await server.close()
            # The client is still connected: close() must end its handler.
            tail = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            return opened, tail

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            opened, tail = asyncio.run(scenario())
        assert json.loads(opened)["kind"] == "session_opened"
        assert tail == b""
        assert [record.getMessage() for record in caplog.records] == []


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e308, 5e-324]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80)),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)
REPLY_SHAPED = st.dictionaries(
    st.sampled_from(["kind", "session", "reason", "episode", "reward", "cumulative_reward", "triple"])
    | st.text(),
    JSON_VALUES,
    max_size=8,
)


class TestSerialization:
    def test_replies_are_canonical_json_lines(self, data_dir):
        service = StrategyService(golden_config(data_dir))
        reply = service.dispatch('{"kind":"open_session"}').reply
        raw = serialize(reply)
        assert raw.endswith(b"\n")
        decoded = json.loads(raw)
        assert decoded == reply
        assert raw == serialize(decoded)

    @given(message=REPLY_SHAPED)
    def test_matches_json_dumps(self, message):
        expected = json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
        assert serialize(message) == expected.encode("utf-8")
