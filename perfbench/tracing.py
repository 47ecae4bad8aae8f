"""Span tracing from outside the package, for the benchmark's traced run.

Public functions are wrapped at the attribute the caller looks them up
through: a module that did ``from .scoring import reduce_observation`` holds
its own reference, so that module's attribute is the one wrapped.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.

A name that no longer exists after a refactor is skipped and reports zero
calls, so code that stops calling a layer shows up as a falling count.
"""

from __future__ import annotations

import importlib
import types
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# (owner, attribute, span name).  The owner is a module, "module:Class", or
# "module:json" for the json module object a module imported.
TARGETS = (
    ("scaffolder.scoring", "reduce_observation", "scoring.reduce_observation"),
    ("scaffolder.simulation", "reduce_observation", "scoring.reduce_observation"),
    ("scaffolder.session", "reduce_observation", "scoring.reduce_observation"),
    ("scaffolder.simulation", "ground_truth_map", "scoring.ground_truth_map"),
    ("scaffolder.server", "ground_truth_map", "scoring.ground_truth_map"),
    ("scaffolder.simulation", "default_scoring_table", "scoring.default_scoring_table"),
    ("scaffolder.config", "default_scoring_table", "scoring.default_scoring_table"),
    ("scaffolder.policy:QTable", "select_action", "policy.select_action"),
    ("scaffolder.policy:QTable", "update", "policy.update"),
    ("scaffolder.simulation", "init_from_scoring", "policy.init_from_scoring"),
    ("scaffolder.server", "init_from_scoring", "policy.init_from_scoring"),
    ("scaffolder.simulation", "run_simulation", "simulation.run_simulation"),
    ("scaffolder.simulation", "make_user", "simulation.make_user"),
    ("scaffolder.simulation", "simulate_outcome", "simulation.simulate_outcome"),
    ("scaffolder.partner_model:PartnerModel", "apply_gaze", "partner_model.apply_gaze"),
    ("scaffolder.partner_model:PartnerModel", "classify", "partner_model.classify"),
    ("scaffolder.session:Session", "query", "session.query"),
    ("scaffolder.session:Session", "complete", "session.complete"),
    ("scaffolder.server:StrategyService", "dispatch", "server.dispatch"),
    ("scaffolder.server", "serialize", "server.serialize"),
    ("scaffolder.server:json", "loads", "server.json_decode"),
    ("scaffolder.config", "load_config", "config.load_config"),
    ("scaffolder.config:AppConfig", "scoring_table", "config.scoring_table"),
    ("scaffolder.config", "config_digest", "config.config_digest"),
    ("scaffolder.server", "config_digest", "config.config_digest"),
)

# Reply kind -> request kind, so a dispatch span is named after what it served.
DISPATCH_KINDS = {
    "session_opened": "open_session",
    "ack": "gaze_event",
    "strategy_response": "query_strategy",
    "episode_result": "task_performance",
    "session_closed": "close_session",
    "error": "error",
}

# Run set-up share: time from a run's start to its first action selection.
LEAD = ("simulation.run_simulation", "policy.select_action")

MAX_SPANS = 100_000


class Tracer:
    """Per-name call counts, total and self time, plus the first spans kept."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.missing: list[str] = []
        self.max_spans = max_spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self.lead_ns = 0
        self.lead_total_ns = 0
        self._stack: list[list[int]] = []
        self._lead_parent = self.name_id(LEAD[0])
        self._lead_child = self.name_id(LEAD[1])

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def stats(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) for one span name; zeros if never seen."""
        index = self._ids.get(name)
        if index is None:
            return 0, 0, 0
        return self.calls[index], self.total_ns[index], self.self_ns[index]

    def wrap(self, function, name: str):
        """A traced stand-in for ``function``."""
        base = self.name_id(name)
        renames = None
        if name == "server.dispatch":
            renames = {
                reply: self.name_id(f"server.dispatch.{request}")
                for reply, request in DISPATCH_KINDS.items()
            }
        stack = self._stack
        lead_parent, lead_child = self._lead_parent, self._lead_child

        def traced(*args, **kwargs):
            if stack and base == lead_child and stack[-1][0] == lead_parent and stack[-1][4] < 0:
                stack[-1][4] = perf_counter_ns()
            span = -1
            if len(self.span_name) < self.max_spans:
                span = len(self.span_name)
                self.span_name.append(base)
                self.span_parent.append(stack[-1][3] if stack else -1)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                self.dropped += 1
            frame = [base, 0, 0, span, -1]
            stack.append(frame)
            frame[1] = start = perf_counter_ns()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                index = base
                reply = getattr(result, "reply", None)
                if renames is not None and isinstance(reply, dict):
                    index = renames.get(reply.get("kind"), base)
                duration = end - start
                self.calls[index] += 1
                self.total_ns[index] += duration
                self.self_ns[index] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if span >= 0:
                    self.span_name[span] = index
                    self.span_start[span] = start
                    self.span_end[span] = end
                if base == lead_parent and frame[4] >= 0:
                    self.lead_ns += frame[4] - start
                    self.lead_total_ns += duration

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore."""
        restore: list[tuple[object, str, object]] = []
        try:
            for owner_path, attribute, name in targets:
                owner = _resolve(owner_path, restore)
                original = vars(owner).get(attribute) if owner is not None else None
                if original is None:
                    self.name_id(name)
                    self.missing.append(f"{owner_path}.{attribute}")
                    continue
                setattr(owner, attribute, self.wrap(original, name))
                restore.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Kept spans as tab-separated rows: id, name, parent id, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# spans kept {len(self.span_name)}, dropped {self.dropped}\n")
            handle.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for span in range(len(self.span_name)):
                handle.write(
                    f"{span}\t{self.names[self.span_name[span]]}\t{self.span_parent[span]}"
                    f"\t{self.span_start[span]}\t{self.span_end[span]}\n"
                )


def _resolve(owner_path: str, restore: list) -> object | None:
    """The object whose attribute gets wrapped, or None if it no longer exists.

    For "module:json" the module's json reference is replaced by a private
    namespace copy, so wrapping ``loads`` there leaves the real json module
    untouched for everyone else.
    """
    module_name, _, member = owner_path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if not member:
        return module
    owner = vars(module).get(member)
    if member == "json" and isinstance(owner, types.ModuleType):
        proxy = types.SimpleNamespace(**vars(owner))
        setattr(module, member, proxy)
        restore.append((module, member, owner))
        return proxy
    return owner
