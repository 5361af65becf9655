"""In-memory span recorder, and the instrumentation of strategem's layers.

The program carries no tracing of its own. `instrument` wraps functions of
the imported package from outside: every binding of a wrapped function in
any `strategem` module is replaced, so the engine's own
`from .strategy import io_choose_market` reaches the wrapper too, and the
originals come back when the block ends.

A traced run makes two wrapped passes over the same items, so that the
wrappers of one pass do not land in the times of the other:

- the span pass (`SPANS`) wraps the coarse layers and the choosers. Every
  wrapped call adds to per-name call counts, total time and self time (its
  duration minus the union of its wrapped children, `stats.self_time`).
  Calls of the coarse layers (`KEPT`) are also kept as spans (id, name,
  start, end, parent id) and written out at the end.
- the leaf pass (`LEAVES`) wraps only the hot leaves of `step_cycle`,
  called tens of thousands of times per run, each with a bare counter and
  timer. The time such a timer records around a call that does nothing is
  measured (`leaf_wrapper_cost`), so the share of each leaf figure that is
  the wrapper's own can be stated.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from stats import self_time

KEPT = frozenset(
    {
        "cli.main",
        "config.load_config",
        "experiment.run_one",
        "experiment.run_one_traced",
        "engine.world_init",
        "engine.step_cycle",
        "engine.write_trace_rows",
        "metrics.top_k_snapshot",
        "metrics.classify_rbv",
        "experiment.write_runs_csv",
        "experiment.read_runs_csv",
        "experiment.write_aggregate_csv",
        "experiment.aggregate_summaries",
    }
)


class Tracer:
    """Spans and counts of the wrapped passes of one traced run, all in one process."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.missing: list[str] = []
        self.active = True
        # One frame per open call: [children intervals, kept span id or -1].
        self._stack: list[list] = []

    def wrap_leaf(self, name: str, fn):
        """Return `fn` with only its calls counted and its time summed."""
        calls, total = self.calls, self.total

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            total[name] += perf_counter() - start
            calls[name] += 1
            return result

        return wrapper

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.active, was = False, self.active
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recorded as span `name`; `after(args, kwargs, result)`
        reads counts off the return value."""
        keep = name in KEPT
        stack = self._stack
        calls, total, self_s, spans = self.calls, self.total, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = -1
            if keep:
                span_id = len(spans)
                spans.append(None)  # filled in when the call ends
            frame = [[], span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total[name] += duration
                children = frame[0]
                self_s[name] += self_time(start, end, children) if children else duration
                if stack:
                    stack[-1][0].append((start, end))
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    spans[span_id] = (span_id, name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent"))
            out.writerows(span for span in self.spans if span is not None)


def _io_choice(counts):
    def after(args, kwargs, choice):
        firm = args[0] if args else kwargs["firm"]
        if choice.market == firm.market:
            counts["strategy.io_stays"] += 1
        else:
            counts["engine.entry_attempts"] += 1

    return after


def _rbv_choice(counts):
    def after(args, kwargs, choice):
        action = choice.action.value
        counts[f"strategy.rbv_action.{action}"] += 1
        if action == "enter":
            counts["engine.entry_attempts"] += 1

    return after


# (module, attribute, span name, count hook). `Class.method` patches the class.
SPANS = (
    ("strategem.cli", "main", "cli.main", None),
    ("strategem.config", "load_config", "config.load_config", None),
    ("strategem.engine", "World.__init__", "engine.world_init", None),
    ("strategem.strategy", "io_choose_market", "strategy.io_choose_market", _io_choice),
    ("strategem.strategy", "rbv_choose_market", "strategy.rbv_choose_market", _rbv_choice),
    ("strategem.engine", "write_trace_rows", "engine.write_trace_rows", None),
    ("strategem.metrics", "top_k_snapshot", "metrics.top_k_snapshot", None),
    ("strategem.metrics", "classify_rbv", "metrics.classify_rbv", None),
    ("strategem.experiment", "write_runs_csv", "experiment.write_runs_csv", None),
    ("strategem.experiment", "read_runs_csv", "experiment.read_runs_csv", None),
    ("strategem.experiment", "write_aggregate_csv", "experiment.write_aggregate_csv", None),
    ("strategem.experiment", "aggregate_summaries", "experiment.aggregate_summaries", None),
)
# The hot leaves, all called from within `World.step_cycle`.
LEAVES = (
    ("strategem.engine", "sfm_buy", "engine.sfm_buy", None),
    ("strategem.engine", "sfm_sell", "engine.sfm_sell", None),
    ("strategem.engine", "update_share_value", "engine.update_share_value", None),
    ("strategem.engine", "update_sfm_prices", "engine.update_sfm_prices", None),
    ("strategem.engine", "survival_check", "engine.survival_check", None),
    ("strategem.model", "total_asset_value", "model.total_asset_value", None),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "strategem" or n.startswith("strategem.")]


@contextmanager
def instrument(tracer: Tracer, targets=SPANS):
    """Wrap `targets` (`SPANS` or `LEAVES`) for the duration of the block.
    A target the package no longer has is listed in `tracer.missing` and
    reads 0."""
    leaves = targets is LEAVES
    undo = []

    def replace_everywhere(original, wrapper):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    try:
        for module_name, attr, name, hook in targets:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            if leaves:
                wrapper = tracer.wrap_leaf(name, original)
            else:
                wrapper = tracer.wrap(name, original, hook(tracer.counts) if hook else None)
            if owner_name:
                undo.append((owner, method, original))
                setattr(owner, method, wrapper)
            else:
                replace_everywhere(original, wrapper)
        if not leaves:
            _instrument_run_one(tracer, replace_everywhere)
            _instrument_step_cycle(tracer, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _instrument_run_one(tracer, replace_everywhere):
    """run_one is one span name without a trace and another with one, so
    the trace pass of `run_batch(trace=True)` is timed on its own."""
    experiment = sys.modules.get("strategem.experiment")
    original = getattr(experiment, "run_one", None)
    if original is None:
        tracer.missing.append("strategem.experiment.run_one")
        return
    plain = tracer.wrap("experiment.run_one", original)
    traced = tracer.wrap("experiment.run_one_traced", original)

    def run_one(*args, **kwargs):
        trace_out = kwargs.get("trace_out", args[3] if len(args) > 3 else None)
        return (plain if trace_out is None else traced)(*args, **kwargs)

    replace_everywhere(original, run_one)


def _instrument_step_cycle(tracer, undo):
    """Time step_cycle and count joins and deaths by diffing each firm's
    market and alive flag across the call."""
    engine = sys.modules.get("strategem.engine")
    world = getattr(engine, "World", None)
    original = getattr(world, "step_cycle", None)
    if original is None:
        tracer.missing.append("strategem.engine.World.step_cycle")
        return
    timed = tracer.wrap("engine.step_cycle", original)
    counts = tracer.counts

    def step_cycle(self):
        if not tracer.active:
            return original(self)
        before = [(f.market, f.alive) for f in self.firms]
        report = timed(self)
        for (market, alive), firm in zip(before, self.firms):
            if firm.market != market and firm.market is not None:
                counts["engine.entries_joined"] += 1
            if alive and not firm.alive:
                counts["engine.deaths"] += 1
        return report

    undo.append((world, "step_cycle", original))
    world.step_cycle = step_cycle


def leaf_wrapper_cost(calls: int = 200_000) -> float:
    """Seconds per call that a `wrap_leaf` timer records around a function
    that does nothing: the part of each leaf figure that is the wrapper's."""
    tracer = Tracer()
    noop = tracer.wrap_leaf("noop", lambda x: x)
    for i in range(calls):
        noop(i)
    return tracer.total["noop"] / calls


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a span pass and a leaf pass over the same
    items, recorded in one tracer, as (value, unit). `step_cycle`'s self
    time leaves out its wrapped children of both passes: the choosers
    timed in the span pass and the leaves timed in the leaf pass."""
    t, n, c = tracer.total, tracer.calls, tracer.counts
    io_calls = n["strategy.io_choose_market"]
    attempts = c["engine.entry_attempts"]
    leaves = sum(t[name] for _, _, name, _ in LEAVES)
    return {
        "engine.world_init_s": (t["engine.world_init"], "s"),
        "engine.step_cycle_s": (t["engine.step_cycle"], "s"),
        "engine.step_cycle_calls": (n["engine.step_cycle"], "count"),
        "engine.step_cycle_self_s": (tracer.self_s["engine.step_cycle"] - leaves, "s"),
        "strategy.io_choose_market_s": (t["strategy.io_choose_market"], "s"),
        "strategy.io_choose_market_calls": (io_calls, "count"),
        "strategy.rbv_choose_market_s": (t["strategy.rbv_choose_market"], "s"),
        "strategy.rbv_choose_market_calls": (n["strategy.rbv_choose_market"], "count"),
        "strategy.io_stay_ratio": (c["strategy.io_stays"] / io_calls if io_calls else 0.0, "ratio"),
        "strategy.rbv_action.enter": (c["strategy.rbv_action.enter"], "count"),
        "strategy.rbv_action.sell_resource": (c["strategy.rbv_action.sell_resource"], "count"),
        "strategy.rbv_action.sell_output": (c["strategy.rbv_action.sell_output"], "count"),
        "strategy.rbv_action.none": (c["strategy.rbv_action.none"], "count"),
        "engine.entry_attempts": (attempts, "count"),
        "engine.entries_joined": (c["engine.entries_joined"], "count"),
        "engine.entry_success_ratio": (
            c["engine.entries_joined"] / attempts if attempts else 0.0,
            "ratio",
        ),
        "engine.deaths": (c["engine.deaths"], "count"),
        "engine.factor_trade_s": (t["engine.sfm_buy"] + t["engine.sfm_sell"], "s"),
        "engine.sfm_buy_calls": (n["engine.sfm_buy"], "count"),
        "engine.sfm_sell_calls": (n["engine.sfm_sell"], "count"),
        "engine.update_s": (t["engine.update_share_value"] + t["engine.update_sfm_prices"], "s"),
        "engine.settle_s": (t["engine.survival_check"], "s"),
        "model.total_asset_value_s": (t["model.total_asset_value"], "s"),
        "model.total_asset_value_calls": (n["model.total_asset_value"], "count"),
        "engine.write_trace_rows_s": (t["engine.write_trace_rows"], "s"),
        "experiment.trace_pass_s": (t["experiment.run_one_traced"], "s"),
        "experiment.run_one_calls": (
            n["experiment.run_one"] + n["experiment.run_one_traced"],
            "count",
        ),
        "metrics.top_k_snapshot_s": (t["metrics.top_k_snapshot"], "s"),
        "metrics.classify_rbv_s": (t["metrics.classify_rbv"], "s"),
        "metrics.classify_rbv_calls": (n["metrics.classify_rbv"], "count"),
        "experiment.csv_s": (
            t["experiment.write_runs_csv"]
            + t["experiment.read_runs_csv"]
            + t["experiment.write_aggregate_csv"],
            "s",
        ),
        "experiment.aggregate_s": (t["experiment.aggregate_summaries"], "s"),
        "config.load_config_s": (t["config.load_config"], "s"),
        "cli.main_s": (t["cli.main"], "s"),
    }
