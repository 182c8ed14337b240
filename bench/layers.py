"""Per-layer probe: which dersizer functions are wrapped, and what their spans add up to.

Each wrapped binding is the name a caller looks up at call time, so the
search stages' calls into the memo layer, the memo layer's calls into the
dispatch kernel and the CLI's calls into search and I/O all pass a wrapper.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
from collections import Counter, defaultdict

import dersizer
from dersizer import io_cli, search, simulator

from tracer import Tracer, leftover_wrappers

STAGES = ("exhaustive", "binary_search", "local_search")
OP_SPAN = "bench.op"
# CLI log lines that state a stage's new unique simulations as their first argument
STAGE_LOG_LINES = {
    "exhaustive stage": "exhaustive",
    "binary search stage": "binary_search",
    "local search stage": "local_search",
}


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class LayerProbe:
    """Wraps the public functions of search, simulator and io_cli."""

    modules = (search, simulator, io_cli)

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._lock = threading.Lock()
        # id(cache) -> (cache, keys seen); holding the cache keeps its id unique
        self._seen: dict[int, tuple[object, set]] = {}

    def install(self) -> None:
        t = self.tracer
        t.bind_root()
        t.install(search, "exhaustive_search", "search.exhaustive", self._on_exhaustive)
        t.install(search, "binary_search_refine", "search.binary_search", self._on_stage)
        t.install(search, "local_search", "search.local_search", self._on_stage)
        t.install(search, "memoized_operate", "simulator.memoized_operate", self._on_lookup)
        t.install(search, "non_dominated", "core.non_dominated", self._on_non_dominated)
        t.install(simulator, "operate", "simulator.operate", self._on_operate)
        t.install(simulator, "pv_availability", "simulator.pv_availability")
        t.install(simulator, "deficit_ratio", "core.metrics")
        t.install(simulator, "unused_ratio", "core.metrics")
        t.install(io_cli, "load_inputs", "io_cli.load_inputs")
        t.install(io_cli, "write_report", "io_cli.write_report", self._on_write_report)
        t.install(io_cli, "exhaustive_search", "search.exhaustive", self._on_exhaustive)
        t.install(io_cli, "non_dominated", "core.non_dominated", self._on_non_dominated)

    def restore(self) -> list[str]:
        """Unwrap everything; returns any attribute still wrapped afterwards."""
        self.tracer.restore()
        self._seen.clear()
        return leftover_wrappers(self.modules)

    def begin_op(self) -> None:
        self._seen.clear()

    # -- hooks: attach counts to the span that just closed ------------------

    def _on_stage(self, span, args, kwargs, result) -> None:
        span.info = {"designs": len(result)}

    def _on_exhaustive(self, span, args, kwargs, result) -> None:
        space = _arg(args, kwargs, 1, "space")
        levels = _arg(args, kwargs, 4, "level_points")
        precision = _arg(args, kwargs, 5, "precision", dersizer.DEFAULT_CAPACITY_PRECISION)
        grids = [dersizer.capacity_grid(spec, levels, precision).points for spec in space.ders]
        span.info = {"designs": len(result), "candidates": math.prod(len(g) for g in grids)}

    def _on_lookup(self, span, args, kwargs, result) -> None:
        cache = _arg(args, kwargs, 0, "cache")
        key = cache.key_for(_arg(args, kwargs, 2, "design"))
        with self._lock:
            keys = self._seen.setdefault(id(cache), (cache, set()))[1]
            span.info = key not in keys  # first sighting of a key is its insert
            keys.add(key)

    def _on_non_dominated(self, span, args, kwargs, result) -> None:
        span.info = len(_arg(args, kwargs, 0, "designs"))

    def _on_operate(self, span, args, kwargs, result) -> None:
        span.info = len(_arg(args, kwargs, 2, "load"))

    def _on_write_report(self, span, args, kwargs, result) -> None:
        report = _arg(args, kwargs, 0, "report")
        span.info = (report, os.path.getsize(_arg(args, kwargs, 1, "path")))

    # -- analysis -----------------------------------------------------------

    def op_summary(self, first: int, last: int) -> dict:
        """Totals over the spans recorded for one operation, spans[first:last]."""
        t = self.tracer
        spans = t.spans[first:last]
        own = t.self_seconds(spans)
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)

        sum_s = lambda name: sum(s.seconds for s in by_name[name])
        self_s = lambda name: sum(own[s] for s in by_name[name])
        operates = by_name["simulator.operate"]
        lookups = by_name["simulator.memoized_operate"]
        missed = {s.parent for s in operates}
        out = {
            "operate_ms": [s.seconds * 1e3 for s in operates],
            "operate_steps": sum(s.info for s in operates),
            "simulator.operate.calls": len(operates),
            "simulator.operate.self_s": self_s("simulator.operate"),
            "simulator.pv_availability.calls": len(by_name["simulator.pv_availability"]),
            "simulator.pv_availability.s": sum_s("simulator.pv_availability"),
            "simulator.cache.lookups": len(lookups),
            "simulator.cache.hits": sum(1 for s in lookups if s not in missed),
            "simulator.cache.inserts": sum(1 for s in lookups if s.info),
            "simulator.memoized_operate.self_s": self_s("simulator.memoized_operate"),
            "core.non_dominated.calls": len(by_name["core.non_dominated"]),
            "core.non_dominated.s": sum_s("core.non_dominated"),
            "core.non_dominated.max_n": max((s.info for s in by_name["core.non_dominated"]), default=0),
            "core.metrics.s": sum_s("core.metrics"),
            "io_cli.load_inputs.s": sum_s("io_cli.load_inputs"),
            "io_cli.write_report.s": sum_s("io_cli.write_report"),
            "io_cli.output_bytes": sum(s.info[1] for s in by_name["io_cli.write_report"]),
            "reports": [s.info[0] for s in by_name["io_cli.write_report"]],
            "search.exhaustive.candidates": 0,
        }
        out["simulator.cache.wasted_runs"] = len(operates) - out["simulator.cache.inserts"]

        stage_of = {}
        for stage in STAGES:
            name = f"search.{stage}"
            out[f"{name}.s"] = sum_s(name)
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.designs"] = sum(s.info["designs"] for s in by_name[name])
            out[f"{name}.evaluations"] = 0
            out[f"{name}.simulations"] = 0
            out["search.exhaustive.candidates"] += sum(s.info.get("candidates", 0) for s in by_name[name])
        for s in lookups:
            stage = stage_of.get(s.parent)
            if stage is None:
                enclosing = t.enclosing(s, "search.")
                stage = stage_of[s.parent] = enclosing.name if enclosing else "search.none"
            out[f"{stage}.evaluations"] = out.get(f"{stage}.evaluations", 0) + 1
            out[f"{stage}.simulations"] = out.get(f"{stage}.simulations", 0) + int(bool(s.info))
        out["search.exhaustive.pruned"] = out["search.exhaustive.candidates"] - out["search.exhaustive.designs"]
        return out


def crosscheck(summary: dict, frontier) -> list[str]:
    """Disagreements between traced counts and the program's own counters."""
    problems = []
    inserts = summary["simulator.cache.inserts"]
    reports = [frontier.report] if frontier.report is not None else summary["reports"]
    if len(reports) != 1:
        problems.append(f"expected one SearchReport per operation, saw {len(reports)}")
    for report in reports:
        if report.all_simulated != inserts:
            problems.append(f"all_simulated {report.all_simulated} != traced inserts {inserts}")
        for stage, counts in report.per_stage_counts.items():
            for key in ("simulations", "designs"):
                traced = summary.get(f"search.{stage}.{key}")
                if counts.get(key) != traced:
                    problems.append(f"per_stage_counts[{stage}][{key}] {counts.get(key)} != traced {traced}")
    if frontier.simulations is not None and frontier.simulations != inserts:
        problems.append(f"logged simulations {frontier.simulations} != traced inserts {inserts}")
    for msg, args in frontier.logs:
        for prefix, stage in STAGE_LOG_LINES.items():
            if msg.startswith(prefix) and args[0] != summary[f"search.{stage}.simulations"]:
                problems.append(f"logged '{prefix}' count {args[0]} != traced {summary[f'search.{stage}.simulations']}")
    if summary["simulator.cache.wasted_runs"] < 0:
        problems.append("more cache inserts than dispatch runs")
    return problems


def per_layer_metrics(summaries: list[dict], finals: list[int]) -> dict[str, float]:
    """Per-operation means of the summaries, plus pooled ratios and percentiles."""
    n = len(summaries)
    total = Counter()
    for s in summaries:
        total.update({k: v for k, v in s.items() if isinstance(v, (int, float))})
    metrics = {name: value / n for name, value in total.items()}
    operate_ms = sorted(ms for s in summaries for ms in s["operate_ms"])
    if len(operate_ms) >= 2:
        cuts = statistics.quantiles(operate_ms, n=100, method="inclusive")
        metrics["simulator.operate.ms_p50"], metrics["simulator.operate.ms_p95"] = cuts[49], cuts[94]
    else:
        metrics["simulator.operate.ms_p50"] = metrics["simulator.operate.ms_p95"] = sum(operate_ms)
    metrics["simulator.step_us"] = _ratio(total["simulator.operate.self_s"] * 1e6, total["operate_steps"])
    metrics["simulator.cache.hit_ratio"] = _ratio(total["simulator.cache.hits"], total["simulator.cache.lookups"])
    metrics["search.exhaustive.prune_ratio"] = _ratio(
        total["search.exhaustive.pruned"], total["search.exhaustive.candidates"]
    )
    metrics["search.useful_ratio"] = _ratio(sum(finals), total["simulator.cache.inserts"])
    metrics["core.non_dominated.max_n"] = max(s["core.non_dominated.max_n"] for s in summaries)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
