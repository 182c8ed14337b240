"""The benchmark's per-layer probe still sees what it wraps.

`bench/layers.py` wraps names in `dersizer.search`, `dersizer.simulator` and
`dersizer.io_cli` and reads some of their arguments by position. A refactor
that stops calling a wrapped name, or moves an argument the probe reads,
shows up here as a cross-check problem instead of only in a traced
benchmark run.
"""

import logging
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import layers
    import run
    import workloads

    return layers, run, workloads


@pytest.mark.parametrize("name", ["desk-seeds", "twoweek-size", "desk-oracle"])
def test_probe_crosschecks_one_input_of_each_workload(bench, name, tmp_path, caplog):
    layers, run, workloads = bench
    # the stage log lines the probe compares are INFO records, which pytest's
    # root logger set-up would otherwise drop
    caplog.set_level(logging.INFO, logger="dersizer")

    class OneInput(workloads.WORKLOADS[name]):
        pool_size = 1

    workload = OneInput(7, str(tmp_path))
    workload.setup()
    probe = layers.LayerProbe()
    probe.install()
    try:
        ops = run.run_ops(workload, probe=probe)
    finally:
        leftovers = probe.restore()
    assert leftovers == []
    assert len(ops) == 1
    op = ops[0]
    assert op.frontier.error is None
    assert op.frontier.simulations is not None
    assert any(msg.endswith("dispatch runs") for msg, _ in op.frontier.logs)
    assert layers.crosscheck(op.summary, op.frontier) == []
    # every stage the operation reports has a log line, so the log check compared something
    reports = [op.frontier.report] if op.frontier.report is not None else op.summary["reports"]
    stages = [stage for report in reports for stage in report.per_stage_counts]
    expected = ["exhaustive"] if name == "desk-oracle" else ["exhaustive", "binary_search", "local_search"]
    assert stages == expected
    prefixes = {stage: prefix for prefix, stage in layers.STAGE_LOG_LINES.items()}
    for stage in stages:
        assert any(msg.startswith(prefixes[stage]) for msg, _ in op.frontier.logs), stage
    assert op.summary["simulator.pv_availability.calls"] == 1
    assert op.summary["simulator.cache.wasted_runs"] == 0
