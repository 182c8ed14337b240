"""dersizer benchmark: time to the rightsized frontier, end to end and per layer.

    python3 bench/run.py --workload desk-seeds --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the run makes one pass over the workload's inputs, repeats them
while --seconds last, and reports the end-to-end metrics. With --trace 1 it
makes one untraced and one traced pass and reports the per-layer metrics.
Metric names and units are those BENCHMARK.json declares. Every
operation's frontier passes the correctness gate in checks.py. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-seeds", "twoweek-size", "desk-oracle")
THREADS_ENV_VAR = "DER_SIZER_THREADS"
SETUP_SAMPLES = 7  # this process plus six set-up-only children
HOST_REFERENCE_LOOPS = 20_000  # about 2 ms of pure Python


@dataclass
class Op:
    index: int
    input: object
    seconds: float
    frontier: object
    host_ms: float
    summary: dict | None = None
    problems: list = field(default_factory=list)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import dersizer from ./src of this checkout, never from elsewhere."""
    if not (SRC / "dersizer" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'dersizer'} not found; run from a dersizer checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop(THREADS_ENV_VAR, None)  # the user default worker count applies
    import dersizer

    if Path(dersizer.__file__).resolve().parent != (SRC / "dersizer").resolve():
        raise SystemExit(f"error: imported dersizer from {dersizer.__file__}, not {SRC}")
    return dersizer


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_reference_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now."""
    started = time.perf_counter()
    total = 0
    for i in range(HOST_REFERENCE_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def environment(source: str, ops: list[Op]) -> dict:
    import numpy

    from dersizer import search

    workers = search.worker_count() if hasattr(search, "worker_count") else os.cpu_count()
    return {
        "git_sha": git_sha(),
        "source_sha256": source,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "host_reference_ms": quartiles([op.host_ms for op in ops]),
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def run_ops(workload, seconds: float = 0.0, probe=None) -> list[Op]:
    """One pass over the workload's pool, then further passes while `seconds` last.

    Every input runs at least once, so what the inputs produce does not
    depend on the speed of the host or of the program; only the number of
    repeats does.
    """
    from layers import OP_SPAN

    ops: list[Op] = []
    started = time.perf_counter()
    workload.attach()
    try:
        while len(ops) < len(workload.pool) or time.perf_counter() - started < seconds:
            index = len(ops)
            op_input = workload.op_input(index)
            host_ms = host_reference_ms()
            first = len(probe.tracer.spans) if probe else 0
            if probe:
                probe.begin_op()
            with probe.tracer.span(OP_SPAN) if probe else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.run(op_input, index)
                elapsed = time.perf_counter() - t0
            summary = probe.op_summary(first, len(probe.tracer.spans)) if probe else None
            frontier = workload.frontier(op_input, result, index)
            ops.append(Op(index, op_input, elapsed, frontier, host_ms, summary))
    finally:
        workload.detach()
    return ops


def gate(workload, ops: list[Op], store) -> None:
    """Correctness gate: attach each operation's problems to it."""
    from checks import check_frontier

    checked: set[str] = set()
    for op in ops:
        f = op.frontier
        if f.error is not None:
            op.problems.append(f.error)
            continue
        if f.simulations is None:
            op.problems.append("the program did not report its simulation count")
        key = op.input.key
        if not store.agrees(f"{workload.name}|{key}", f"{f.digest} simulations={f.simulations}"):
            op.problems.append(
                f"frontier or simulation count differs from an earlier operation of this source on {key}"
            )
        if key not in checked:  # a repeated input is covered by its digest
            checked.add(key)
            load, space, dispatch, precision = workload.check_inputs(op.input)
            op.problems += check_frontier(
                f.rows, workload.exact_deficits, load, space, dispatch, workload.levels, precision
            )


def setup_samples(args, count: int) -> list[float]:
    """Set-up time of `count` fresh interpreters, each measured from its own start."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end_metrics(ops: list[Op], setup: list[float]) -> dict[str, float]:
    """Each input counts once: its counts, which the gate has checked to repeat
    exactly, and the median of its repeated wall times. Times and rates are
    medians over the inputs, counts are means."""
    first: dict[str, Op] = {}
    times: dict[str, list[float]] = {}
    for op in ops:
        first.setdefault(op.input.key, op)
        times.setdefault(op.input.key, []).append(op.seconds)
    seconds = {key: statistics.median(t) for key, t in times.items()}
    sims = {key: op.frontier.simulations or 0 for key, op in first.items()}
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(seconds.values()),
        "simulations": statistics.fmean(sims.values()),
        "sims_per_s": statistics.median(sims[key] / seconds[key] for key in seconds),
        "final_designs": statistics.fmean(len(op.frontier.rows) for op in first.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def declared_units(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    import_program()
    from checks import DigestStore, source_digest
    from layers import LayerProbe, crosscheck, per_layer_metrics
    from workloads import WORKLOADS

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        units = declared_units(args.trace)
        source = source_digest(str(SRC))
        store = DigestStore(str(OUT_DIR / "digests.json"), source)
        # a traced run makes one untraced pass, then replays it traced
        ops = run_ops(workload, seconds=0.0 if args.trace else args.seconds)
        gate(workload, ops, store)
        problems: list[str] = []
        if args.trace:
            probe = LayerProbe()
            probe.install()
            try:
                traced = run_ops(workload, probe=probe)
            finally:
                leftovers = probe.restore()
            if leftovers:
                problems.append(f"wrappers left in dersizer after tracing: {leftovers}")
            for op, plain in zip(traced, ops):
                if op.frontier.digest != plain.frontier.digest:
                    op.problems.append("traced and untraced runs wrote different frontiers")
                if op.frontier.error is None:
                    op.problems += crosscheck(op.summary, op.frontier)
            metrics = per_layer_metrics([op.summary for op in traced], [len(op.frontier.rows) for op in traced])
            metrics["synthetic.generate.s"] = workload.generate_s
            metrics["trace.overhead_s"] = statistics.median(op.seconds for op in traced) - statistics.median(
                op.seconds for op in ops
            )
            OUT_DIR.mkdir(exist_ok=True)
            probe.tracer.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            all_ops = ops + traced
        else:
            metrics = end_to_end_metrics(ops, [setup_s] + setup_samples(args, SETUP_SAMPLES - 1))
            all_ops = ops
        store.save()

        failed = sum(1 for op in all_ops if op.problems)
        env = environment(source, all_ops)
        report(args, env, metrics, units, all_ops, failed, problems)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(all_ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def report(args, env, metrics, units, ops, failed, problems) -> None:
    """Human-readable summary on stdout; problems on stderr; a record in bench/out."""
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  operations {len(ops)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:38s} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_ops_ratio':38s} {failed / len(ops):>14.6g} ratio")
    for problem in problems + [f"op {op.index} ({op.input.key}): {p}" for op in ops for p in op.problems]:
        print(f"problem: {problem}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "failed_ops_ratio": failed / len(ops),
        "problems": problems,
        "ops": [
            {
                "index": op.index,
                "input": op.input.key,
                "seconds": op.seconds,
                "host_reference_ms": op.host_ms,
                "simulations": op.frontier.simulations,
                "final_designs": len(op.frontier.rows),
                "digest": op.frontier.digest,
                "problems": op.problems,
            }
            for op in ops
        ],
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
