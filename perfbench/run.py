"""Benchmark runner for the ``sim`` CLI, stdlib and numpy only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client, one process. Each operation is one
in-process call of ``heisensim.cli.main(argv)`` with stdout captured, issued
after the previous one returned; BLAS threading is left at the library
default and recorded. Rounds of operations (see ``workloads.py``) run until
``--seconds`` have passed, and every operation's output goes through the
correctness gate. After each block of rounds a reference kernel runs (see
``reference.py``), and operation time is reported in units of its time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each round
twice, untraced and then traced, and prints per-layer metrics per operation
plus the tracing overhead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Lines before it, starting with ``#``, record the machine and
details no metric carries.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

#: set-up is measured in this many fresh processes and reported as the median
SETUP_SAMPLES = 5

#: operation seconds in one block of whole rounds; after each block the
#: reference kernel runs, and the block's cost is its mean operation time
#: over the kernel's mean time (see ``reference.py``)
BLOCK_S = 0.25

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.gate import GateError, check  # noqa: E402
from perfbench.layers import SPAN_NAMES, Tracer  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, Workload  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "op_cost": "ref",
    "peak_rss_mb": "MB",
}

#: self time per operation of the layers every workload reaches; the rest
#: are printed on the ``#`` lines only, since on most workloads they are 0
TIMED = (
    "tensor.embed", "tensor.conjugate_by",
    "measure.total_unitary", "measure.measurement_unitary", "measure.heisenberg_evolve",
    "cli.main", "config.finalize_manifest",
)
PER_ROW = ("tensor.embed", "measure.total_unitary")
GFLOP = ("tensor.conjugate_by", "measure.total_unitary")

PER_LAYER = {
    **{f"{n}.calls": "count" for n in SPAN_NAMES},
    **{f"{n}.per_row": "count" for n in PER_ROW},
    **{f"{n}.gflop": "GFLOP" for n in GFLOP},
    **{f"{n}.self_ms": "ms" for n in TIMED},
    "blas.gflop_per_s": "GFLOP/s",
    "trace.overhead_ms": "ms",
    "trace.layer_share": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_cli():
    """Import ``heisensim.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "heisensim" / "cli.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'heisensim'}")
    sys.path.insert(0, str(SRC))
    import heisensim.cli

    if Path(heisensim.cli.__file__).resolve().parent != (SRC / "heisensim").resolve():
        raise BenchError(f"imported heisensim from {heisensim.cli.__file__}, not {SRC}")
    return heisensim.cli


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    #: wall seconds of each successful operation
    walls: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_op(cli, op: Op) -> tuple[int, float, str]:
    """One CLI invocation: exit code, wall seconds, captured stdout.

    ``cli.main`` is looked up per call so that the traced wrapper is used
    while it is installed."""
    argv = list(op.argv)
    if op.config is not None:
        path = WORK / "sweep.cfg"
        path.write_text(op.config)
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    return code, wall, out.getvalue()


def execute(cli, op: Op, tally: Tally) -> None:
    tally.attempted += 1
    try:
        code, wall, out = run_op(cli, op)
        rows = check(op, code, out)
    except GateError as exc:
        tally.failed += 1
        tally.errors.append(f"{' '.join(op.argv)}: {exc}")
        return
    except Exception:  # an operation that raises counts as failed; keep going
        tally.failed += 1
        tally.errors.append(f"{' '.join(op.argv)}: {traceback.format_exc()}")
        return
    tally.rows += rows
    tally.walls.append(wall)


def run_rounds(cli, rounds, seconds: float, tally: Tally, reference: Reference) -> list[float]:
    """Run whole rounds until ``seconds`` have passed; return the cost of
    each block of rounds, the last one possibly short."""
    deadline = perf_counter() + seconds
    costs: list[float] = []
    block_s, block_ops = 0.0, 0
    for ops in rounds:
        first = len(tally.walls)
        for op in ops:
            execute(cli, op, tally)
        block_s += sum(tally.walls[first:])
        block_ops += len(tally.walls) - first
        done = perf_counter() >= deadline
        if block_ops and (block_s >= BLOCK_S or done):
            costs.append(block_s / block_ops / reference.measure(block_s))
            block_s, block_ops = 0.0, 0
        if done:
            return costs
    return costs


def setup_probe(workload: Workload) -> int:
    """Import the program and run the warm-up; print ``ready`` when done."""
    cli = load_cli()
    tally = Tally()
    for op in workload.warmup:
        execute(cli, op, tally)
    if tally.failed:
        print("\n".join(tally.errors), file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def measure_setup(name: str) -> list[float]:
    """Seconds from process start until the workload is ready, per sample."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


def tail(walls: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"op_ms_tail n/a (n={n}, needs 11)"
    ordered = sorted(walls)
    return (f"op_ms_tail={ordered[n - 11] * 1e3:.4f} ms at p{100.0 * (n - 10) / n:.1f}"
            f" (n={n}, 10 beyond)")


def end_to_end(cli, workload: Workload, args, setup: list[float], warm: Tally):
    tally = Tally()
    reference = Reference(workload.reference)
    costs = run_rounds(cli, workload.rounds(args.seed), args.seconds, tally, reference)
    walls = tally.walls
    if not costs:
        raise BenchError("no operation succeeded:\n" + "\n".join(tally.errors + warm.errors))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_cost": statistics.median(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = warm.attempted + tally.attempted
    failed = warm.failed + tally.failed
    print(f"# setup samples s: {setup}")
    print(f"# ops={len(walls)} rows={tally.rows} blocks={len(costs)}"
          f" rows_per_s={tally.rows / sum(walls):.4f}"
          f" op_ms_p50={statistics.median(walls) * 1e3:.4f} {tail(walls)}")
    print(f"# {workload.reference} kernel: n={len(reference.samples)}"
          f" ms_p50={statistics.median(reference.samples) * 1e3:.4f}")
    print(f"# failed_ratio={failed / attempted:.6g} ({failed} of {attempted})")
    return tally.errors + warm.errors, attempted, failed, metrics


def _round_counts(tracer: Tracer, rounds: list[list[Op]]) -> list[tuple]:
    """Per round, the calls and computed flops of every span name."""
    op_round = [k for k, ops in enumerate(rounds) for _ in ops]
    counts = [{name: [0, 0] for name in SPAN_NAMES} for _ in rounds]
    for s in tracer.spans:
        c = counts[op_round[s.op]][s.name]
        c[0] += 1
        c[1] += s.flops
    return [tuple(tuple(v) for v in c.values()) for c in counts]


def per_layer(cli, workload: Workload, args, warm: Tally):
    """Run each round untraced and then traced, on the same inputs, so that
    the overhead is a paired difference."""
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    rounds: list[list[Op]] = []
    deadline = perf_counter() + args.seconds
    for ops in workload.rounds(args.seed):
        for op in ops:
            execute(cli, op, plain)
        with tracer.installed():
            for op in ops:
                execute(cli, op, traced)
                tracer.op += 1
        rounds.append(ops)
        if perf_counter() >= deadline:
            break
    errors = warm.errors + plain.errors + traced.errors
    ops, rows = len(traced.walls), traced.rows
    if ops == 0:
        raise BenchError("no traced operation succeeded:\n" + "\n".join(errors))

    repeat = set(_round_counts(tracer, rounds))
    if len(repeat) != 1:
        errors.append(f"layer counts differ between rounds ({len(repeat)} variants)")

    totals = tracer.totals()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = totals[name]["calls"] / ops
    for name in PER_ROW:
        metrics[f"{name}.per_row"] = totals[name]["calls"] / rows
    for name in GFLOP:
        metrics[f"{name}.gflop"] = totals[name]["flops"] / 1e9 / ops
    for name in TIMED:
        metrics[f"{name}.self_ms"] = totals[name]["self_s"] * 1e3 / ops
    kernel_s = sum(totals[n]["self_s"] for n in GFLOP)
    kernel_flops = sum(totals[n]["flops"] for n in GFLOP)
    metrics["blas.gflop_per_s"] = kernel_flops / 1e9 / kernel_s if kernel_s else 0.0
    metrics["trace.overhead_ms"] = (sum(traced.walls) - sum(plain.walls)) * 1e3 / ops
    below_cli = sum(t["self_s"] for n, t in totals.items() if n != "cli.main")
    metrics["trace.layer_share"] = 100.0 * below_cli / sum(traced.walls)

    print(f"# traced ops={ops} rows={rows} rounds={len(rounds)}"
          f" untraced_s={sum(plain.walls):.4f} traced_s={sum(traced.walls):.4f}")
    print("# layer                              calls/op     self_ms/op   gflop/op")
    for name in SPAN_NAMES:
        t = totals[name]
        print(f"# {name:<34} {t['calls'] / ops:10.4f} {t['self_s'] * 1e3 / ops:13.4f}"
              f" {t['flops'] / 1e9 / ops:10.4f}")
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_path.open("w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.__dict__) + "\n")
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    return errors, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            return setup_probe(workload)
        cli = load_cli()
        WORK.mkdir(parents=True, exist_ok=True)
        setup = measure_setup(args.workload) if args.trace == 0 else []
        warm = Tally()
        for op in workload.warmup:
            execute(cli, op, warm)
        print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
        print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds}"
              f" trace={args.trace}")
        if args.trace == 0:
            errors, attempted, failed, values = end_to_end(cli, workload, args, setup, warm)
        else:
            errors, attempted, failed, values = per_layer(cli, workload, args, warm)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in errors[:20]:
        print(f"# FAILED {error}", file=sys.stderr)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
