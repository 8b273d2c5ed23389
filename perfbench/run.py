#!/usr/bin/env python3
"""Benchmark for negprob, standard library only.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: builtins-cli, ncycle-ladder, mixed-docs (see NOTES.md).  The
package is imported from ``src/`` of the tree this file sits in, both
in-process and in every child process.  One client drives a closed loop;
at most one child process runs at a time.

``--trace 0`` times whole passes for about ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` runs one in-process pass
untraced, one traced and one untraced again, then a tracemalloc pass and
the interpreter start-up probes, and reports the per-layer metrics.  The
last line of standard output is the JSON result; lines above it are the
human-readable report.  Spans and a summary are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import oracles
import stats
from stats import SAMPLE_SPAN
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe"
OUT = ROOT / ".perfbench_out"
PROVENANCE_TAG = "negprob-bench-provenance: "
SETUP_REPS = 9
STARTUP_PROBES = 9
CHILD_TIMEOUT_S = 60


class RunEnv:
    """What every workload needs: paths, seed, modules and child settings."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.root = ROOT
        self.seed = seed
        self.scratch = scratch
        self.ns = None
        path = [str(SRC), str(PROBE)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    @staticmethod
    def inside_src(path: str) -> bool:
        try:
            Path(path).resolve().relative_to((SRC / "negprob").resolve())
        except ValueError:
            return False
        return True

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=self.child_env,
            cwd=self.root,
            timeout=CHILD_TIMEOUT_S,
        )

    def child_provenance_problems(self, stderr: str) -> list[str]:
        tagged = [
            line[len(PROVENANCE_TAG):]
            for line in stderr.splitlines()
            if line.startswith(PROVENANCE_TAG)
        ]
        if len(tagged) != 1:
            return ["child did not report which negprob it imported"]
        if not self.inside_src(tagged[0]):
            return [f"child imported negprob from {tagged[0]}"]
        return []


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU it may use.

    The two vCPUs of the machine the bounds were set on change speed
    independently, so the reference kernel only predicts the speed of work
    on the CPU it ran on.  Returns the CPU, or None where affinity cannot be
    set (the run then goes on unpinned).
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def fresh_import() -> SimpleNamespace:
    """Import negprob from scratch, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "negprob" or m.startswith("negprob.")]:
        del sys.modules[name]
    importlib.import_module("negprob.cli")
    modules = {
        short: sys.modules[f"negprob.{short}"]
        for short in ("cli", "solver", "contextuality", "measure", "scenarios")
    }
    return SimpleNamespace(package=sys.modules["negprob"], **modules)


def set_up(workload_cls, env: RunEnv, clock: stats.SpeedClock):
    """Import and build inputs SETUP_REPS times; keep the last, time all.

    Returns the workload and (seconds, factor to reference speed) per set-up.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        env.ns = fresh_import()
        workload = workload_cls(env)
        workload.setup()
        seconds = time.perf_counter() - start
        times.append((seconds, clock.tick()))
    if not env.inside_src(env.ns.package.__file__):
        raise RuntimeError(f"negprob imported from {env.ns.package.__file__}")
    return workload, times


def timed_passes(workload, seconds: float, clock: stats.SpeedClock) -> None:
    """Whole passes until the next one would end past the deadline."""
    workload.clock = clock
    clock.tick()
    start = time.perf_counter()
    last = 0.0
    while (
        workload.passes < workload.min_passes
        or time.perf_counter() - start + last <= seconds
    ):
        begun = time.perf_counter()
        workload.one_pass()
        workload.passes += 1
        last = time.perf_counter() - begun


def startup_probes(env: RunEnv, clock: stats.SpeedClock) -> tuple[float, float]:
    """Median wall of ``python -c pass`` and of importing negprob.cli, in ms,
    at reference speed."""
    interp, imported = [], []
    clock.tick()
    for _ in range(STARTUP_PROBES):
        for args, into in (
            (["-c", "pass"], interp),
            (["-c", "import negprob.cli"], imported),
        ):
            start = time.perf_counter()
            proc = env.child(args)
            into.append((time.perf_counter() - start) * clock.tick())
            if proc.returncode != 0:
                raise RuntimeError(f"start-up probe failed: {proc.stderr}")
    interp_ms = stats.median(interp) * 1e3
    return interp_ms, stats.median(imported) * 1e3 - interp_ms


def solve_counts(tracer: Tracer) -> dict[str, float]:
    """Counts read off every traced minimize_l1 call and its result."""
    counts = {
        "solver.atoms": 0,
        "solver.rows": 0,
        "solver.row_nnz": 0,
        "solver.rank": 0,
        "solver.redundant_rows": 0,
        "solver.witness_support": 0,
        "solver.max_bits": 0,
        "solver.verdict.proper": 0,
        "solver.verdict.signed": 0,
        "solver.verdict.infeasible": 0,
    }
    verdicts = {
        "ProperFeasible": "solver.verdict.proper",
        "SignedFeasibleOnly": "solver.verdict.signed",
        "Infeasible": "solver.verdict.infeasible",
    }
    for system, result in tracer.solves:
        counts["solver.atoms"] += system.space.atom_count
        counts["solver.rows"] += len(system.rows)
        counts["solver.row_nnz"] += sum(len(event.atoms) for event, _ in system.rows)
        counts["solver.rank"] += result.rank
        counts["solver.redundant_rows"] += len(system.rows) - result.rank
        counts[verdicts[result.status.value]] += 1
        if result.witness is not None:
            mass = result.witness.mass
            counts["solver.witness_support"] += sum(1 for m in mass if m != 0)
            bits = oracles.max_bits([*mass, result.mstar])
            counts["solver.max_bits"] = max(counts["solver.max_bits"], bits)
    return counts


LAYER_SPANS = {
    "cli.parse_ms": "cli.parse",
    "cli.run_self_ms": "cli.run",
    "scenarios.build_ms": "scenarios.build",
    "contextuality.family_system_ms": "contextuality.family_system",
    "contextuality.detect_bias_ms": "contextuality.detect_bias",
    "measure.cylinder_ms": "measure.cylinder",
    "solver.assemble_ms": "solver.assemble",
    "solver.rank_nullity_ms": "solver.rank_nullity",
    "solver.minimize_l1.self_ms": "solver.minimize_l1",
    "solver.feasible_proper_ms": "solver.feasible_proper",
}

LAYER_UNITS = {
    "cli.bytes_out": "bytes",
    "solver.heap_peak_kb": "kB",
}


def traced_run(workload, env: RunEnv, clock, report, summary) -> dict:
    """Per-layer metrics from one traced in-process pass.

    Times are at reference speed: every operation and start-up probe is
    scaled by the reference kernel read around (and, in-process, during) it.
    """
    workload.clock = clock
    clock.tick()
    first = workload.inproc_pass(None)
    tracer = Tracer()
    with tracer:
        clock.tracer = tracer
        traced = workload.inproc_pass(tracer)
        clock.tracer = None
    second = workload.inproc_pass(None)
    untraced = (first + second) / 2
    heap_kb = workload.heap_peak_kb()
    interp_ms, import_ms = startup_probes(env, clock)

    totals = tracer.layer_totals_ms()
    calls = tracer.call_counts()
    metrics = {
        "startup.interp_ms": interp_ms,
        "startup.import_ms": import_ms,
    }
    metrics.update({k: totals.get(v, 0.0) for k, v in LAYER_SPANS.items()})
    metrics["cli.bytes_out"] = workload.bytes_out
    metrics["measure.cylinder_calls"] = calls.get("measure.cylinder", 0)
    metrics.update(solve_counts(tracer))
    metrics["solver.heap_peak_kb"] = heap_kb
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
    metrics["trace.spans"] = sum(n for name, n in calls.items() if name != SAMPLE_SPAN)

    span_path = OUT / f"spans-{workload.name}-seed{env.seed}.jsonl"
    tracer.dump(span_path)
    report.append(
        f"traced pass {traced * 1e3:.1f} ms, untraced passes "
        f"{first * 1e3:.1f} and {second * 1e3:.1f} ms: overhead "
        f"{metrics['trace.overhead_ms']:.1f} ms; {len(tracer.spans)} spans "
        f"written to {span_path.relative_to(ROOT)}"
    )
    report.append("wrapped: " + ", ".join(tracer.bindings))
    summary["trace"] = {"traced_s": traced, "untraced_s": [first, second]}
    if hasattr(workload, "rung_times"):
        summary["rungs"] = rung_table(workload, tracer, report)
    return metrics


def rung_table(workload, tracer: Tracer, report: list[str]) -> list[dict]:
    """Per-rung layer self times of the ladder against its untraced times.

    The last column is how far rank_nullity plus minimize_l1 self time in
    the traced pass is from minimize_l1 in the untraced passes (their mean).
    """
    report.append(
        "   n  family_system  cylinder  rank_nullity  minimize_l1.self"
        "  feasible_proper  untraced_minimize_l1  difference   (ms)"
    )
    rows = []
    for n, samples in sorted(workload.rung_times["untraced"].items()):
        layer = tracer.layer_totals_ms(lambda op, n=n: op == n)
        row = {"n": n}
        for key, span in (
            ("family_system_ms", "contextuality.family_system"),
            ("cylinder_ms", "measure.cylinder"),
            ("rank_nullity_ms", "solver.rank_nullity"),
            ("minimize_l1_self_ms", "solver.minimize_l1"),
            ("feasible_proper_ms", "solver.feasible_proper"),
        ):
            row[key] = layer.get(span, 0.0)
        row["untraced_minimize_l1_ms"] = stats.median([t[1] for t in samples]) * 1e3
        row["difference_ms"] = (
            row["rank_nullity_ms"]
            + row["minimize_l1_self_ms"]
            - row["untraced_minimize_l1_ms"]
        )
        rows.append(row)
        report.append(
            f"{n:>4}  {row['family_system_ms']:>13.2f}  {row['cylinder_ms']:>8.2f}"
            f"  {row['rank_nullity_ms']:>12.2f}  {row['minimize_l1_self_ms']:>16.2f}"
            f"  {row['feasible_proper_ms']:>15.2f}"
            f"  {row['untraced_minimize_l1_ms']:>20.2f}  {row['difference_ms']:>+10.2f}"
        )
    return rows


def provenance(env: RunEnv, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "negprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "negprob_file": env.ns.package.__file__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "negprob" / "__init__.py").is_file():
        print(f"no negprob package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    env = RunEnv(args.seed, scratch)
    clock = stats.SpeedClock()
    try:
        workload, setup_times = set_up(WORKLOADS[args.workload], env, clock)
        summary = {"provenance": {**provenance(env, args), "pinned_cpu": cpu}}
        report = [
            f"negprob benchmark: workload {args.workload}, seed {args.seed}, "
            f"trace {args.trace}",
            "provenance: "
            + ", ".join(f"{k} {v}" for k, v in summary["provenance"].items()),
            f"setup: {SETUP_REPS} set-ups of "
            + ", ".join(f"{t:.4f}" for t, _ in setup_times)
            + " s",
        ]
        raw = {}
        if args.trace:
            values = traced_run(workload, env, clock, report, summary)
            metrics = {
                k: (v, "ms" if k.endswith("_ms") else LAYER_UNITS.get(k, "count"))
                for k, v in values.items()
            }
        else:
            timed_passes(workload, args.seconds, clock)
            metrics = workload.e2e(stats.median([t * f for t, f in setup_times]))
            raw = workload.e2e(stats.median([t for t, _ in setup_times]), scaled=False)
            sums = workload.summaries()
            summary["samples"] = sums
            summary["inputs"] = {
                stream: {str(key): samples for key, samples in inputs.items()}
                for stream, inputs in workload.streams.items()
            }
            summary["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
            report.append(f"passes: {workload.passes}")
            for key, s in sums.items():
                report.append(
                    f"stream {key}: {s['inputs']} inputs, {s['samples']} samples; "
                    f"tail at p{s['tail_pct']:g}, {s['tail_beyond']} samples beyond it"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    kernel = clock.kernel_s
    summary["reference_kernel_s"] = kernel
    report.append(
        f"reference kernel: {len(kernel)} readings, median "
        f"{stats.median(kernel) * 1e3:.3f} ms, range {min(kernel) * 1e3:.3f}"
        f"-{max(kernel) * 1e3:.3f} ms; nominal {stats.REFERENCE_NOMINAL_S * 1e3:g} ms"
    )
    failed = workload.failures.count
    summary["attempted"] = workload.attempted
    summary["failed"] = failed
    summary["failure_reasons"] = workload.failures.reasons
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.append(
        f"operations: {workload.attempted} attempted, {failed} failed, "
        f"error_rate {failed / workload.attempted:g}"
    )
    report += [f"failure: {reason}" for reason in workload.failures.reasons]
    if raw:
        report.append(f"{'metric':<34} {'at reference speed':>18}  {'as timed':>14}")
        report += [
            f"{k:<34} {v:>18.6f}  {raw[k][0]:>14.6f} {u}" for k, (v, u) in metrics.items()
        ]
    else:
        report.append(f"{'metric':<34} {'at reference speed':>18}")
        report += [f"{k:<34} {v:>18.6f} {u}" for k, (v, u) in metrics.items()]
    summary_path = OUT / f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary_path.write_text(json.dumps(summary, indent=1, default=str) + "\n")
    print("\n".join(report))
    result = {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
