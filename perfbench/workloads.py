"""The three workloads: what one pass runs, how it is timed and checked.

Each workload builds its inputs in ``setup``, then runs whole passes over
them.  A pass records latencies into named streams; answers are checked
after each timed call returns, outside the timed interval, and repeated
answers must be byte-identical to the first one seen in the run.
"""

from __future__ import annotations

import io
import json
import random
import resource
import subprocess
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import docgen
import oracles
import stats

class Failures:
    """Failed operations, with the first few reasons kept for the report."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: list[str] = []

    def add(self, where: str, problems, ops: int = 1) -> None:
        if not problems:
            return
        self.count += ops
        if len(self.reasons) < 20:
            self.reasons.append(f"{where}: {'; '.join(map(str, problems))}")


def timed_call(clock, fn, *args):
    """``fn(*args)`` and its seconds, sampled by ``clock`` when one is given."""
    if clock is not None:
        return clock.run(fn, *args)
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def call_cli(cli, argv, clock=None):
    """Run ``negprob.cli.run`` in-process; returns (code, out, err, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, seconds = timed_call(clock, cli.run, argv)
        except Exception:  # a crash is a failed operation, not a dead run
            code, seconds = None, 0.0
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), seconds


def bundle_system(ns, bundle):
    """The constraint system a scenario bundle stands for."""
    if bundle.kind == "constraints":
        return bundle.payload
    return ns.contextuality.family_system(bundle.payload)


class Workload:
    """Shared bookkeeping; subclasses fill in setup and the passes."""

    name = ""
    min_passes = 1

    def __init__(self, env) -> None:
        self.env = env  # run.RunEnv: paths, seed, module namespace
        # stream -> input key -> (seconds, factor to reference speed), one
        # sample per pass
        self.streams: dict[str, dict[object, list[tuple[float, float]]]] = {}
        self.passes = 0
        self.clock: stats.SpeedClock | None = None  # set by run.py before a pass
        self.failures = Failures()
        self.attempted = 0
        self.reference: dict = {}  # first answer per input, for byte stability
        self.bytes_out = 0

    def record(self, stream: str, key, seconds: float, factor: float) -> None:
        self.streams.setdefault(stream, {}).setdefault(key, []).append(
            (seconds, factor)
        )

    def repeat(self, key, answer) -> tuple[bool, list[str]]:
        """(first time seen, problems): later answers must equal the first."""
        if key not in self.reference:
            self.reference[key] = answer
            return True, []
        if self.reference[key] != answer:
            return False, ["output differs from the first run of the same input"]
        return False, []

    def summaries(self, scaled: bool = True) -> dict[str, dict]:
        return {
            stream: stats.summarize(
                {
                    key: [t * (f if scaled else 1.0) for t, f in samples]
                    for key, samples in inputs.items()
                },
                self.min_passes * len(inputs),
            )
            for stream, inputs in self.streams.items()
        }

    def e2e(self, setup_s: float, scaled: bool = True) -> dict:
        """End-to-end metrics, at reference speed unless ``scaled`` is false."""
        s = self.summaries(scaled)
        return {
            "setup_s": (setup_s, "s"),
            "success_rate": (1 - self.failures.count / self.attempted, "ratio"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
            "cli_p50_ms": (s["cli"]["p50"] * 1e3, "ms"),
            "cli_tail_ms": (s["cli"]["tail"] * 1e3, "ms"),
            "solve_top_s": (s["top_solve"]["mean"], "s"),
            "proper_top_s": (s["top_proper"]["mean"], "s"),
            "ladder_s": (s["op"]["total"], "s"),
            "ops_per_s": (s["op"]["inputs"] / s["op"]["total"], "1/s"),
            "op_p50_ms": (s["op"]["p50"] * 1e3, "ms"),
            "op_tail_ms": (s["op"]["tail"] * 1e3, "ms"),
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_factor(self, tracer, op_id) -> float:
        """Close the operation just run on the clock; keep its factor for spans."""
        factor = self.clock.tick()
        if tracer:
            tracer.op_scale[op_id] = factor
        return factor

    def heap_systems(self):
        """Systems whose minimize_l1 heap peak the traced run reports."""
        raise NotImplementedError

    def heap_peak_kb(self) -> float:
        """Largest tracemalloc peak of one minimize_l1 call, in its own pass."""
        systems = list(self.heap_systems())
        tracemalloc.start()
        try:
            peak = 0
            for system in systems:
                tracemalloc.reset_peak()
                self.env.ns.solver.minimize_l1(system)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peak / 1024.0


# --- builtins-cli -------------------------------------------------------------


class BuiltinsCli(Workload):
    """Each built-in as a fresh ``python -m negprob.cli`` process."""

    name = "builtins-cli"
    min_passes = 8
    solve_top = "mz-counterfactual"  # largest system among the built-ins
    proper_top = "mz-case-8"  # largest built-in whose verdict is proper

    def setup(self) -> None:
        self.names = sorted(oracles.BUILTIN_TABLE)
        self.rng = random.Random(self.env.seed)
        # A child started like the timed ones must import the tree under
        # test; it also leaves the bytecode cache warm before timing.
        probe = self.env.child(
            ["-c", "import negprob.cli, sys; sys.stdout.write(negprob.cli.__file__)"]
        )
        if probe.returncode != 0 or not self.env.inside_src(probe.stdout):
            raise RuntimeError(f"child imports negprob from {probe.stdout!r}")
        sc = self.env.ns.scenarios
        families = {f"mz-case-{k}": sc.mach_zehnder_case(k) for k in range(1, 9)}
        families["pr-box"] = sc.bell_box(1, 1, 1, -1)
        families["tsirelson"] = sc.tsirelson_box()
        families["lg-chain"] = sc.leggett_garg_chain(1, 1, -1)
        self.rows = {
            name: oracles.context_rows(
                [(c.variables, c.distribution) for c in family.contexts]
            )
            for name, family in families.items()
        }
        eps = Fraction(1, 100)
        self.rows["mz-counterfactual"] = oracles.counterfactual_rows(1, 0)
        self.rows["mz-detuned"] = oracles.counterfactual_rows(1 - eps, eps)

    @staticmethod
    def argv(name: str) -> list[str]:
        return ["builtin", name, "--format", "json"]

    def check(self, name: str, code, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        first, problems = self.repeat(name, out)
        if not first:
            return problems
        status, mstar, rank = oracles.BUILTIN_TABLE[name]
        expect = {"status": status, "mstar": mstar, "bias_free": True}
        if rank:
            expect["rank"], expect["nullity"] = rank
        return oracles.check_solve_report(
            self.env.ns.measure, json.loads(out), self.rows[name], expect
        )

    def one_pass(self) -> None:
        for name in self.rng.sample(self.names, len(self.names)):
            self.attempted += 1
            start = time.perf_counter()
            try:
                proc = self.env.child(["-m", "negprob.cli", *self.argv(name)])
            except subprocess.TimeoutExpired as exc:
                self.failures.add(name, [f"timed out after {exc.timeout} s"])
                self.clock.tick()
                continue
            seconds = time.perf_counter() - start
            factor = self.clock.tick()
            self.record("op", name, seconds, factor)
            self.record("cli", name, seconds, factor)
            if name == self.solve_top:
                self.record("top_solve", name, seconds, factor)
            if name == self.proper_top:
                self.record("top_proper", name, seconds, factor)
            problems = self.check(name, proc.returncode, proc.stdout)
            problems += self.env.child_provenance_problems(proc.stderr)
            self.failures.add(name, problems)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def inproc_pass(self, tracer) -> float:
        """The same commands through ``negprob.cli.run``, for the traced run."""
        busy = 0.0
        for op_id, name in enumerate(self.names):
            self.attempted += 1
            span = tracer.begin_op(op_id, "op") if tracer else None
            code, out, err, seconds = call_cli(self.env.ns.cli, self.argv(name), self.clock)
            if span:
                tracer.end(span)
                self.bytes_out += len(out.encode())
            busy += seconds * self.op_factor(tracer, op_id)
            self.failures.add(f"in-process {name}", self.check(name, code, out))
        return busy

    def heap_systems(self):
        ns = self.env.ns
        for name in self.names:
            yield bundle_system(ns, ns.cli.builtin_bundle(name, {}))


# --- ncycle-ladder ------------------------------------------------------------


RUNGS = tuple(range(4, 11))
CALLS = ("family_system", "minimize_l1", "feasible_proper")


def ring_contexts(names, negative_edge: int):
    """Pair contexts around the ring, correlation +1 except one edge at -1."""
    n = len(names)
    contexts = []
    for i in range(n):
        e = Fraction(-1 if i == negative_edge else 1)
        contexts.append(((names[i], names[(i + 1) % n]), oracles.pair_masses(e)))
    return contexts


class NcycleLadder(Workload):
    """family_system, minimize_l1 and feasible_proper on n-cycles, n = 4..10."""

    name = "ncycle-ladder"
    min_passes = 3

    def setup(self) -> None:
        rng = random.Random(self.env.seed)
        ns = self.env.ns
        self.rungs = {}
        for n in RUNGS:
            # The seed picks the names and which ring edge carries -1.  The
            # variables are listed from the end of that edge onwards, so the
            # -1 edge always closes the ring in variable order and every
            # seed gives the same column order and Bland path (NOTES.md).
            ring = [f"{rng.choice('PQRSTUVW')}{i}" for i in range(n)]
            start = (rng.randrange(n) + 1) % n
            order = ring[start:] + ring[:start]
            contexts = ring_contexts(order, n - 1)
            family = ns.contextuality.ContextFamily(
                tuple(order),
                tuple(ns.measure.Context(v, m) for v, m in contexts),
            )
            self.rungs[n] = (family, contexts)
        self.rung_times: dict[str, dict[int, tuple]] = {}

    def _rung(self, n: int, clock=None):
        """The rung's three calls; their seconds and factors to reference speed."""
        ns = self.env.ns
        times, factors = [], []

        def call(fn, *args):
            result, seconds = timed_call(clock, fn, *args)
            times.append(seconds)
            factors.append(clock.tick() if clock else 1.0)
            return result

        system = call(ns.contextuality.family_system, self.rungs[n][0])
        result = call(ns.solver.minimize_l1, system)
        proper = call(ns.solver.feasible_proper, system)
        return system, result, proper, times, factors

    def check(self, n, system, result, proper) -> list[str]:
        witness = result.witness
        answer = (
            len(system.rows),
            result.status.value,
            result.mstar,
            result.rank,
            result.nullity,
            None if witness is None else witness.mass,
            proper is None,
        )
        first, problems = self.repeat(n, answer)
        if not first:
            return problems
        correlations = [Fraction(1)] * (n - 1) + [Fraction(-1)]
        if len(system.rows) != 4 * n + 1:
            problems.append(f"{len(system.rows)} rows, want {4 * n + 1}")
        if (proper is not None) != oracles.cycle_is_proper(correlations):
            problems.append("feasible_proper disagrees with the KDL rule")
        if witness is None:
            return problems + ["no witness"]
        report = {
            "status": result.status.value,
            "mstar": str(result.mstar),
            "rank": result.rank,
            "nullity": result.nullity,
            "variables": list(system.space.variables),
            "witness": {
                system.space.atom_label(a): str(m)
                for a, m in enumerate(witness.mass)
                if m != 0
            },
        }
        expect = {
            "status": "SignedFeasibleOnly",
            "mstar": oracles.NCYCLE_MSTAR[n],
            "rank": 2 * n + 1,
            "nullity": (1 << n) - 2 * n - 1,
        }
        rows = oracles.context_rows(self.rungs[n][1])
        return problems + oracles.check_solve_report(
            self.env.ns.measure, report, rows, expect
        )

    def one_pass(self) -> None:
        for n in RUNGS:
            self.attempted += 3
            try:
                system, result, proper, times, factors = self._rung(n, self.clock)
            except Exception:
                self.failures.add(f"n={n}", [traceback.format_exc(limit=3)], ops=3)
                self.clock.tick()
                continue
            for call, seconds, factor in zip(CALLS, times, factors):
                self.record("op", (n, call), seconds, factor)
            rung = sum(times)
            self.record("cli", n, rung, sum(t * f for t, f in zip(times, factors)) / rung)
            if n == RUNGS[-1]:
                self.record("top_solve", n, times[1], factors[1])
                self.record("top_proper", n, times[2], factors[2])
            self.failures.add(f"n={n}", self.check(n, system, result, proper))

    def inproc_pass(self, tracer) -> float:
        busy = 0.0
        times_by_rung = self.rung_times.setdefault(
            "traced" if tracer else "untraced", {}
        )
        for n in RUNGS:
            self.attempted += 3
            span = tracer.begin_op(n, "op") if tracer else None
            system, result, proper, times, factors = self._rung(n, self.clock)
            if span:
                tracer.end(span)
            scaled = [t * f for t, f in zip(times, factors)]
            if tracer:
                tracer.op_scale[n] = sum(scaled) / sum(times)
            busy += sum(scaled)
            times_by_rung.setdefault(n, []).append(scaled)
            self.failures.add(f"n={n}", self.check(n, system, result, proper))
        return busy

    def heap_systems(self):
        yield self.env.ns.contextuality.family_system(self.rungs[RUNGS[-1]][0])


# --- mixed-docs ---------------------------------------------------------------


class MixedDocs(Workload):
    """Seeded scenario files through ``negprob.cli.run``, in-process."""

    name = "mixed-docs"
    min_passes = 3
    replicates = 5

    def setup(self) -> None:
        self.docs = docgen.build_pool(self.env.seed, self.replicates)
        directory = self.env.scratch / "docs"
        directory.mkdir(parents=True, exist_ok=True)
        docgen.write_pool(self.docs, directory)
        self.rng = random.Random(self.env.seed + 1)

    def check(self, index: int, command: str, code, out: str, err: str):
        doc = self.docs[index]
        if command == "solve":
            want_code = 2 if doc.solve["status"] == "Infeasible" else 0
        elif command == "viable":
            want_code = 0 if doc.viable else 2
        else:
            want_code = 0
        if code != want_code:
            return [f"exit code {code}, want {want_code}: {err.strip()[-300:]}"]
        if err:
            return [f"unexpected stderr: {err.strip()[-300:]}"]
        first, problems = self.repeat((index, command), out)
        if not first:
            return problems
        report = json.loads(out)
        measure = self.env.ns.measure
        if command == "solve":
            return oracles.check_solve_report(measure, report, doc.rows, doc.solve)
        if command == "viable":
            return oracles.check_viable_report(measure, report, doc.rows, doc.viable)
        return oracles.check_bias_report(report, doc.contexts, doc.biased)

    def _doc(self, index: int, tracer=None, timed: bool = False) -> float:
        """Run one document's commands; returns their seconds at reference speed."""
        doc = self.docs[index]
        self.attempted += 1
        span = tracer.begin_op(index, "op") if tracer else None
        results = [
            (
                command,
                *call_cli(
                    self.env.ns.cli, [command, doc.path, "--format", "json"], self.clock
                ),
            )
            for command in doc.commands
        ]
        if span:
            tracer.end(span)
        factor = self.op_factor(tracer, index)
        total = 0.0
        problems = []
        for command, code, out, err, seconds in results:
            total += seconds
            if tracer:
                self.bytes_out += len(out.encode())
            if timed:
                self.record("cli", (index, command), seconds, factor)
                if command == "solve":
                    self.record("top_solve", index, seconds, factor)
                if command == "viable":
                    self.record("top_proper", index, seconds, factor)
            problems += self.check(index, command, code, out, err)
        self.failures.add(doc.path.rsplit("/", 1)[-1], problems)
        if timed:
            self.record("op", index, total, factor)
        return total * factor

    def one_pass(self) -> None:
        for index in self.rng.sample(range(len(self.docs)), len(self.docs)):
            self._doc(index, timed=True)

    def inproc_pass(self, tracer) -> float:
        return sum(self._doc(i, tracer) for i in range(len(self.docs)))

    def heap_systems(self):
        ns = self.env.ns
        for doc in self.docs:
            if doc.n == 6:
                yield bundle_system(ns, ns.cli.scenario_from_data(doc.data, None))


WORKLOADS = {w.name: w for w in (BuiltinsCli, NcycleLadder, MixedDocs)}
