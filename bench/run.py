#!/usr/bin/env python3
"""stardecomp benchmark: Monte Carlo trials, large max-flow instances, the
certificate sweep and the CLI's ksc table, with a correctness gate on every
output.

Run from the repository root:

    python3 bench/run.py --workload mc-d10 --seed 0 --seconds 15 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.

Workloads (each a closed loop with one caller, seeded by ``--seed``):

- ``mc-d10``: ``run_decomposition_trials(d=10, k=3, N=60, a_mode="random")``.
- ``mc-d4``: ``run_decomposition_trials(d=4, k=2, N=30, a_mode="random")``.
- ``flow-large``: ``decompose`` at N=30 000, d=10, k=3 on a feasible and an
  infeasible instance.
- ``cert-sweep``: the criterion-5 weak-certificate sweep.
- ``ksc-table``: ``stardecomp ksc --d-max 160 --format json`` through
  ``cli.dispatch``, one table per pass.

``--trace 0`` times the workload untraced for ``--seconds`` of work and
prints the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
passes of a fixed amount of work, prints per-layer metrics from the traced
pass of median length, and writes its spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any output fails the correctness gate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gate  # noqa: E402
from spans import Tracer  # noqa: E402

cli = importlib.import_module("stardecomp.cli")
cd = importlib.import_module("stardecomp.conditions")
dc = importlib.import_module("stardecomp.decompose")
ex = importlib.import_module("stardecomp.experiments")
gr = importlib.import_module("stardecomp.graph")
nm = importlib.import_module("stardecomp.numerics")

# numpy is loaded before the clock starts: its import is a fixed cost outside
# the package, and with it the import took 0.20 to 0.28 s on the sizing
# machine depending on the set of runs.
IMPORT_PROBE = (
    "import numpy, time; t = time.perf_counter(); "
    "import stardecomp.cli, stardecomp.experiments; "
    "print(time.perf_counter() - t)"
)
SETUP_REPS = 3  # input generation repeats; imports are probed IMPORT_REPS times
IMPORT_REPS = 9
# Scale of the speed adjustment: the reference loop's median time on the
# 2-core x86 machine used for sizing (CPython 3.11).  Only sets the units.
REF_LOOP_S = 0.0105
MC_BATCH = 100  # trials per timed call of run_decomposition_trials
MC_TRACED_TRIALS = 600  # fixed work of one traced Monte Carlo pass


@dataclass
class Pass:
    """Outcome of one unit of work: per-operation latencies and failures."""

    wall: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    op_kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    witnesses: int = 0
    successes: int = 0

    def op(self, kind: str, seconds: float, problem: str | None = None) -> None:
        self.op_seconds.append(seconds)
        self.op_kinds.append(kind)
        if problem is not None:
            self.failures.append(f"{kind}: {problem}")

    def merge(self, other: Pass) -> Pass:
        self.wall += other.wall
        self.op_seconds += other.op_seconds
        self.op_kinds += other.op_kinds
        self.failures += other.failures
        self.witnesses += other.witnesses
        self.successes += other.successes
        return self


class Workload:
    """Work split into passes; ``cycle`` consecutive passes do it all once.

    Passes are kept under about a second where the library allows it,
    because the machine's speed is sampled between passes (see ``ref_loop``).
    """

    cycle = 1
    speed_adjusted = True  # divide pass times by the speed factor

    def setup(self, seed: int) -> None:
        """Build the inputs; timed as set-up, never inside a pass."""

    def run(self, seed: int, index: int) -> Pass:
        """One pass."""
        raise NotImplementedError

    def traced_pass(self, seed: int) -> Pass:
        """The fixed work that the traced run repeats: set-up and one cycle."""
        self.setup(seed)
        out = Pass()
        for index in range(self.cycle):
            out.merge(self.run(seed, index))
        return out

    def check_totals(self, passes: list[Pass]) -> list[str]:
        """Checks over a whole run, beyond the per-operation gate."""
        return []

    def latencies(self, passes: list[Pass], speeds: list[float]) -> list[float]:
        """Each operation's speed-adjusted latency, for ``op_p95_ms``."""
        return [s / f for p, f in zip(passes, speeds) for s in p.op_seconds]

    def reference(self) -> float:
        """The machine's speed now, timed between passes (see ``ref_loop``)."""
        return ref_loop()

    def close(self) -> None:
        """Stop any process the workload started."""


class MonteCarlo(Workload):
    """Random d-regular graphs: sample, choose A, decompose, record."""

    def __init__(self, d: int, k: int, N: int, min_rate: float):
        self.d, self.k, self.N, self.min_rate = d, k, N, min_rate

    def run(self, seed: int, index: int, trials: int = MC_BATCH) -> Pass:
        """``trials`` trials; each trial's latency runs from the previous
        trial's return from ``decompose`` (or the start of the pass) to its own."""
        out = Pass()
        captured, stamps = [], []
        inner = ex.decompose

        def capture(G, k, profile):
            result = inner(G, k, profile)
            captured.append((G, profile, result))
            stamps.append(time.perf_counter())
            return result

        ex.decompose = capture
        t0 = time.perf_counter()
        try:
            report = ex.run_decomposition_trials(
                d=self.d, k=self.k, N=self.N, trials=trials, a_mode="random",
                seed=seed * 1_000_000 + index,
            )
            out.wall = time.perf_counter() - t0
        except Exception:
            out.wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            for _ in range(trials):
                out.op("trial", out.wall / trials, "raised")
            return out
        finally:
            ex.decompose = inner
        if len(captured) != trials:
            out.failures.append(f"trial: {len(captured)} decompose calls for {trials} trials")
        latencies = np.diff([t0, *stamps])
        for rec, (G, profile, result), seconds in zip(report.records, captured, latencies):
            problem = gate.check_result(G, self.k, profile, result)
            if problem is None and rec.success != (not isinstance(result, dc.Witness)):
                problem = "record success flag disagrees with the result"
            if problem is None and isinstance(result, dc.Witness) and self.min_rate == 1.0:
                problem = "witness in the Eulerian case, which always decomposes"
            out.witnesses += isinstance(result, dc.Witness)
            out.successes += rec.success
            out.op("trial", float(seconds), problem)
        return out

    def traced_pass(self, seed: int) -> Pass:
        return self.run(seed, 0, trials=MC_TRACED_TRIALS)

    def check_totals(self, passes: list[Pass]) -> list[str]:
        trials = sum(len(p.op_seconds) for p in passes)
        rate = sum(p.successes for p in passes) / trials
        if rate < self.min_rate:
            return [f"success rate {rate:.4f} below {self.min_rate} over {trials} trials"]
        return []

    def report(self, passes: list[Pass]) -> dict:
        lat = [s for p in passes for s in p.op_seconds]
        return {
            "graphs_per_s": (len(lat) / sum(p.wall for p in passes), "1/s"),
            "trial_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "trial_p95_ms": (1e3 * float(np.percentile(lat, 95)), "ms"),
            "trials": (len(lat), "count"),
            "success_rate": (sum(p.successes for p in passes) / len(lat), "ratio"),
        }


class FlowLarge(Workload):
    """decompose at N=30 000, d=10, k=3 on one feasible, one infeasible instance."""

    N, d, k, half = 30_000, 10, 3, 15_000
    cycle = 2  # pass 0 decomposes the feasible instance, pass 1 the infeasible one
    # Its seconds-long, memory-bound calls follow the reference loop only
    # weakly: a 1.4x slower loop went with a 1.1x slower decompose, and
    # adjusting from the loop times at the ends of each call spread
    # ops_per_s over seeds by 0.21 against 0.05 raw.
    speed_adjusted = False

    def setup(self, seed: int) -> None:
        self.inputs = None  # free the previous instances before building new ones
        sub = np.random.SeedSequence([seed, 30_000]).generate_state(4)
        rng = np.random.default_rng(int(sub[3]))
        N, d, k, half = self.N, self.d, self.k, self.half
        G = gr.sample_simple(N, d, int(sub[0]))
        A = rng.choice(N, size=N * (d % (2 * k)) // (2 * k), replace=False)
        feasible = (G, dc.balanced_profile(N, d, k, A.tolist()))
        # Two disjoint 10-regular blocks; A is all of the first block plus 5 000
        # vertices of the second, so e[block 2] = 75 000 > its quota 60 000.
        B1 = gr.sample_simple(half, d, int(sub[1]))
        B2 = gr.sample_simple(half, d, int(sub[2]))
        H = gr.SimpleGraph(
            N=N, d=d,
            edges=tuple(sorted(B1.edges + tuple((u + half, v + half) for u, v in B2.edges))),
        )
        A2 = list(range(half)) + (half + rng.choice(half, size=5_000, replace=False)).tolist()
        infeasible = (H, dc.balanced_profile(N, d, k, A2))
        self.inputs = (feasible, infeasible)

    def run(self, seed: int, index: int) -> Pass:
        out = Pass()
        kind = ("feasible", "infeasible")[index % 2]
        G, profile = self.inputs[index % 2]
        t0 = time.perf_counter()
        try:
            result = dc.decompose(G, self.k, profile)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        out.wall = time.perf_counter() - t0
        problem = "raised" if result is None else gate.check_result(G, self.k, profile, result)
        if problem is None and kind == "infeasible" and not isinstance(result, dc.Witness):
            problem = "no witness for an instance with e[block 2] > its quota"
        out.witnesses += isinstance(result, dc.Witness)
        out.op(kind, out.wall, problem)
        return out

    def report(self, passes: list[Pass]) -> dict:
        def med(kind):
            return statistics.median(
                s for p in passes for s, k in zip(p.op_seconds, p.op_kinds) if k == kind
            )

        return {
            "decompose_s": (med("feasible"), "s"),
            "witness_s": (med("infeasible"), "s"),
            "instances": (sum(len(p.op_seconds) for p in passes), "count"),
        }


class CertSweep(Workload):
    """Criterion 5's weak-certificate sweep.

    Each of the nine passes covers twelve values of d (13..120); the last one
    ends with the (98, 48) control.  The inputs are fixed (d, k) pairs, so the
    seed changes nothing here.
    """

    D_VALUES = range(13, 121)
    CHUNK = 12
    cycle = len(D_VALUES) // CHUNK

    def run(self, seed: int, index: int) -> Pass:
        part = index % self.cycle
        out = Pass()
        t0 = time.perf_counter()
        for d in self.D_VALUES[part * self.CHUNK:(part + 1) * self.CHUNK]:
            lo = cd.k_sc(d).k_sc
            for k in range(lo + 1, d // 2):
                if not k < d / 2 - 1:
                    continue
                c0 = time.perf_counter()
                try:
                    cert = cd.weak_certificate(cd.star_params(d, k))
                    problem = None if cert.verdict else f"({d}, {k}) max_bound {cert.max_bound}"
                except Exception as exc:
                    problem = f"({d}, {k}) raised {exc!r}"
                out.op("certificate", time.perf_counter() - c0, problem)
        if part == self.cycle - 1:
            c0 = time.perf_counter()
            try:
                control = cd.weak_certificate(cd.star_params(98, 48))
                problem = None if not control.verdict and control.max_bound > 0 else (
                    f"(98, 48) verdict {control.verdict}, max_bound {control.max_bound}"
                )
            except Exception as exc:
                problem = f"(98, 48) raised {exc!r}"
            out.op("control", time.perf_counter() - c0, problem)
        out.wall = time.perf_counter() - t0
        return out

    def latencies(self, passes: list[Pass], speeds: list[float]) -> list[float]:
        """Each certificate's median latency over the run's sweeps.

        Certificate times are narrow (most within 12-14 ms on the sizing
        machine), so the p95 of single timings lands on the machine's
        stalls: a run's p95 moved between 14 and 31 ms.  A run repeats the
        sweep two to four times; the median drops a stall in one of them.
        """
        per_pass = [[s / f for s in p.op_seconds] for p, f in zip(passes, speeds)]
        sweeps = [
            [s for lat in per_pass[i:i + self.cycle] for s in lat]
            for i in range(0, len(per_pass), self.cycle)
        ]
        return np.median(np.array(sweeps), axis=0).tolist()

    def check_totals(self, passes: list[Pass]) -> list[str]:
        sweeps = sum(p.op_kinds.count("control") for p in passes)
        pairs = sum(p.op_kinds.count("certificate") for p in passes)
        if pairs != 503 * sweeps:
            return [f"{pairs} pairs in {sweeps} sweeps; criterion 5 has 503 per sweep"]
        return []

    def report(self, passes: list[Pass]) -> dict:
        cycles = [passes[i:i + self.cycle] for i in range(0, len(passes), self.cycle)]
        return {
            "sweep_s": (statistics.median(sum(p.wall for p in c) for c in cycles), "s"),
            "certificates": (sum(len(p.op_seconds) for p in passes), "count"),
        }


class KscTable(Workload):
    """``stardecomp ksc --d-max 160 --format json`` through ``cli.dispatch``,
    with default flags as users run it; one table per pass."""

    D_MAX = 160
    CORES = os.cpu_count() or 1  # the CLI's default pool size

    def __init__(self):
        self.library: dict[int, int] | None = None
        self.ref_pool: ProcessPoolExecutor | None = None

    def reference(self) -> float:
        """``ref_loop`` on every core at once, as the table's pool uses them.

        A process spinning on one of the two cores slowed the table by a
        quarter and left the single-core loop unchanged.
        """
        if self.ref_pool is None:
            self.ref_pool = ProcessPoolExecutor(max_workers=self.CORES)
        futures = [self.ref_pool.submit(ref_loop) for _ in range(self.CORES)]
        return statistics.fmean(f.result() for f in futures)

    def close(self) -> None:
        if self.ref_pool is not None:
            self.ref_pool.shutdown()

    def library_table(self) -> float:
        """Serial library k_sc over the CLI's d range; returns its seconds."""
        t0 = time.perf_counter()
        self.library = {d: cd.k_sc(d).k_sc for d in range(13, self.D_MAX + 1)}
        return time.perf_counter() - t0

    def run(self, seed: int, index: int) -> Pass:
        out = Pass()
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"ksc-{os.getpid()}.json"
        t0 = time.perf_counter()
        code = cli.dispatch(
            ["ksc", "--d-max", str(self.D_MAX), "--format", "json", "-o", str(path)]
        )
        out.wall = time.perf_counter() - t0
        try:
            rows = json.loads(path.read_text())["rows"] if code == 0 else None
        finally:
            path.unlink(missing_ok=True)
        if self.library is None:
            self.library_table()
        problem = f"exit code {code}" if rows is None else gate.check_ksc_rows(rows, self.library)
        out.op("table", out.wall, problem)
        return out

    def report(self, passes: list[Pass]) -> dict:
        return {
            "ksc_table_s": (statistics.median(p.wall for p in passes), "s"),
            "tables": (len(passes), "count"),
        }


WORKLOADS = {
    "mc-d10": lambda: MonteCarlo(d=10, k=3, N=60, min_rate=0.95),
    "mc-d4": lambda: MonteCarlo(d=4, k=2, N=30, min_rate=1.0),
    "flow-large": FlowLarge,
    "cert-sweep": CertSweep,
    "ksc-table": KscTable,
}


def trace_targets() -> list[tuple]:
    """(module, attribute, span name) for each binding callers look up."""
    return [
        (ex, "run_decomposition_trials", "experiments.run_decomposition_trials"),
        (ex, "sample_simple", "graph.sample_simple"),
        (ex, "reject_to_simple", "graph.reject_to_simple"),
        (gr, "sample_simple", "graph.sample_simple"),
        (gr, "gen_configuration", "graph.gen_configuration"),
        (ex, "balanced_profile", "decompose.balanced_profile"),
        (dc, "balanced_profile", "decompose.balanced_profile"),
        (ex, "decompose", "decompose.decompose"),
        (dc, "decompose", "decompose.decompose"),
        (dc, "orient_with_outdegrees", "decompose.orient_with_outdegrees"),
        (dc, "stars_from_orientation", "decompose.stars_from_orientation"),
        (dc, "verify_decomposition", "decompose.verify_decomposition"),
        (cd, "k_sc", "conditions.k_sc"),
        (cd, "strong_condition", "conditions.strong_condition"),
        (cd, "weak_certificate", "conditions.weak_certificate"),
        (cd, "find_x_bounds", "conditions.find_x_bounds"),
        (cd, "bound_case1", "conditions.bound_case1"),
        (cd, "bound_case2", "conditions.bound_case2"),
        (cd, "rate_F", "numerics.rate_F"),
        (cd, "rate_Fd", "numerics.rate_Fd"),
        (cd, "g_alpha", "numerics.g_alpha"),
        (nm, "rate_F", "numerics.rate_F"),
        (cli, "dispatch", "cli.dispatch"),
    ]


LAYERS = ("graph", "decompose", "experiments", "conditions", "numerics", "cli")


def layer_metrics(tracer: Tracer, out: Pass) -> dict:
    """Per-layer metrics of one traced pass (root span = index 0)."""
    spans = tracer.spans
    own = tracer.self_times()

    def outer(*names):
        """Spans with a listed name whose parent has none of the names."""
        return [
            s for s in spans
            if s[0] in names and (s[3] < 0 or spans[s[3]][0] not in names)
        ]

    def total(*names):
        return sum(end - start for _, start, end, _, _ in outer(*names))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    samples = [end - start for _, start, end, _, _ in outer(
        "graph.sample_simple", "graph.reject_to_simple")]
    rate_f = [s for s in spans if s[0] == "numerics.rate_F"]
    points = sum(s[4] for s in rate_f)
    metrics = {
        "graph.sample_s": total("graph.sample_simple", "graph.reject_to_simple"),
        "graph.sample_p95_ms": 1e3 * float(np.percentile(samples, 95)) if samples else 0.0,
        "graph.configs_per_graph": count("graph.gen_configuration") / len(samples)
        if samples else 0.0,
        "decompose.orient_s": total("decompose.orient_with_outdegrees"),
        "decompose.orient_calls": count("decompose.orient_with_outdegrees"),
        "decompose.extract_s": total("decompose.stars_from_orientation"),
        "decompose.verify_s": total("decompose.verify_decomposition"),
        "decompose.witness_count": out.witnesses,
        "experiments.overhead_s": sum(
            own[i] for i, s in enumerate(spans) if s[0] == "experiments.run_decomposition_trials"
        ),
        "conditions.window_s": total("conditions.find_x_bounds"),
        "conditions.scan_s": total("conditions.bound_case1", "conditions.bound_case2"),
        "conditions.strong_s": total("conditions.strong_condition"),
        "conditions.pairs": count("conditions.weak_certificate"),
        "numerics.rate_F_calls": len(rate_f),
        "numerics.rate_F_points": points,
        "numerics.points_per_call": points / len(rate_f) if rate_f else 0.0,
        "numerics.rate_F_s": total("numerics.rate_F"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = sum(
            own[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer
        )
    metrics["trace.remainder_s"] = sum(
        own[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] not in LAYERS
    )
    metrics["trace.wall_s"] = spans[0][2] - spans[0][1]
    return metrics


COUNTS = (
    "graph.configs_per_graph",
    "decompose.orient_calls",
    "decompose.witness_count",
    "conditions.pairs",
    "numerics.rate_F_calls",
    "numerics.rate_F_points",
)

PER_LAYER_UNITS = {
    "graph.sample_p95_ms": "ms",
    "machine.ref_ms": "ms",
    "graph.configs_per_graph": "ratio",
    "numerics.points_per_call": "ratio",
    **{name: "count" for name in COUNTS if name != "graph.configs_per_graph"},
}


def ref_loop() -> float:
    """Time of a fixed pure-Python loop of about 10 ms: the machine's speed now.

    The shared machine the benchmark was sized on ran anywhere between 1.0x
    and 1.9x slower from one second to the next, in both wall and CPU time.
    Timing this loop at every pass boundary and dividing each pass's times by
    the speed factor around it removes that swing; the raw times are printed
    beside the adjusted ones.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0


def speed_factors(bounds: list[float]) -> list[float]:
    """Slowdown of each interval against REF_LOOP_S, from the reference-loop
    times at its two ends."""
    return [(a + b) / 2 / REF_LOOP_S for a, b in zip(bounds, bounds[1:])]


def import_seconds() -> float:
    """Median import time of the package over fresh interpreters.

    Not speed-adjusted: in one set of runs the reference loop ran 1.3x
    slower than in another while import times stayed the same.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_run(wl, seed: int, seconds: float):
    """Time set-up, then passes until ``seconds`` of work; adjust the passes
    for speed."""
    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t0)

    passes, bounds = [], [wl.reference()]
    while not passes or len(passes) % wl.cycle or sum(p.wall for p in passes) < seconds:
        passes.append(wl.run(seed, len(passes)))
        bounds.append(wl.reference())
    factors = speed_factors(bounds)
    speeds = factors if wl.speed_adjusted else [1.0] * len(factors)
    lat = [s for p in passes for s in p.op_seconds]
    adjusted = wl.latencies(passes, speeds)
    metrics = {
        "setup_s": (imports + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (len(lat) / sum(p.wall / f for p, f in zip(passes, speeds)), "1/s"),
        "op_p95_ms": (1e3 * float(np.percentile(adjusted, 95)), "ms"),
    }
    raw = {
        "speed_factor": (statistics.median(factors), "ratio"),
        "raw.ops_per_s": (len(lat) / sum(p.wall for p in passes), "1/s"),
        "raw.op_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "raw.op_p95_ms": (1e3 * float(np.percentile(lat, 95)), "ms"),
        "ops": (len(lat), "count"),
    }
    return passes, metrics, {**raw, **wl.report(passes)}


def traced_run(wl, workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes of the same fixed work."""
    targets = trace_targets()
    passes, untraced, traced = [], [], []
    library_s, refs = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        refs.append(ref_loop())
        if isinstance(wl, KscTable):
            library_s.append(wl.library_table())
        t0 = time.perf_counter()
        passes.append(wl.traced_pass(seed))
        untraced.append(time.perf_counter() - t0)

        tracer = Tracer()
        with tracer.patched(targets):
            out = tracer.wrap("bench.pass", wl.traced_pass)(seed)
        passes.append(out)
        traced.append((tracer, out))

    layers = [layer_metrics(t, out) for t, out in traced]
    problems = []
    for m in layers[1:]:
        for name in COUNTS:
            if m[name] != layers[0][name]:
                problems.append(f"{name} differs between traced passes: "
                                f"{layers[0][name]} != {m[name]}")
    order = sorted(range(len(layers)), key=lambda i: layers[i]["trace.wall_s"])
    chosen = order[(len(order) - 1) // 2]
    metrics = dict(layers[chosen])
    metrics["machine.ref_ms"] = 1e3 * statistics.median(refs)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (
        statistics.median(m["trace.wall_s"] for m in layers) - metrics["trace.untraced_s"]
    )
    metrics["cli.ksc_overhead_s"] = (
        statistics.median(p.wall for p in passes[0::2])
        - statistics.median(library_s)
        if library_s else 0.0
    )
    traced[chosen][0].write(OUT / f"trace-{workload}-seed{seed}.json")
    units = {name: PER_LAYER_UNITS.get(name, "s") for name in metrics}
    return passes, {name: (v, units[name]) for name, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One fresh process per workload, so peak_rss_mb is each workload's own.
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    problems = [f"gate self-test: {m}" for m in gate.selftest()]
    wl = WORKLOADS[args.workload]()
    try:
        if args.trace:
            passes, metrics, count_problems = traced_run(wl, args.workload, args.seed,
                                                         args.seconds)
            problems += count_problems
            shown = dict(metrics)
        else:
            passes, metrics, detail = timed_run(wl, args.seed, args.seconds)
            shown = {**metrics, **detail}
    finally:
        wl.close()
    failures = [f for p in passes for f in p.failures]
    problems += wl.check_totals(passes)
    attempted = sum(len(p.op_seconds) for p in passes)
    failed = min(attempted, len(failures))
    shown["failed_share"] = (failed / attempted, "ratio")

    for reason in (failures[:20] + problems):
        print(f"FAILED {reason}")
    width = max(len(n) for n in shown)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    if args.trace:
        wall = metrics["trace.wall_s"][0]
        parts = {layer: metrics[f"self.{layer}_s"][0] for layer in LAYERS}
        parts["remainder"] = metrics["trace.remainder_s"][0]
        print("  self-time accounting of the traced pass: " + ", ".join(
            f"{k} {v:.3f}s ({100 * v / wall:.1f}%)" for k, v in parts.items()
        ) + f"; sum {sum(parts.values()):.3f}s of wall {wall:.3f}s")

    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
