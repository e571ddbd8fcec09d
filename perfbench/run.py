"""Seeded benchmark of the centerstring solvers.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process solves the workload's batch of planted
instances in a closed loop (the next solve starts when the previous one
returns) by calling the solvers' public functions.  ``--trace 0`` reports
the end-to-end metrics of an untraced pass; ``--trace 1`` runs an untraced
pass, replays the same solves with every layer traced and reports the
per-layer metrics.  Outputs are checked off the clock in both modes.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import outputs  # noqa: E402
from perfbench.spans import Totals, Tracer  # noqa: E402
from perfbench.workloads import BY_NAME, R, Workload, instance_texts, oracle_fits, warmup_text  # noqa: E402

MIN_SOLVES = 21  # so that at least ten solves lie beyond the median
CAP_FACTOR = 3  # a slow program may overrun --seconds by this factor to reach MIN_SOLVES
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "correct_frac": "ratio",
    "radius_ratio.mean": "ratio",
    "radius_ratio.max": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "agreement.calls": "count",
    "agreement.self_s": "s",
    "cost_eval.calls": "count",
    "cost_eval.self_s": "s",
    "seq_build.calls": "count",
    "seq_build.self_s": "s",
    "restricted_build.calls": "count",
    "restricted_build.self_s": "s",
    "restricted.calls": "count",
    "restricted.self_s": "s",
    "restricted.enum_share": "ratio",
    "lp_build.calls": "count",
    "lp_build.self_s": "s",
    "lp_wrapper.self_s": "s",
    "lp_highs.self_s": "s",
    "lp.vars": "count",
    "lp.nnz": "count",
    "rounding.derand_calls": "count",
    "rounding.rand_calls": "count",
    "rounding.self_s": "s",
    "patch_sweep.string.calls": "count",
    "patch_sweep.string.patches": "count",
    "patch_sweep.string.self_s": "s",
    "patch_sweep.string.patches_per_s": "1/s",
    "patch_sweep.substring.patches": "count",
    "patch_sweep.substring.self_s": "s",
    "window_tuples.count": "count",
    "window_select.calls": "count",
    "window_select.self_s": "s",
    "sampling.distinct": "count",
    "sampling.distinct_ratio": "ratio",
    "solver.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "io.parse_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
    "known_defect.budget_exceeded": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def load_package():
    """Import centerstring from this checkout's src/, never from elsewhere."""
    if not (SRC / "centerstring" / "__init__.py").is_file():
        raise BenchError(f"no centerstring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import centerstring

    if not Path(centerstring.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"centerstring was imported from {centerstring.__file__}, not {SRC}")
    return centerstring


@dataclass(frozen=True)
class Solve:
    index: int  # position in the batch
    seconds: float
    out: tuple | str  # (center, radius, witnesses), or the error's class name


class Bench:
    """Solves one workload's instances through the package's public functions."""

    def __init__(self, pkg, w: Workload) -> None:
        self.pkg, self.w = pkg, w
        if w.solver == "string":
            self.cfg = pkg.ClosestStringConfig(
                r=R, rounding=pkg.RoundingConfig(epsilon_prime=w.epsilon_prime))
        else:
            self.cfg = pkg.SubstringConfig(r=R, epsilon=w.epsilon, mode=w.mode)

    def parse(self, texts: list[str]) -> list:
        return [self.pkg.io_cli.InstanceFile.parse_json(t).to_instance() for t in texts]

    def solve(self, inst):
        # looked up on each call so that traced bindings take effect
        if self.w.solver == "string":
            return self.pkg.closest_string.solve_closest_string(inst, self.cfg)
        return self.pkg.closest_substring.solve_substring(inst, self.cfg)

    def attempt(self, inst) -> tuple | str:
        try:
            sol = self.solve(inst)
        except self.pkg.errors.CenterStringError as exc:
            return type(exc).__name__
        return (tuple(sol.center.data), sol.radius, tuple(sol.witnesses))

    def loop(self, instances: list, seconds: float, min_solves: int) -> tuple[list[Solve], float]:
        """Closed loop over the batch, cycling if it runs out, until `seconds`
        have passed and `min_solves` solves are done (or CAP_FACTOR*seconds)."""
        solves: list[Solve] = []
        start = perf_counter()
        while True:
            i = len(solves) % len(instances)
            t0 = perf_counter()
            out = self.attempt(instances[i])
            t1 = perf_counter()
            solves.append(Solve(i, t1 - t0, out))
            elapsed = t1 - start
            if elapsed >= seconds and len(solves) >= min_solves or elapsed >= CAP_FACTOR * seconds:
                return solves, elapsed

    def replay(self, instances: list, order: list[int], tracer: Tracer, totals: Totals) -> list[Solve]:
        """The given solves again, traced; spans are folded after each solve."""
        solves = []
        for sid, i in enumerate(order):
            tracer.solve_id = sid
            t0 = perf_counter()
            out = self.attempt(instances[i])
            t1 = perf_counter()
            solves.append(Solve(i, t1 - t0, out))
            tracer.drain(totals)
        return solves

    def reference(self, inst, parsed: outputs.Parsed) -> int:
        """Exact optimum where the oracle's sweep fits, else the planted d."""
        if not oracle_fits(parsed.k, parsed.width):
            return parsed.planted_d
        exact = self.pkg.exact
        if parsed.L is None:
            return exact.exact_closest_string(inst).radius
        return exact.exact_closest_substring(inst).radius


def time_setup(texts: list[str]) -> float:
    """Median over fresh processes of importing the package and parsing the batch."""
    payload = "\n".join(texts) + "\n"
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_child.py")), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
        runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


@dataclass
class Checked:
    ok: list[bool]  # per solve: returned, passed the output check, repeats agree
    problems: list[str]
    ratios: list[float]  # radius / reference, one per distinct correct instance

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def references(bench: Bench, texts: list[str], instances: list, solves: list[Solve]) -> dict[int, int]:
    refs: dict[int, int] = {}
    for s in solves:
        if s.index not in refs:
            refs[s.index] = bench.reference(instances[s.index], outputs.Parsed.of(texts[s.index]))
    return refs


def check(bench: Bench, texts: list[str], solves: list[Solve], refs: dict[int, int]) -> Checked:
    """Verify every solve off the clock; repeats of an instance must agree."""
    bound = bench.w.bound()
    first: dict[int, tuple | str] = {}
    ok, problems, ratios = [], [], []
    for s in solves:
        if isinstance(s.out, str):
            bad = [s.out]
        else:
            bad = outputs.violations(outputs.Parsed.of(texts[s.index]), *s.out, refs[s.index], bound)
            if s.index in first and first[s.index] != s.out:
                bad.append("a repeated solve returned a different result")
            if not bad and s.index not in first:
                ratios.append(outputs.ratio(s.out[1], refs[s.index]))
        first.setdefault(s.index, s.out)
        ok.append(not bad)
        problems.extend(f"instance {s.index}: {b}" for b in bad)
    return Checked(ok, problems, ratios)


def probe(bench: Bench, seed: int) -> tuple[int, list[str]]:
    """Solve the workload's known-defect instance off the clock.

    Returns (1 if it raised BudgetExceeded else 0, problems with its output).
    """
    if bench.w.probe is None:
        return 0, []
    pb = Bench(bench.pkg, bench.w.probe)
    text = instance_texts(pb.w, seed)[0]
    inst = pb.parse([text])[0]
    out = pb.attempt(inst)
    if out == "BudgetExceeded":
        return 1, []
    if isinstance(out, str):
        return 0, [f"probe: {out}"]
    parsed = outputs.Parsed.of(text)
    bad = outputs.violations(parsed, *out, pb.reference(inst, parsed), pb.w.bound())
    return 0, [f"probe: {b}" for b in bad]


@dataclass
class Report:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]


def measure_end_to_end(bench: Bench, seed: int, seconds: float) -> Report:
    texts = instance_texts(bench.w, seed)
    setup_s = time_setup(texts)
    instances = bench.parse(texts)
    bench.attempt(bench.parse([warmup_text(bench.w, seed)])[0])
    solves, elapsed = bench.loop(instances, seconds, MIN_SOLVES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = check(bench, texts, solves, references(bench, texts, instances, solves))
    defect, probe_problems = probe(bench, seed)
    times = sorted(s.seconds if good else math.inf for s, good in zip(solves, checked.ok))
    correct = checked.ok.count(True)
    metrics = {
        "setup_s": setup_s,
        "solves_per_s": correct / elapsed,
        "solve_s.p50": statistics.median(times),
        "correct_frac": correct / len(solves),
        "radius_ratio.mean": statistics.fmean(checked.ratios) if checked.ratios else math.nan,
        "radius_ratio.max": max(checked.ratios, default=math.nan),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"solves attempted {len(solves)}, beyond the median {len(times) - len(times) // 2 - 1}",
             f"distinct instances solved {len({s.index for s in solves})} of batch {len(texts)}",
             f"failed_frac {checked.failed / len(solves)}"]
    if bench.w.probe is not None:
        notes.append(f"known defect: probe instance raised BudgetExceeded: {bool(defect)}")
    return Report(metrics, len(solves), checked.failed, checked.problems + probe_problems, notes)


def measure_layers(bench: Bench, seed: int, seconds: float) -> Report:
    texts = instance_texts(bench.w, seed)
    t0 = perf_counter()
    instances = bench.parse(texts)
    parse_s = perf_counter() - t0
    bench.attempt(bench.parse([warmup_text(bench.w, seed)])[0])
    plain, _ = bench.loop(instances, seconds / 2, 1)
    totals, ref_totals = Totals(), Totals()
    with Tracer() as tracer:
        traced = bench.replay(instances, [s.index for s in plain], tracer, totals)
        tracer.solve_id = -1
        refs = references(bench, texts, instances, traced)
        tracer.drain(ref_totals)
    defect, probe_problems = probe(bench, seed)
    checked = check(bench, texts, traced, refs)
    problems = checked.problems + probe_problems
    if [s.out for s in traced] != [s.out for s in plain]:
        problems.append("the traced pass returned different results from the untraced pass")
    n = len(traced)
    c, t = totals.calls, totals.self_s

    def per(name):
        return c[name] / n

    def self_per(*names):
        return sum(t[x] for x in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    lp_sizes = totals.values["lp_build"]
    sweep_patches = sum(totals.values["patch_sweep.string"])
    sub_patches = sum(totals.values_under["agreement", "patch_sweep.substring"])
    distinct = totals.calls_under["restricted", "solver.sampling"]
    guesses = totals.calls_under["window_select", "solver.sampling"]
    n_refs = len(refs)
    metrics = {
        "agreement.calls": per("agreement"),
        "agreement.self_s": self_per("agreement"),
        "cost_eval.calls": per("cost_eval"),
        "cost_eval.self_s": self_per("cost_eval"),
        "seq_build.calls": per("seq_build"),
        "seq_build.self_s": self_per("seq_build"),
        "restricted_build.calls": per("restricted_build"),
        "restricted_build.self_s": self_per("restricted_build"),
        "restricted.calls": per("restricted"),
        "restricted.self_s": self_per("restricted"),
        "restricted.enum_share": ratio(c["patch_sweep.string"], c["restricted"]),
        "lp_build.calls": per("lp_build"),
        "lp_build.self_s": self_per("lp_build"),
        "lp_wrapper.self_s": self_per("lp_wrapper"),
        "lp_highs.self_s": self_per("lp_highs"),
        "lp.vars": ratio(sum(v for v, _ in lp_sizes), len(lp_sizes)),
        "lp.nnz": ratio(sum(z for _, z in lp_sizes), len(lp_sizes)),
        "rounding.derand_calls": per("rounding.derand"),
        "rounding.rand_calls": per("rounding.rand"),
        "rounding.self_s": self_per("rounding.derand", "rounding.rand"),
        "patch_sweep.string.calls": per("patch_sweep.string"),
        "patch_sweep.string.patches": sweep_patches / n,
        "patch_sweep.string.self_s": self_per("patch_sweep.string"),
        "patch_sweep.string.patches_per_s": ratio(sweep_patches, t["patch_sweep.string"]),
        "patch_sweep.substring.patches": sub_patches / n,
        "patch_sweep.substring.self_s": self_per("patch_sweep.substring"),
        "window_tuples.count": per("window_tuples"),
        "window_select.calls": per("window_select"),
        "window_select.self_s": self_per("window_select"),
        "sampling.distinct": distinct / n,
        "sampling.distinct_ratio": ratio(distinct, guesses),
        "solver.self_s": self_per("solver.string", "solver.sampling", "solver.dispatch"),
        "oracle.calls": ref_totals.calls["oracle"] / n_refs,
        "oracle.self_s": ref_totals.self_s["oracle"] / n_refs,
        "io.parse_s": parse_s,
        "trace.overhead_s": (sum(s.seconds for s in traced) - sum(s.seconds for s in plain)) / n,
        "failed_frac": checked.failed / n,
        "known_defect.budget_exceeded": float(defect),
    }
    notes = [f"traced solves {n}, reference instances {n_refs}"]
    if tracer.absent:
        notes.append(f"absent layers, their metrics read 0: {', '.join(sorted(tracer.absent))}")
    solve_time = sum(s.seconds for s in traced)
    for name in sorted(t):
        notes.append(f"self-time share of traced solves, {name}: {t[name] / solve_time:.3f}")
    return Report(metrics, n, checked.failed, problems, notes)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        bench = Bench(load_package(), BY_NAME[args.workload])
        measure = measure_layers if args.trace else measure_end_to_end
        report = measure(bench, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in report.notes:
        print(f"  {note}")
    for problem in report.problems:
        print(f"  FAILED {problem}")
    for name, unit in units.items():
        extra = f"  (attempted {report.attempted})" if name == "solve_s.p50" else ""
        print(f"  {name:34s} {report.metrics[name]:.6g} {unit}{extra}")
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": _finite(report.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


if __name__ == "__main__":
    sys.exit(main())
