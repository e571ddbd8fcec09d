"""Instance ingestion (JSON/FASTA), planted-instance generation, the
benchmark harness and the command line interface.

JSON schema:
    {"alphabet": "...", "strings": [...], "L": optional int,
     "planted": optional {"center": "...", "d": int, "offsets": [...]}}
FASTA: `>`-header records, sequence lines concatenated, symbols upper-cased;
the alphabet is the sorted distinct symbol set unless supplied explicitly,
and a supplied one is upper-cased too.

Solution JSON of the solve and exact subcommands:
    {"algo": "string" | "substring" | "exact", "center": "...", "radius": int,
     "offsets_1based": [...], "guessed_tuples": int, "params": {...}}
guessed_tuples counts the substring window tuples whose center was
guessed (0 elsewhere), so it tells which ratio bound holds; params hold
every setting that can change the result, at the value the solver used.

CSV columns of the bench report:
    instance,seed,algo,r,epsilon,radius,oracle,ratio,ms,status
bench exits 0 when every measured ratio is within its declared bound, and
1 when one is not or when no row measured one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .closest_string import ClosestStringConfig, solve_closest_string
from .closest_substring import SubstringConfig, solve_substring
from .core import Alphabet, CenterSolution, Seq, StringInstance, SubstringInstance
from .errors import CenterStringError, DomainError
from .exact import DEFAULT_EXACT_BUDGET, exact_closest_string, exact_closest_substring
from .lp_round import _ROUNDING_MODES, RoundingConfig

ALGOS = ("exact", "string", "substring")


@dataclass(frozen=True)
class PlantedMeta:
    center: str
    d: int
    offsets: tuple[int, ...]


@dataclass(frozen=True)
class InstanceFile:
    """Parsed instance payload, format-independent."""

    alphabet: str
    strings: tuple[str, ...]
    window: int | None = None
    planted: PlantedMeta | None = None

    @classmethod
    def parse_json(cls, text: str, alphabet: str | None = None) -> "InstanceFile":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or "strings" not in obj:
            raise DomainError("JSON instance must be an object with a 'strings' list")
        strings = obj["strings"]
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise DomainError("'strings' must be a list of JSON strings")
        if not isinstance(obj.get("alphabet", ""), str):
            raise DomainError("'alphabet' must be a JSON string")
        alpha = alphabet or obj.get("alphabet") or _infer_alphabet(strings)
        planted = None
        if obj.get("planted") is not None:
            p = obj["planted"]
            if not isinstance(p, dict) or not {"center", "d", "offsets"} <= p.keys():
                raise DomainError("'planted' must be an object with 'center', 'd' and 'offsets'")
            if not isinstance(p["center"], str) or not isinstance(p["offsets"], list):
                raise DomainError("'planted' needs a string 'center' and an 'offsets' list")
            offsets = tuple(_json_int(o, "a planted offset") for o in p["offsets"])
            planted = PlantedMeta(p["center"], _json_int(p["d"], "'planted.d'"), offsets)
        window = obj.get("L")
        return cls(alpha, tuple(strings), None if window is None else _json_int(window, "'L'"), planted)

    @classmethod
    def parse_fasta(cls, text: str, alphabet: str | None = None) -> "InstanceFile":
        strings: list[str] = []
        current: list[str] | None = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if current is not None:
                    strings.append("".join(current))
                current = []
            else:
                if current is None:
                    current = []  # headerless FASTA body: one record
                current.append(line.upper())
        if current is not None:
            strings.append("".join(current))
        if not strings:
            raise DomainError("no sequences found in FASTA input")
        # the records are upper-cased, so a declared alphabet is too
        alpha = alphabet.upper() if alphabet else _infer_alphabet(tuple(strings))
        return cls(alpha, tuple(strings))

    @classmethod
    def load(cls, path: str | Path, alphabet: str | None = None) -> "InstanceFile":
        """Read a JSON instance if the name ends in .json or the text starts
        with '{' (after whitespace), else a FASTA one.  The file must be
        UTF-8 text."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        if str(path).endswith(".json") or text.lstrip().startswith("{"):
            return cls.parse_json(text, alphabet)
        return cls.parse_fasta(text, alphabet)

    def emit_json(self) -> str:
        obj: dict = {"alphabet": self.alphabet, "strings": list(self.strings)}
        if self.window is not None:
            obj["L"] = self.window
        if self.planted is not None:
            obj["planted"] = {
                "center": self.planted.center,
                "d": self.planted.d,
                "offsets": list(self.planted.offsets),
            }
        return json.dumps(obj, indent=2) + "\n"

    def to_instance(self) -> StringInstance | SubstringInstance:
        """The whole-string view without an L, the substring view with one."""
        return self.as_string_instance() if self.window is None else self.as_substring_instance()

    def as_string_instance(self) -> StringInstance:
        """Whole-string view; an explicit window must equal every string length."""
        if self.window is not None and any(len(s) != self.window for s in self.strings):
            raise DomainError("the whole-string solver needs L equal to every string length")
        return StringInstance.from_texts(Alphabet.of(self.alphabet), self.strings)

    def as_substring_instance(self) -> SubstringInstance:
        """View with an explicit window; a whole-string instance, whose
        strings must then have equal length, gets L=m."""
        if self.window is None:
            whole = self.as_string_instance()
            return SubstringInstance(whole.alphabet, whole.matrix, whole.m)
        return SubstringInstance.from_texts(Alphabet.of(self.alphabet), self.strings, self.window)


def _json_int(value: object, what: str) -> int:
    # bool is a subclass of int, but `true` is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _infer_alphabet(strings: Sequence[str]) -> str:
    symbols = set({c for s in strings for c in s})
    # an alphabet needs two symbols even if the input only uses one
    for filler in "01AB":
        if len(symbols) >= 2:
            break
        symbols.add(filler)
    return "".join(sorted(symbols))


def generate_planted(
    alphabet: str, n: int, m: int, l: int, d: int, seed: int
) -> tuple[SubstringInstance, PlantedMeta]:
    """Random strings, each carrying a copy of a random center mutated in
    exactly d positions and planted at a random offset.  The instance
    optimum is therefore at most d.  Fully determined by the seed.
    """
    alpha = Alphabet.of(alphabet)
    k = alpha.size
    if n < 1 or m < 1 or l < 1:
        raise DomainError("n, m, L must all be >= 1")
    if l > m:
        raise DomainError(f"L={l} exceeds string length m={m}")
    if not 0 <= d <= l:
        raise DomainError(f"d={d} must lie in [0, L]")
    if seed < 0:
        raise DomainError(f"seed={seed} must be >= 0")
    rng = np.random.default_rng(seed)
    center = rng.integers(0, k, size=l)
    strings: list[np.ndarray] = []
    offsets: list[int] = []
    for _ in range(n):
        arr = rng.integers(0, k, size=m)
        off = int(rng.integers(0, m - l + 1))
        mutant = center.copy()
        if d:
            pos = rng.choice(l, size=d, replace=False)
            shift = rng.integers(1, k, size=d)
            mutant[pos] = (mutant[pos] + shift) % k
        arr[off:off + l] = mutant
        strings.append(arr)
        offsets.append(off)
    inst = SubstringInstance(alpha, tuple(strings), l)
    center_seq = Seq(alpha, center)
    return inst, PlantedMeta(center_seq.text, d, tuple(offsets))


def planted_instance_file(
    alphabet: str, n: int, m: int, l: int, d: int, seed: int
) -> InstanceFile:
    inst, meta = generate_planted(alphabet, n, m, l, d, seed)
    return InstanceFile(alphabet, tuple(Seq(inst.alphabet, s).text for s in inst.strings), l, meta)


@dataclass(frozen=True)
class BenchRow:
    instance: str
    seed: int
    algo: str
    r: int | None
    epsilon: float | None
    radius: int | None
    oracle: int | None
    ratio: str
    ms: str
    status: str

    def cells(self) -> list[str]:
        """The row's CSV and table cells: None blank, epsilon in %g form."""
        return [
            "" if value is None else f"{value:g}" if name == "epsilon" else str(value)
            for name, value in vars(self).items()
        ]


@dataclass
class BenchReport:
    rows: list[BenchRow]
    bounds_ok: bool

    FIELDS = tuple(field.name for field in fields(BenchRow))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.FIELDS)
        writer.writerows(row.cells() for row in self.rows)
        return buf.getvalue()

    def to_table(self) -> str:
        grid = [list(self.FIELDS)] + [row.cells() for row in self.rows]
        widths = [max(len(row[c]) for row in grid) for c in range(len(self.FIELDS))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid
        )


def _format_ratio(radius: int, oracle: int | None) -> str:
    if oracle is None:
        return ""
    if oracle == 0:
        return "1.0000" if radius == 0 else "inf"
    return f"{radius / oracle:.4f}"


def _oracle(f: InstanceFile, budget: int) -> CenterSolution:
    """The exact oracle; an L equal to every string length means whole strings."""
    if f.window is None or all(len(s) == f.window for s in f.strings):
        return exact_closest_string(f.as_string_instance(), budget=budget)
    return exact_closest_substring(f.as_substring_instance(), budget=budget)


@dataclass(frozen=True)
class _BenchAlgo:
    """What one bench algorithm name means: its configured solve (None for
    exact, whose row is the oracle's own outcome), its r and epsilon
    columns, and its declared worst-case radius/optimum ratio: bound, plus
    guessed when the solution guessed any window tuple."""

    solve: Callable[[InstanceFile], CenterSolution] | None
    r: int | None
    epsilon: float | None
    bound: Fraction
    guessed: Fraction = Fraction(0)


def _bench_algos(
    algos: Sequence[str], *, r: int, epsilon: float, epsilon_prime: float, trials: int, seed: int
) -> dict[str, _BenchAlgo]:
    """The table of the requested algorithms, built before any instance
    is solved: an unknown name, or a parameter outside the domain of a
    requested algorithm's config, raises DomainError here."""
    if not algos:
        raise DomainError(f"no algorithm given; choose from {','.join(ALGOS)}")

    def string() -> Callable[[InstanceFile], CenterSolution]:
        rounding = RoundingConfig(mode="auto", trials=trials, epsilon_prime=epsilon_prime, rng_seed=seed)
        cfg = ClosestStringConfig(r=r, rounding=rounding)
        return lambda f: solve_closest_string(f.as_string_instance(), cfg)

    def substring() -> Callable[[InstanceFile], CenterSolution]:
        cfg = SubstringConfig(r=r, epsilon=epsilon, trials=trials, rng_seed=seed)
        return lambda f: solve_substring(f.as_substring_instance(), cfg)

    base = 1 + Fraction(1, 2 * r - 1)
    # each solve is built before its bound, so its config refuses an
    # epsilon out of domain, NaN included, before Fraction reads it
    makers = {
        "exact": lambda: _BenchAlgo(None, None, None, Fraction(1)),
        "string": lambda: _BenchAlgo(string(), r, epsilon_prime, base + r * Fraction(epsilon_prime)),
        "substring": lambda: _BenchAlgo(substring(), r, epsilon, base, 3 * r * Fraction(epsilon)),
    }
    for algo in algos:
        if algo not in makers:
            raise DomainError(f"unknown algorithm {algo!r}; choose from {','.join(ALGOS)}")
    return {algo: makers[algo]() for algo in algos}


def _attempt(solve: Callable[[], CenterSolution]) -> tuple[CenterSolution | CenterStringError, float]:
    """The solution or the error of one solve, and its seconds."""
    t0 = time.perf_counter()
    try:
        return solve(), time.perf_counter() - t0
    except CenterStringError as exc:
        return exc, time.perf_counter() - t0


def run_bench(
    suite: Sequence[tuple[str, InstanceFile]],
    algos: Sequence[str],
    *,
    r: int = ClosestStringConfig.r,
    epsilon: float = SubstringConfig.epsilon,
    epsilon_prime: float = RoundingConfig.epsilon_prime,
    trials: int = RoundingConfig.trials,
    seed: int = RoundingConfig.rng_seed,
    oracle_budget: int = DEFAULT_EXACT_BUDGET,
    parallel: bool = False,
    timing: bool = True,
) -> BenchReport:
    """Run each algorithm on each (name, InstanceFile) pair of the suite
    and collect a CSV-able report.

    The algorithm table is built first, so a bad name or parameter, or an
    oracle_budget below 1, raises DomainError before any work.  The exact
    oracle runs once per instance: its radius fills the oracle column and
    its outcome is the exact row.  bounds_ok holds when every ok row with
    an oracle radius is within its algorithm's bound for that solution.
    Rows keep suite order regardless of completion order; per-instance
    failures become status rows instead of aborting the suite.  With
    timing=False the ms column is left blank so reports are byte-stable.
    """
    if oracle_budget < 1:
        raise DomainError("oracle_budget must be >= 1")
    table = _bench_algos(algos, r=r, epsilon=epsilon, epsilon_prime=epsilon_prime, trials=trials, seed=seed)

    def work(item: tuple[str, InstanceFile]) -> list[tuple[BenchRow, bool]]:
        """Each algorithm's row, and whether its ratio, if measured, is within bound."""
        name, f = item
        exact, exact_s = _attempt(lambda: _oracle(f, oracle_budget))
        oracle = exact.radius if isinstance(exact, CenterSolution) else None
        rows: list[tuple[BenchRow, bool]] = []
        for algo in algos:
            spec = table[algo]
            sol, secs = (exact, exact_s) if spec.solve is None else _attempt(lambda: spec.solve(f))
            if isinstance(sol, CenterStringError):
                rows.append((BenchRow(name, seed, algo, spec.r, spec.epsilon, None, oracle, "", "",
                                      f"error: {sol}"), True))
                continue
            ms = f"{secs * 1000.0:.3f}" if timing else ""
            bound = spec.bound + spec.guessed if sol.guessed_tuples else spec.bound
            # at oracle 0 the ceiling is 0, so only radius 0 is within any bound
            within = oracle is None or sol.radius <= math.ceil(bound * oracle)
            rows.append((BenchRow(
                name, seed, algo, spec.r, spec.epsilon, sol.radius, oracle,
                _format_ratio(sol.radius, oracle), ms, "ok",
            ), within))
        return rows

    if parallel and len(suite) > 1:
        # imported here: concurrent.futures loads logging, a few ms of
        # every start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor() as pool:
            per_instance = list(pool.map(work, suite))
    else:
        per_instance = [work(item) for item in suite]

    checked = [pair for chunk in per_instance for pair in chunk]
    return BenchReport([row for row, _ in checked], all(ok for _, ok in checked))


def _solution_json(sol: CenterSolution, algo: str, params: dict) -> str:
    # offsets are rendered 1-based to match the usual paper conventions
    obj = {
        "algo": algo,
        "center": sol.center.text,
        "radius": sol.radius,
        "offsets_1based": [o + 1 for o in sol.witnesses],
        "guessed_tuples": sol.guessed_tuples,
        "params": params,
    }
    return json.dumps(obj, indent=2) + "\n"


def _check_out(out: str | None) -> None:
    """Refuse an --out path that cannot be written before any work starts:
    open it for appending, which creates a missing file and keeps an
    existing one's bytes, then remove a file the probe created."""
    if out:
        existed = os.path.lexists(out)
        open(out, "a").close()
        if not existed:
            os.unlink(out)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


_OUT_HELP = "write the result here instead of stdout"


def _add_io_flags(sub: argparse.ArgumentParser, out_help: str = _OUT_HELP) -> None:
    """Input and output flags of the subcommands that read instance files."""
    sub.add_argument("--alphabet", default=None, help="explicit alphabet override")
    sub.add_argument("--out", default=None, help=out_help)


def _add_common_flags(
    sub: argparse.ArgumentParser, *, string: bool, substring: bool, out_help: str = _OUT_HELP
) -> None:
    """Flags of the solve and bench subcommands.  `string` adds the
    whole-string solver's --epsilon-prime, `substring` the sampling
    accuracy --epsilon.  Defaults are the configs' own: the whole-string
    ones when `string`, else SubstringConfig's."""
    defaults = RoundingConfig if string else SubstringConfig
    r = ClosestStringConfig.r if string else SubstringConfig.r
    sub.add_argument("--r", type=int, default=r, help=f"subset size (default {r})")
    if string:
        sub.add_argument("--epsilon-prime", type=float, default=RoundingConfig.epsilon_prime,
                         help=f"rounding accuracy epsilon' (default {RoundingConfig.epsilon_prime})")
    if substring:
        sub.add_argument("--epsilon", type=float, default=SubstringConfig.epsilon,
                         help=f"sampling accuracy epsilon (default {SubstringConfig.epsilon})")
    sub.add_argument("--trials", type=int, default=defaults.trials, help="randomized rounding trials")
    sub.add_argument("--seed", type=int, default=defaults.rng_seed, help="master 64-bit seed")
    _add_io_flags(sub, out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centerstring",
        description="Center-string solvers under Hamming distance",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve-string", help="approximate Closest String")
    p.add_argument("file")
    _add_common_flags(p, string=True, substring=False)
    p.add_argument("--budget", type=int, default=ClosestStringConfig.enum_budget,
                   help="patch-sweep cap of a restricted solve")
    p.add_argument("--mode", choices=_ROUNDING_MODES, default=RoundingConfig.mode,
                   help="rounding mode")

    p = subs.add_parser("solve-substring", help="approximate Closest Substring")
    p.add_argument("file")
    _add_common_flags(p, string=False, substring=True)
    p.add_argument("--L", type=int, default=None, help="window length (required for FASTA)")
    p.add_argument("--rounding-mode", choices=_ROUNDING_MODES, default=SubstringConfig.rounding_mode)
    p.add_argument("--y-budget", type=int, default=SubstringConfig.y_budget,
                   help="cap per window tuple on the patches swept or the center "
                        "guesses made; a tuple whose patches fit it is swept, any "
                        "other guesses its center on a sample R")

    p = subs.add_parser("exact", help="exact oracle (exponential time)")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_EXACT_BUDGET,
                   help="the plain sweep's candidate cap; past it, whole strings get the column-type "
                        "integer program, whose variables x rows and branch-and-bound nodes it caps")
    p.add_argument("--L", type=int, default=None,
                   help="window length (Closest Substring); without one, or at L = m, the strings are whole")
    _add_io_flags(p)

    p = subs.add_parser("gen", help="generate a planted instance (JSON)")
    p.add_argument("--alphabet", default="01")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = subs.add_parser("bench", help="run algorithms over instance files")
    p.add_argument("files", nargs="+")
    p.add_argument("--algos", default=",".join(ALGOS),
                   help=f"comma-separated subset of {','.join(ALGOS)}")
    _add_common_flags(p, string=True, substring=True,
                      out_help="also write the report as CSV here; the table still goes to stdout")
    p.add_argument("--budget", type=int, default=DEFAULT_EXACT_BUDGET,
                   help="the oracle's candidate cap, and past it its program's size and nodes, as for exact")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--no-timing", action="store_true",
                   help="blank the ms column for byte-stable reports")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (CenterStringError, OSError) as exc:
        # a file that cannot be read or written is refused like any bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load(args: argparse.Namespace) -> InstanceFile:
    f = InstanceFile.load(args.file, alphabet=args.alphabet)
    if getattr(args, "L", None) is not None:
        f = replace(f, window=args.L)
    return f


def _dispatch(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.command == "gen":
        f = planted_instance_file(args.alphabet, args.n, args.m, args.L, args.d, args.seed)
        _emit(f.emit_json(), args.out)
        return 0

    if args.command == "bench":
        suite = [(Path(path).name, InstanceFile.load(path, alphabet=args.alphabet)) for path in args.files]
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
        report = run_bench(
            suite, algos, r=args.r, epsilon=args.epsilon, epsilon_prime=args.epsilon_prime,
            trials=args.trials, seed=args.seed, oracle_budget=args.budget,
            parallel=args.parallel, timing=not args.no_timing,
        )
        if args.out:
            Path(args.out).write_text(report.to_csv())
        print(report.to_table())
        if not any(row.status == "ok" and row.oracle is not None for row in report.rows):
            print("no ratio was measured: no row is ok with an oracle radius", file=sys.stderr)
            return 1
        return 0 if report.bounds_ok else 1

    f = _load(args)
    if args.command == "solve-string":
        rounding = RoundingConfig(mode=args.mode, trials=args.trials,
                                  epsilon_prime=args.epsilon_prime, rng_seed=args.seed)
        cfg = ClosestStringConfig(r=args.r, rounding=rounding, enum_budget=args.budget)
        inst = f.as_string_instance()
        sol = solve_closest_string(inst, cfg)
        # the solver clamps r to n, so epsilon is the ratio term of the r that ran
        algo, params = "string", {
            "r": args.r, "epsilon_prime": args.epsilon_prime,
            "epsilon": min(args.r, inst.n) * args.epsilon_prime, "mode": args.mode,
            "trials": args.trials, "budget": cfg.enum_budget, "seed": args.seed,
        }
    elif args.command == "solve-substring":
        if f.window is None:
            raise DomainError("window length missing: provide --L or a JSON 'L' field")
        # the LP stage runs at epsilon' = epsilon, so no --epsilon-prime here
        cfg = SubstringConfig(r=args.r, epsilon=args.epsilon, rounding_mode=args.rounding_mode,
                              trials=args.trials, y_budget=args.y_budget, rng_seed=args.seed)
        sol = solve_substring(f.as_substring_instance(), cfg)
        algo, params = "substring", {
            "r": args.r, "epsilon": args.epsilon, "rounding_mode": args.rounding_mode,
            "trials": args.trials, "y_budget": args.y_budget, "seed": args.seed,
        }
    else:  # exact
        sol = _oracle(f, args.budget)
        algo, params = "exact", {"budget": args.budget}
    _emit(_solution_json(sol, algo, params), args.out)
    return 0
