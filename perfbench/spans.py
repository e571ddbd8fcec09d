"""In-memory span tracing of the package's layers, installed from outside.

The tracer rebinds each traced function in every ``centerstring`` module
that holds it (and in its defining module), so calls through a name
imported into another module are caught too.  A name that no longer
exists marks its layer absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _enum_patches(args, result):
    p = args[0]
    return p.inst.alphabet.size ** len(p.P)


def _free_patches(args, result):
    return args[0][0].alphabet.size ** (result.frame - len(result))


def _lp_size(args, result):
    p = args[0]
    n, free, k = p.inst.n, len(p.P), p.inst.alphabet.size
    return (1 + free * k, free * k + n + n * free * (k - 1))


# (span name, defining module, attribute, value hook).  Span names are the
# layer names of the metrics; the three solver entry points get their own
# span names so that work can be attributed to the sampling pipeline.
BINDINGS = (
    ("agreement", "centerstring.core", "agreement_positions", _free_patches),
    ("cost_eval", "centerstring.core", "cost_string", None),
    ("cost_eval", "centerstring.core", "cost_substring", None),
    ("seq_build", "centerstring.core", "Seq.__post_init__", None),
    ("restricted_build", "centerstring.lp_round", "build_restricted", None),
    ("restricted", "centerstring.lp_round", "solve_restricted", None),
    ("patch_sweep.string", "centerstring.lp_round", "enumerate_small_P", _enum_patches),
    ("lp_build", "centerstring.lp_round", "solve_lp", _lp_size),
    ("lp_wrapper", "scipy.optimize", "linprog", None),
    ("lp_highs", "scipy.optimize._linprog_highs", "_highs_wrapper", None),
    ("rounding.derand", "centerstring.lp_round", "round_derandomized", None),
    ("rounding.rand", "centerstring.lp_round", "round_randomized", None),
    ("window_select", "centerstring.closest_substring", "select_windows", None),
    ("patch_sweep.substring", "centerstring.closest_substring", "solve_small_substring", None),
    ("solver.string", "centerstring.closest_string", "solve_closest_string", None),
    ("solver.sampling", "centerstring.closest_substring", "solve_closest_substring", None),
    ("solver.dispatch", "centerstring.closest_substring", "solve_substring", None),
    ("oracle", "centerstring.exact", "exact_closest_string", None),
    ("oracle", "centerstring.exact", "exact_closest_substring", None),
)
# generator functions: only the items they yield are counted
COUNTED = (
    ("window_tuples", "centerstring.closest_substring", "enumerate_window_tuples"),
)


class Tracer:
    """Records spans (name, start, end, parent, solve id, value) in memory.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = -1
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.solve_id, None)
            if hook is not None:
                try:
                    value = hook(args, result)
                except (AttributeError, TypeError):  # the argument's shape changed
                    tracer.absent.add(f"{name} size")
                else:
                    spans[idx] = (name, start, end, parent, tracer.solve_id, value)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _rebind(self, modname: str, attr: str, make) -> bool:
        try:
            owner = importlib.import_module(modname)
            if "." in attr:  # a method: rebind it on its class only
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, method, make(cls.__dict__[method]))
                return True
            orig = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            return False
        wrapped = make(orig)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "centerstring" or n.startswith("centerstring.")]
        for mod in {id(m): m for m in holders + [owner]}.values():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, name, wrapped)
        return True

    def _set(self, obj, name, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def __enter__(self) -> "Tracer":
        found: dict[str, bool] = defaultdict(bool)
        for name, modname, attr, hook in BINDINGS:
            found[name] |= self._rebind(modname, attr, lambda f, n=name, h=hook: self._span(n, f, h))
        for name, modname, attr in COUNTED:
            found[name] |= self._rebind(modname, attr, lambda f, n=name: self._counter(n, f))
        self.absent = {n for n, ok in found.items() if not ok}
        return self

    def __exit__(self, *exc) -> None:
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()

    def drain(self, into: "Totals") -> None:
        """Fold the recorded spans and counts into totals and forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _, value) in enumerate(spans):
            into.calls[name] += 1
            into.self_s[name] += end - start - child[i]
            under = spans[parent][0] if parent >= 0 else None
            into.calls_under[name, under] += 1
            if value is not None:
                into.values[name].append(value)
                into.values_under[name, under].append(value)
        for name, c in self.counts.items():
            into.calls[name] += c
        spans.clear()
        self.counts.clear()


class Totals:
    """Per-layer sums over a set of traced calls."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.calls_under: dict = defaultdict(int)
        self.values: dict = defaultdict(list)
        self.values_under: dict = defaultdict(list)
