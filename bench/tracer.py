"""Per-layer timing by wrapping the package's public functions from outside.

The benchmark never edits the package. ``Tracer.install`` replaces every
binding of each target function (the defining module, every module that
re-imported it, and every class attribute that aliases it, such as
``__rmul__ = __mul__``) with a wrapper that counts calls and keeps self time:
a call's duration minus the part covered by wrapped calls nested inside it.
Work done by the wrappers themselves (hooks that read RSS or bit sizes) is
charged to no one, so self times stay comparable with untraced runs.

Hot kernels are aggregated (count and self time only); every other call is
kept as a span in memory and handed back once the run ends.
"""

from __future__ import annotations

import importlib
import resource
import sys
from time import perf_counter

MIB = 1 << 20

# SplitMix64 advances its state by this odd constant per 64-bit draw (see the
# rng module docstring), so a generator's state change since seeding, divided
# by it modulo 2^64, counts the draws made, rejected ones included, without
# wrapping the hottest function of all.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
_MASK64 = (1 << 64) - 1


_PAGE = resource.getpagesize()


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Wrappers, counters and spans of one traced process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {
            "triangle.rss_growth_bytes": 0,
            "triangle.row_bits_computed": 0,
            "sturm.chain_max_coeff_bits": 0,
            "sturm.certified_roots": 0,
        }
        self.spans: list[dict] = []
        self.generators: list = []  # (SplitMix64, state when seeded)
        self.absent: dict[str, str] = {}
        self.task = None
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_id = 0

    def record(self) -> dict:
        """Counts, self times, counters and spans gathered so far."""
        counters = dict(self.counters)
        counters["rng.next_uint64"] = sum(
            ((rng.state - seeded) * _GAMMA_INV) & _MASK64 for rng, seeded in self.generators
        )
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": counters,
            "absent": dict(self.absent),
            "spans": list(self.spans),
        }

    # --- spans opened by the benchmark itself ------------------------------

    def open_task(self, task_id: int, label: str) -> None:
        self.task = task_id
        self._stack.append([0.0, self._new_id(), label, perf_counter()])

    def close_task(self) -> None:
        child, span_id, label, start = self._stack.pop()
        self.spans.append(
            {"id": span_id, "name": "task", "label": label, "start": start,
             "end": perf_counter(), "parent": None, "task": self.task}
        )

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # --- wrapping ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (name, module, attribute path, aggregate, hooks) target."""
        for _, module_name, _, _, _ in targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        namespaces = []  # (object to setattr on, its namespace)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] != "stirperm":
                continue
            namespaces.append((module, vars(module)))
            namespaces.extend(
                (v, vars(v)) for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == key
            )
        for name, module_name, path, aggregate, hooks in targets:
            original = sys.modules.get(module_name)
            try:
                for part in path.split("."):
                    original = getattr(original, part)
            except AttributeError:
                self.absent[name] = f"{module_name}.{path} does not exist"
                continue
            self.calls[name] = 0
            self.self_s[name] = 0.0
            wrapper = self._wrap(name, original, aggregate, hooks)
            for owner, ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, aggregate, hooks):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        pre, post = hooks or (None, None)
        tracer = self

        if aggregate and hooks is None:
            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    total = perf_counter() - start
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += total - frame[0]
                    if stack:
                        stack[-1][0] += total
            return wrapper

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            token = pre(tracer, args) if pre else None
            span_id = None if aggregate else tracer._new_id()
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                if post:
                    post(tracer, token, args, result)
                if span_id is not None:
                    spans.append(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "task": tracer.task}
                    )
                if stack:
                    # the parent is charged for the hooks too, as time it
                    # did not spend itself
                    stack[-1][0] += perf_counter() - enter
        return wrapper


# --- hooks: (pre, post) pairs measuring counters at the layer boundary ------

def _seeded(tracer, token, args, result):
    tracer.generators.append((args[0], args[0].state))


def _row_pre(tracer, args):
    rows = getattr(sys.modules["stirperm.triangle"], "_ROWS", None)
    return _resident_bytes(), None if rows is None else len(rows)


def _row_post(tracer, token, args, result):
    rss_before, rows_before = token
    tracer.counters["triangle.rss_growth_bytes"] += _resident_bytes() - rss_before
    rows = getattr(sys.modules["stirperm.triangle"], "_ROWS", None)
    # With the prefix memo, the rows computed are the ones the memo gained;
    # without it, each call is taken to compute the row it returns.
    computed = [result] if rows is None or rows_before is None else rows[rows_before:]
    tracer.counters["triangle.row_bits_computed"] += sum(
        c.bit_length() for row in computed if row for c in row
    )


def _chain_post(tracer, token, args, result):
    chain = args[0]
    bits = max(
        (abs(c).bit_length() for p in chain.polynomials for c in p.coefficients),
        default=0,
    )
    counters = tracer.counters
    counters["sturm.chain_max_coeff_bits"] = max(counters["sturm.chain_max_coeff_bits"], bits)


def _roots_post(tracer, token, args, result):
    if result is not None:
        tracer.counters["sturm.certified_roots"] += len(result.isolating_intervals)


def _interlace_post(tracer, token, args, result):
    if result is not None and result.verified:
        tracer.counters["sturm.certified_roots"] += len(result.witnesses)


#: (metric prefix, module, attribute path, aggregate, (pre, post) hooks)
TARGETS = (
    ("polynomial.sign_at", "stirperm.polynomial", "IntPolynomial.sign_at", True, None),
    ("polynomial.mul", "stirperm.polynomial", "IntPolynomial.__mul__", False, None),
    ("rng.below", "stirperm.rng", "SplitMix64.below", True, None),
    ("rng.seed", "stirperm.rng", "SplitMix64.__init__", False, (None, _seeded)),
    ("special.normal_cdf", "stirperm.special", "normal_cdf", False, None),
    ("triangle.triangle_row", "stirperm.triangle", "triangle_row", False, (_row_pre, _row_post)),
    ("triangle.descent_polynomial", "stirperm.triangle", "descent_polynomial", False, None),
    ("permutations.sample_word", "stirperm.permutations", "sample_word", True, None),
    ("sturm.certify_real_roots", "stirperm.sturm", "certify_real_roots", False, (None, _roots_post)),
    ("sturm.interlace_certificate", "stirperm.sturm", "interlace_certificate", False, (None, _interlace_post)),
    ("sturm.chain_build", "stirperm.sturm", "SturmChain.__init__", False, (None, _chain_post)),
    ("sturm.count_roots", "stirperm.sturm", "SturmChain.count_roots", False, None),
    ("distribution.normalized_distribution", "stirperm.distribution", "normalized_distribution", False, None),
    ("distribution.ks_distance_exact", "stirperm.distribution", "ks_distance_exact", False, None),
    ("distribution.sample_statistic_histogram", "stirperm.distribution", "sample_statistic_histogram", False, None),
    ("verify.run_suite", "stirperm.verify", "run_suite", False, None),
)
