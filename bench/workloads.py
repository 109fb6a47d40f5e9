"""Workload definitions and the output checks behind ``failed_frac``.

A workload is a list of tasks; a task is one order's certification, one
distance, one batch of draws, or one CLI command. Every task carries a
check that runs after the timed region. Checks recompute what they can by
routes that share no code with the layer under test (exact ``Fraction``
evaluation instead of Sturm chains, double factorials and normal CDFs from
``math``), and compare the rest against values frozen in ``golden.json``
from the commit that defined this benchmark.

Why each workload exists is written in README.md beside this file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


CERTIFY_ORDERS = range(2, 41)
CLT_ORDERS = (100, 200, 400, 800, 1200)
MC_ORDER, MC_SAMPLES = 500, 2500
WORD_ORDER, WORD_DRAWS, WORD_BATCHES = 9, 30_000, 3
SAMPLE_COUNT = 20_000  # lines printed by cli_session's sample command
# The histogram of MC_SAMPLES draws lies within this sup-distance of the
# exact law with probability 1 - 1e-6 (Dvoretzky-Kiefer-Wolfowitz).
DKW_EPSILON = math.sqrt(math.log(2 / 1e-6) / (2 * MC_SAMPLES))


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], object]
    # (this task's output, every task's output) -> problem text, or None
    check: Callable[[object, list], str | None]


@functools.cache
def golden() -> dict:
    return json.loads(Path(__file__).with_name("golden.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def double_factorial(n: int) -> int:
    return math.prod(range(1, 2 * n, 2))


def predicted_modes(n: int) -> set[int]:
    mean = Fraction(2 * n + 1, 3)
    if mean.denominator == 1:
        return {int(mean)}
    return {math.floor(mean), math.ceil(mean)}


def normal_cdf(t: float) -> float:
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


# --- certify ------------------------------------------------------------------

def _value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def _sign_right_of(coeffs, x: Fraction) -> int:
    """Sign of the polynomial just right of x: that of its first nonzero
    derivative at x."""
    while coeffs:
        s = _sign(_value(coeffs, x))
        if s:
            return s
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    return 0


def _check_certify(n: int, output, outputs) -> str | None:
    from stirperm import triangle

    cert, inter = output
    intervals = sorted(cert.isolating_intervals)
    if len(intervals) != n:
        return f"n={n}: {len(intervals)} intervals, expected {n}"
    coeffs = (0,) + tuple(triangle.triangle_row(n))  # P_n, no Sturm code
    for k, (lo, hi) in enumerate(intervals):
        if not lo < hi <= 0:
            return f"n={n}: interval ({lo}, {hi}] is empty or positive"
        if k and intervals[k - 1][1] > lo:
            return f"n={n}: intervals {k - 1} and {k} overlap"
        if _value(coeffs, hi) != 0 and _sign_right_of(coeffs, lo) == _sign(_value(coeffs, hi)):
            return f"n={n}: P_n does not change sign across ({lo}, {hi}]"
    if not inter.verified:
        return f"n={n}: interlacing not verified: {inter.failure}"
    return None


def certify_tasks(seed: int) -> list[Task]:
    from stirperm import sturm

    def run(n):
        return lambda: (sturm.certify_real_roots(n), sturm.interlace_certificate(n))

    def check(n):
        return lambda out, outs: _check_certify(n, out, outs)

    return [Task(f"certify n={n}", run(n), check(n)) for n in CERTIFY_ORDERS]


# --- clt_exact ----------------------------------------------------------------

def _check_clt(n: int, output, outputs) -> str | None:
    from stirperm import triangle, verify

    distance, mode = output
    if n in verify.GOLDEN_KS_EXACT:
        if abs(distance - verify.GOLDEN_KS_EXACT[n]) >= 1e-9:
            return f"n={n}: ks {distance!r} != golden {verify.GOLDEN_KS_EXACT[n]!r}"
    elif abs(distance - golden()["ks_exact"][str(n)]) >= 1e-12:
        return f"n={n}: ks {distance!r} != frozen {golden()['ks_exact'][str(n)]!r}"
    row = triangle.triangle_row(n)
    if sum(row) != double_factorial(n):
        return f"n={n}: row sum is not (2n-1)!!"
    top = max(row)
    argmax = {i for i, v in enumerate(row, start=1) if v == top}
    if set(mode.argmax_indices) != argmax or not argmax <= predicted_modes(n):
        return f"n={n}: mode {mode.argmax_indices} outside {sorted(predicted_modes(n))}"
    return None


def clt_tasks(seed: int) -> list[Task]:
    from stirperm import distribution, triangle

    def run(n):
        return lambda: (distribution.ks_distance_exact(n), triangle.locate_mode(n))

    def check(n):
        return lambda out, outs: _check_clt(n, out, outs)

    return [Task(f"clt n={n}", run(n), check(n)) for n in CLT_ORDERS]


# --- monte_carlo --------------------------------------------------------------

def histogram_distance(histogram, n: int) -> float:
    """Sup distance of the histogram's standardized step CDF to the normal
    CDF, from both sides of every observed jump."""
    mean = (2 * n + 1) / 3
    sigma = math.sqrt((2 * n * n - 2) / (18 * n - 9))
    total = sum(histogram)
    seen = 0
    worst = 0.0
    for value, count in enumerate(histogram):
        if count:
            phi = normal_cdf((value - mean) / sigma)
            worst = max(worst, abs(seen / total - phi))
            seen += count
            worst = max(worst, abs(seen / total - phi))
    return worst


def _check_histogram(seed: int, histogram, outputs) -> str | None:
    if len(histogram) != MC_ORDER + 1 or sum(histogram) != MC_SAMPLES:
        return f"histogram has {len(histogram)} bins and total {sum(histogram)}"
    frozen = golden()["histogram_sha256"].get(str(seed))
    if frozen is not None and sha256(json.dumps(list(histogram)).encode()) != frozen:
        return f"histogram for seed {seed} differs from the frozen stream"
    return None


def _check_distance(distance, outputs) -> str | None:
    exact = golden()["ks_exact"][str(MC_ORDER)]
    if abs(distance - exact) > DKW_EPSILON:
        return f"empirical {distance!r} is farther than {DKW_EPSILON:.4f} from exact {exact!r}"
    if abs(distance - histogram_distance(outputs[0], MC_ORDER)) > 1e-9:
        return "empirical distance disagrees with the histogram of the same seed"
    return None


def _check_words(words, outputs) -> str | None:
    from stirperm.permutations import InvalidPermutation, StirlingPermutation

    try:
        for word in words:
            StirlingPermutation.from_word(WORD_ORDER, word)
    except InvalidPermutation as exc:
        return f"sampled word {word} is invalid: {exc}"
    return None


def monte_carlo_tasks(seed: int) -> list[Task]:
    from stirperm import distribution, permutations
    from stirperm.rng import SplitMix64

    rng = SplitMix64(seed)
    batch = WORD_DRAWS // WORD_BATCHES

    def words():
        return [permutations.sample_word(WORD_ORDER, rng) for _ in range(batch)]

    tasks = [
        Task(
            "histogram",
            lambda: distribution.sample_statistic_histogram(MC_ORDER, MC_SAMPLES, seed),
            lambda out, outs: _check_histogram(seed, out, outs),
        ),
        Task(
            "distance",
            lambda: distribution.ks_distance_empirical(MC_ORDER, MC_SAMPLES, seed),
            _check_distance,
        ),
    ]
    tasks += [Task(f"words {k}", words, _check_words) for k in range(WORD_BATCHES)]
    return tasks


JOBS = {
    "certify": certify_tasks,
    "clt_exact": clt_tasks,
    "monte_carlo": monte_carlo_tasks,
}


# --- cli_session --------------------------------------------------------------

def _json(stdout: bytes):
    return json.loads(stdout.decode())


def _check_triangle(stdout: bytes, seed: int) -> str | None:
    rows = _json(stdout)
    if len(rows) != 300 or rows[3] != [1, 22, 58, 24]:
        return "triangle rows missing, or row 4 is not 1,22,58,24"
    bad = [n for n, row in enumerate(rows, start=1) if sum(row) != double_factorial(n)]
    return f"triangle row {bad[0]} does not sum to (2n-1)!!" if bad else None


def _check_poly(stdout: bytes, seed: int) -> str | None:
    payload = _json(stdout)
    coeffs = payload["coefficients"]
    if len(coeffs) != 301 or coeffs[0] != 0 or sum(coeffs) != double_factorial(300):
        return "poly coefficients are not those of P_300"
    if payload["wilf_identity"] is not True:
        return "poly --wilf reports false"
    if payload["evaluation"]["value"] != [double_factorial(300), 1]:
        return "poly --eval 1 is not (2n-1)!!"
    return None


def _check_roots(stdout: bytes, seed: int) -> str | None:
    payload = _json(stdout)
    real = payload["real_roots"]
    if not (real["verified"] and real["count"] == 30 and len(real["intervals"]) == 30):
        return "roots --n 30 certificate not verified"
    if not payload["interlacing"]["verified"]:
        return "roots --n 30 interlacing not verified"
    return None


def _check_mode(stdout: bytes, seed: int) -> str | None:
    header, line = stdout.decode().splitlines()
    fields = dict(zip(header.split(","), line.split(",")))
    argmax = {int(i) for i in fields["argmax"].split()}
    predicted = {int(i) for i in fields["predicted"].split()}
    if predicted != predicted_modes(500) or not argmax <= predicted:
        return f"mode --n 500 argmax {argmax} outside {predicted_modes(500)}"
    return None


def _check_normality(stdout: bytes, seed: int) -> str | None:
    distance = _json(stdout)["ks_exact"]
    if abs(distance - golden()["ks_exact"]["600"]) >= 1e-12:
        return f"normality --n 600 ks_exact {distance!r} differs from the frozen value"
    return None


def _check_sample(stdout: bytes, seed: int) -> str | None:
    from stirperm.permutations import InvalidPermutation, StirlingPermutation, parse_word

    lines = stdout.decode().splitlines()
    if len(lines) != SAMPLE_COUNT:
        return f"sample printed {len(lines)} lines, expected {SAMPLE_COUNT}"
    try:
        for line in lines:
            StirlingPermutation.from_word(9, parse_word(line))
    except InvalidPermutation as exc:
        return f"sampled line {line!r} is invalid: {exc}"
    frozen = golden()["sample_sha256"].get(str(seed))
    if frozen is not None and sha256(stdout) != frozen:
        return f"sample output for seed {seed} differs from the frozen stream"
    return None


def _check_verify(stdout: bytes, seed: int) -> str | None:
    *checks, summary = stdout.decode().splitlines()
    if not checks or not all(c.startswith("PASS") for c in checks):
        return "verify --suite triangle reported a failing check"
    if summary != f"{len(checks)}/{len(checks)} checks passed (triangle)":
        return f"verify summary reads {summary!r}"
    return None


def cli_commands(seed: int) -> list[tuple[str, list[str], Callable]]:
    """(name, argv, check(stdout, seed)) for each README command run."""
    return [
        ("triangle", ["triangle", "--n-max", "300", "--format", "json"], _check_triangle),
        ("poly", ["poly", "--n", "300", "--wilf", "--eval", "1", "--format", "json"], _check_poly),
        ("roots", ["roots", "--n", "30", "--interlace"], _check_roots),
        ("mode", ["mode", "--n", "500"], _check_mode),
        ("normality", ["normality", "--n", "600", "--format", "json"], _check_normality),
        ("sample", ["sample", "--n", "9", "--count", str(SAMPLE_COUNT), "--seed", str(seed)],
         _check_sample),
        ("verify", ["verify", "--suite", "triangle"], _check_verify),
    ]


WORKLOADS = tuple(JOBS) + ("cli_session",)
