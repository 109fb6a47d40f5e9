"""Command-line front end.

Commands: triangle, poly, roots, moments, normality, mode, sample, verify.
Exit codes: 0 ok, 1 verification or certification failure, 2 usage error
(an unwritable output path, or an order above 10^307, whose decimal fields
would overflow a float, included), 3 resource refusal. A reader that
closes stdout early, as ``| head`` does, ends the command silently with
exit 0. Every command is deterministic given its full flag set; sampling
commands require an explicit --seed (there is no ambient randomness
anywhere in the package). Refusals come before any work: each heavy command
has an order cap, ``roots --width`` has a floor, and ``poly --eval`` refuses
a point where the value could be too long to print. A rational argument is
an integer or num/den; exponent notation is a usage error. ``triangle
--oracle`` compares each row with all three statistics' enumeration counts.

Exact rationals are rendered as "num/den" in CSV and as [num, den] pairs in
JSON; any decimal shown sits next to its exact form, never instead of it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from . import distribution, sturm, triangle
from .permutations import (
    ResourceLimitExceeded,
    STAT_LABELS,
    brute_force_triangle,
    format_word,
    sample_word,
    word_statistics,
)
from .polynomial import double_factorial
from .rng import SplitMix64
from .special import normal_pdf

# Order caps, each measured cold at the cap on a 2-core, 7 GiB host; a
# request above its cap exits 3 before any work.
#: ``normality`` (exact distance or ``--plot-out``) and ``mode`` read rows of
#: order n. The distance and the mode come from a banded fixed-point row above
#: order 120: ``normality --n 3000`` and ``mode --n 3000`` take 0.21-0.37 s
#: with 15.5-15.8 MiB peak RSS at 96-bit entries (0.20-0.33 s and
#: 15.6-15.8 MiB at 88 bits, run alongside; 0.51-0.87 s at full width). The
#: ``--plot-out`` pmf comes from one of 1170-bit entries, which serves the
#: distance too: ``normality --n 3000 --format json --plot-out`` takes
#: 1.5-1.8 s with 16.4-16.5 MiB (1.5-1.9 s with a second, 96-bit row for the
#: distance, run alongside). The cap is set by the exact row, which an
#: uncertified result falls back to: it takes about n^3.3 bit operations,
#: holding two rows, and at order 3000 the exact row and distance take
#: 13-18 s with 40 MiB.
EXACT_DISTANCE_ORDER_CAP = MODE_ORDER_CAP = 3000
#: ``poly --n 1400 --wilf --format json`` takes 14-15 s with 40 MiB peak RSS
#: (1000: 3.4-3.7 s, 31 MiB), most of it the Gessel-Stanley check's Stirling
#: walk (its quotient is one list built through 2n + 1 chained lazy prefix
#: sums; a list per pass peaked at 47 MiB); ``poly --n 1400 --format json``
#: takes 2.2-2.6 s with 31 MiB.
#: From order 1424 on, P_n(1) = (2n-1)!!, and from 1425 the largest
#: coefficient, pass Python's default limit of 4300 digits for printing an
#: int, so the cap stays below that.
POLY_ORDER_CAP = 1400
#: Rows stream, but the text is about n^3 digits: ``triangle --n-max 1000
#: --format json`` writes 813 MB in 7.2-8.9 s with 24.8 MiB peak RSS (31-34 s
#: when the entries were printed from ints), so the text, not the time,
#: sets the cap.
TRIANGLE_ORDER_CAP = 1000
#: ``roots --n 300 --interlace`` takes 22-30 s (21.4 MiB peak), and 200 takes
#: 5.4-6.1 s (18 MiB); the cost grows like n^4.
ROOTS_ORDER_CAP = 300
#: ``roots --width`` refuses a narrower width. At the floor, ``roots --n 300
#: --interlace`` takes 37.6-37.9 s (21.6 MiB peak): bisecting its 300
#: intervals to 64 bits adds 7-15 s, and 200 takes 10.3-11.7 s.
ROOTS_WIDTH_FLOOR = Fraction(1, 2**64)
#: ``normality --n 1000000 --no-exact --samples 1`` takes 1.8-2.8 s with 31 MiB
#: peak RSS (20 samples: 7 s); time and memory grow linearly in the order.
SAMPLING_ORDER_CAP = 1_000_000
#: ``sample --n 200000 --count 1`` takes 5.6 s with 56 MiB peak RSS (100000:
#: 1.5 s, 36 MiB); each word costs about n^2 element moves.
SAMPLE_ORDER_CAP = 200_000

#: ``poly --eval`` refuses a value of more bits: 2**14284 < 10**4300, and 4300
#: digits is Python's default limit for printing an int.
_PRINTABLE_BITS = 14284

#: The decimal fields of ``moments`` and ``normality`` are floats, at most
#: 1.8e308: the ``--plot-normal-out`` range ends near -2 sqrt(n), reached
#: through 4n, which passes that from n = 4.5e307, and the mean from 2.7e308.
_FLOAT_ORDER_CAP = 10**307
_ORACLE_ORDER_CAP = 8
_SAMPLE_CHUNK_LINES = 4096
#: ``verify.SUITE_NAMES``, spelled out so that no other command imports verify
_SUITE_NAMES = (
    "all", "triangle", "realroots", "interlace", "moments", "identities", "sampler", "clt",
)


class UsageError(Exception):
    pass


def _json_dumps(payload) -> str:
    """Compact, key-sorted JSON; a Fraction becomes [num, den]."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=Fraction.as_integer_ratio
    ) + "\n"


def _csv_cell(value) -> str:
    """A Fraction as num/den, a tuple space-joined, anything else by repr."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return " ".join(map(_csv_cell, value))
    return repr(value)


def _write_record(args, payload: dict, columns) -> None:
    """``payload`` as JSON, or its named ``columns`` as a CSV header and row."""
    if args.format == "json":
        text = _json_dumps(payload)
    else:
        row = ",".join(_csv_cell(payload[c]) for c in columns)
        text = ",".join(columns) + "\n" + row + "\n"
    _write(args.out, text)


def _parse_fraction(text: str) -> Fraction:
    # no exponent notation: Fraction("1e-999999999") would build 10**999999999
    if "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"expected an integer or num/den rational, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_fraction(text: str) -> Fraction:
    value = _parse_fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")
    return value


def _refuse_above(order: int, cap: int, what: str) -> None:
    if order > cap:
        raise ResourceLimitExceeded(f"{what} refused above order {cap}")


def _write(out_path, text: str) -> None:
    _write_chunks(out_path, (text,))


def _write_chunks(out_path, chunks) -> None:
    """Write each chunk as it is produced; output never sits whole in memory."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _add_common(parser, fmt=True, out=True) -> None:
    if fmt:
        parser.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="output format (default csv)",
        )
    if out:
        parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirperm",
        description="Exact descent/plateau statistics of Stirling permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="statistic triangle rows 1..n")
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="also enumerate (orders <= 8) and compare each row with the "
        "descent, plateau and ascent counts; exit 1 on mismatch",
    )
    _add_common(p)

    p = sub.add_parser("poly", help="generating polynomial of one row")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--wilf", action="store_true",
                   help="also report whether P_n(x) equals (1-x)^(2n+1) times "
                   "sum_k S(n+k,k) x^k, Gessel and Stanley's definition through "
                   "Stirling numbers S of the second kind; true proves the printed "
                   "coefficients by a route that shares no code with their "
                   "recurrence (json only)")
    p.add_argument("--eval", type=_parse_fraction, metavar="RAT",
                   help="also evaluate at this rational point (json only); "
                   "write a negative one as --eval=-1/2, since -1/2 alone reads as an option")
    _add_common(p)

    p = sub.add_parser("roots", help="real-rootedness certificate (json)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--interlace", action="store_true",
                   help="also certify interlacing with the previous order")
    p.add_argument("--width", type=_positive_fraction, metavar="RAT",
                   help="refine isolating intervals below this width for display")
    _add_common(p, fmt=False)

    p = sub.add_parser("moments", help="exact mean/variance/second moment")
    p.add_argument("--n", type=_positive_int, required=True)
    _add_common(p)

    p = sub.add_parser("normality", help="distance to the normal distribution")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int,
                   help="add a Monte-Carlo estimate with this many samples")
    p.add_argument("--seed", type=int, help="seed (required with --samples)")
    p.add_argument("--no-exact", action="store_true",
                   help="skip the exact distance (for very large orders)")
    p.add_argument("--plot-out", metavar="PATH",
                   help="write standardized pmf as two-column CSV (t,density)")
    p.add_argument("--plot-normal-out", metavar="PATH",
                   help="write normal density samples as two-column CSV (t,density)")
    _add_common(p)

    p = sub.add_parser("mode", help="peak location of one triangle row")
    p.add_argument("--n", type=_positive_int, required=True)
    _add_common(p)

    p = sub.add_parser("sample", help="stream uniform random permutations")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stats", action="store_true",
                   help="emit ascent/descent/plateau counts instead of words")
    _add_common(p, fmt=False)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=_SUITE_NAMES, default="all")
    p.add_argument("--quick", action="store_true",
                   help="trimmed ranges for a fast smoke run")

    return parser


def _cmd_triangle(args) -> int:
    _refuse_above(args.n_max, TRIANGLE_ORDER_CAP, "triangle")
    if args.oracle:
        top = min(args.n_max, _ORACLE_ORDER_CAP)
        # the rows the writers print, read back as ints
        for n, printed in enumerate(triangle.decimal_rows(top), start=1):
            row = tuple(map(int, printed))
            for stat in STAT_LABELS:
                expected = brute_force_triangle(n, stat)
                if row != expected:
                    sys.stderr.write(
                        f"oracle disagreement at n={n} for {stat}: recurrence "
                        f"{row} vs enumeration {expected}\n"
                    )
                    return 1
        sys.stderr.write(f"oracle agreement for {', '.join(STAT_LABELS)}, n <= {top}\n")
    writer = triangle.triangle_json if args.format == "json" else triangle.triangle_csv
    _write_chunks(args.out, writer(args.n_max))
    return 0


def _cmd_poly(args) -> int:
    if args.format == "csv" and (args.wilf or args.eval is not None):
        raise UsageError("--wilf and --eval need --format json")
    _refuse_above(args.n, POLY_ORDER_CAP, "generating polynomial")
    if args.eval is not None:
        # P_n has degree n and positive coefficients summing to (2n-1)!!, so
        # at p/q its numerator is at most (2n-1)!! max(|p|, q)^n, and its
        # denominator, which divides q^n, is no larger
        big = max(abs(args.eval.numerator), args.eval.denominator)
        bits = double_factorial(args.n).bit_length() + args.n * (big - 1).bit_length()
        if bits > _PRINTABLE_BITS:
            raise ResourceLimitExceeded(
                "--eval refused: the value could pass 4300 digits, "
                "the limit for printing an int"
            )
    poly = triangle.descent_polynomial(args.n)
    if args.format == "csv":
        lines = ["i,coefficient"]
        lines.extend(f"{i},{c}" for i, c in enumerate(poly.coefficients))
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    payload = {"n": args.n, "coefficients": list(poly.coefficients)}
    if args.wilf:
        payload["wilf_identity"] = triangle.gessel_stanley_check(args.n)
    if args.eval is not None:
        payload["evaluation"] = {"point": args.eval, "value": poly(args.eval)}
    _write(args.out, _json_dumps(payload))
    return 0


def _cmd_roots(args) -> int:
    _refuse_above(args.n, ROOTS_ORDER_CAP, "root certification")
    if args.width is not None and args.width < ROOTS_WIDTH_FLOOR:
        raise ResourceLimitExceeded(f"--width refused below {ROOTS_WIDTH_FLOOR}")
    if args.interlace and args.n < 2:
        raise UsageError("--interlace needs --n >= 2")
    try:
        cert = sturm.certify_real_roots(args.n, width=args.width)
        inter = sturm.interlace_certificate(args.n) if args.interlace else None
    except sturm.CertificationError as exc:
        sys.stderr.write(_json_dumps({"certification_failure": exc.report}))
        return 1
    # a failed certification raised above: every field below is proven
    intervals = cert.isolating_intervals
    payload = {
        "n": args.n, "count": len(intervals), "squarefree": True, "verified": True,
        "intervals": [[*lo.as_integer_ratio(), *hi.as_integer_ratio()] for lo, hi in intervals],
    }
    if inter is not None:
        witnesses = [{**w._asdict(), "root_count": 1} for w in inter.witnesses]
        payload = {
            "real_roots": payload,
            "interlacing": {"n": args.n, "verified": True, "witnesses": witnesses},
        }
    _write(args.out, _json_dumps(payload))
    return 0


_MOMENT_COLUMNS = ("n", "mean", "variance", "s_n")


def _moments_payload(n: int) -> dict:
    if n > _FLOAT_ORDER_CAP:
        raise UsageError("orders above 10^307 would overflow a float in the decimal fields")
    m = distribution.moments_exact(n)
    return {
        "n": n,
        "mean": m.mean,
        "variance": m.variance,
        "s_n": m.second_moment,
        "mean_decimal": float(m.mean),
        "variance_decimal": float(m.variance),
        "sigma": m.sigma,
    }


def _cmd_moments(args) -> int:
    _write_record(args, _moments_payload(args.n), _MOMENT_COLUMNS)
    return 0


def _cmd_normality(args) -> int:
    if args.n < 2:
        raise UsageError("normality needs --n >= 2 (order 1 is degenerate)")
    if args.samples is not None and args.seed is None:
        raise UsageError("--samples requires --seed (no ambient randomness)")
    if args.no_exact and args.samples is None and not (args.plot_out or args.plot_normal_out):
        raise UsageError("--no-exact without --samples or a plot file leaves nothing to do")
    if not args.no_exact or args.plot_out:
        _refuse_above(args.n, EXACT_DISTANCE_ORDER_CAP, "exact distance or --plot-out")
    if args.samples is not None:
        _refuse_above(args.n, SAMPLING_ORDER_CAP, "Monte-Carlo distance")
    payload = _moments_payload(args.n)
    # built first, so that the row it reads, fixed-point or the exact
    # fallback, serves the distance too
    pmf = distribution.pmf_floats(args.n) if args.plot_out else None
    if not args.no_exact:
        payload["ks_exact"] = distribution.ks_distance_exact(args.n)
    if args.samples is not None:
        payload["ks_empirical"] = distribution.ks_distance_empirical(
            args.n, args.samples, args.seed
        )
        payload["samples"] = args.samples
        payload["seed"] = args.seed
    if pmf is not None:
        sigma = payload["sigma"]
        lines = ["t,density"]
        lines.extend(
            f"{distribution._standardized_point(k, args.n)!r},{p * sigma!r}"
            for k, p in enumerate(pmf, start=1)
        )
        _write(args.plot_out, "\n".join(lines) + "\n")
    if args.plot_normal_out:
        # the outermost standardized points, values 1 and n
        lo = distribution._standardized_point(1, args.n) - 1.0
        hi = distribution._standardized_point(args.n, args.n) + 1.0
        lines = ["t,density"]
        steps = 200
        for k in range(steps + 1):
            t = lo + (hi - lo) * k / steps
            lines.append(f"{t!r},{normal_pdf(t)!r}")
        _write(args.plot_normal_out, "\n".join(lines) + "\n")
    distances = tuple(k for k in ("ks_exact", "ks_empirical") if k in payload)
    _write_record(args, payload, _MOMENT_COLUMNS + distances)
    return 0


def _cmd_mode(args) -> int:
    _refuse_above(args.n, MODE_ORDER_CAP, "mode")
    report = triangle.locate_mode(args.n)
    payload = {
        "n": report.order,
        "mean": report.mean,
        "argmax": report.argmax_indices,
        "predicted": report.predicted_indices,
        "within_unit_of_mean": report.within_unit_of_mean,
        "argmax_in_predicted": report.argmax_in_predicted,
    }
    _write_record(args, payload, ("n", "mean", "argmax", "predicted"))
    return 0


def _cmd_sample(args) -> int:
    _refuse_above(args.n, SAMPLE_ORDER_CAP, "sampling")
    rng = SplitMix64(args.seed)
    words = (sample_word(args.n, rng) for _ in range(args.count))
    if args.stats:
        stats = map(word_statistics, words)
        lines = itertools.chain(
            ["ascents,descents,plateaux\n"],
            (f"{s.ascents},{s.descents},{s.plateaux}\n" for s in stats),
        )
    else:
        lines = (format_word(w) + "\n" for w in words)
    chunks = iter(lambda: "".join(itertools.islice(lines, _SAMPLE_CHUNK_LINES)), "")
    _write_chunks(args.out, chunks)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suite(args.suite, quick=args.quick)
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        sys.stdout.write(f"{tag}  {r.suite}: {r.name}{detail}\n")
        failures += not r.passed
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed"
        f" ({args.suite}{', quick' if args.quick else ''})\n"
    )
    return 1 if failures else 0


_HANDLERS = {
    "triangle": _cmd_triangle,
    "poly": _cmd_poly,
    "roots": _cmd_roots,
    "moments": _cmd_moments,
    "normality": _cmd_normality,
    "mode": _cmd_mode,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:  # the reader has gone: not an error of ours
        # stdout to devnull, so the interpreter's last flush is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except ResourceLimitExceeded as exc:
        sys.stderr.write(f"{parser.prog}: resource refusal: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
