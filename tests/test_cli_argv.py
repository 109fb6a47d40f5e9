"""Property test of the CLI contract over generated argv: every run ends
with exit code 0-3 and prints no traceback.

``cli.main`` runs in-process; argparse's ``SystemExit`` is caught, and any
other exception fails the test. Orders are either small (at most 12) or
above the command's cap, which is refused before any work, so every
example is cheap; a second property checks that the sampling commands
refuse every order above their caps with exit 3. ``verify`` is left out:
its suites take seconds. A junk token can become an output path, so the
examples run in a temporary directory.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirperm import cli

_CAPS = {
    "triangle": cli.TRIANGLE_ORDER_CAP,
    "poly": cli.POLY_ORDER_CAP,
    "roots": cli.ROOTS_ORDER_CAP,
    "normality": cli.EXACT_DISTANCE_ORDER_CAP,
    "mode": cli.MODE_ORDER_CAP,
    "moments": None,
    "sample": cli.SAMPLE_ORDER_CAP,
}
#: (order cap, argv without --n) of each sampling command
_SAMPLING = {
    "sample": (cli.SAMPLE_ORDER_CAP, ["sample", "--count", "1", "--seed", "1"]),
    "normality": (
        cli.SAMPLING_ORDER_CAP,
        ["normality", "--no-exact", "--samples", "1", "--seed", "1"],
    ),
}
_ORDER_FLAG = {"triangle": "--n-max"}

#: no positive number above 6 here: a junk token may land on --count
_JUNK = ("0", "-3", "6", "x", "1/0", "1.5", "", "--bogus", "-h", "=", "--n")
_RATIONALS = ("1", "0", "-1/2", "1/1024", "3/7", "1/0", "x", "-0")
#: P_n at this point prints for n <= 3 (about 3,900 digits) and is refused
#: from 4 on, where it could pass the 4300-digit limit for printing an int
_HUGE_POINT = "9" * 1300
#: os.devnull is writable; a path below it is not a directory, so exit 2
_PATHS = (os.devnull, os.path.join(os.devnull, "x.csv"))


def _flag(draw, name, values=None):
    """[name] or [name, value] with probability one half, else []."""
    if not draw(st.booleans()):
        return []
    if values is None:
        return [name]
    value = draw(st.sampled_from(values))
    # a value starting with "-" reads as an option unless joined by "="
    return [f"{name}={value}"] if value.startswith("-") else [name, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_CAPS)))
    oracle = command == "triangle" and draw(st.booleans())
    # enumeration at order 8 takes seconds, so --oracle stays at 7 and below
    small = st.integers(1, 7 if oracle else 12)
    no_exact = command == "normality" and draw(st.booleans())
    cap = cli.SAMPLING_ORDER_CAP if no_exact else _CAPS[command]
    above = cap is not None and draw(st.booleans())
    order = draw(st.integers(cap + 1, 1000 * cap) if above else small)
    argv = [command, _ORDER_FLAG.get(command, "--n"), str(order)]
    argv += ["--oracle"] if oracle else []
    argv += ["--no-exact"] if no_exact else []
    if command == "poly":
        argv += _flag(draw, "--wilf") + _flag(draw, "--eval", _RATIONALS + (_HUGE_POINT,))
    elif command == "roots":
        argv += _flag(draw, "--interlace") + _flag(draw, "--width", _RATIONALS)
    elif command == "normality":
        argv += _flag(draw, "--samples", [str(k) for k in (1, 7, 50)])
        argv += _flag(draw, "--seed", ("0", "-5", "123"))
        argv += _flag(draw, "--plot-out", _PATHS)
        argv += _flag(draw, "--plot-normal-out", _PATHS)
    elif command == "sample":
        argv += _flag(draw, "--count", [str(k) for k in (1, 2, 50)])
        argv += _flag(draw, "--seed", ("0", "-5", "123")) + _flag(draw, "--stats")
    if command not in ("roots", "sample"):
        argv += _flag(draw, "--format", ("csv", "json", "xml"))
    argv += _flag(draw, "--out", _PATHS)
    # usage errors: overwrite, drop or insert one token
    edit = draw(st.sampled_from(("none",) * 3 + ("overwrite", "drop", "insert")))
    if edit != "none":
        at = draw(st.integers(0, len(argv) - (edit != "insert")))
        if edit == "drop":
            del argv[at]
        else:
            argv[at:at + (edit == "overwrite")] = [draw(st.sampled_from(_JUNK))]
    return argv


@pytest.fixture(autouse=True, scope="module")
def _in_temporary_directory(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))
    yield
    os.chdir(cwd)


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_any_argv_exits_0_to_3_without_traceback(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err + out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SAMPLING)), st.integers(1, 10**15))
@example("normality", 10**12 - cli.SAMPLING_ORDER_CAP)  # once a MemoryError
def test_sampling_orders_above_their_caps_exit_3(command, excess):
    cap, argv = _SAMPLING[command]
    code, out, err = _run(argv + ["--n", str(cap + excess)])
    assert (code, out) == (3, ""), err
    assert "resource refusal" in err
