"""Peak resident memory of whole processes, read from the kernel's VmHWM
after the work, so no in-process allocation tracker is needed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirperm

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="VmHWM needs /proc/self/status"
)

_PROBE = """
import resource, sys
{work}
sys.stdout.flush()
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kib = next(line for line in fh if line.startswith("VmHWM:")).split()[1]
children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
sys.stderr.write(f"{{peak_kib}} {{children_kib}}\\n")
"""


def _peaks_mib(work: str) -> tuple[float, float]:
    """VmHWM of a fresh interpreter that runs ``work`` with stdout
    discarded, and the largest peak RSS of the processes it waited for (0
    if none). A child's peak may count pages it shared with this process
    before its exec, so the sum of the two bounds what ran at once."""
    env = dict(os.environ, PYTHONPATH=str(Path(stirperm.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(work=work)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=True, timeout=300,
    )
    own, children = done.stderr.split()[-2:]
    return int(own) / 1024, int(children) / 1024


def _peak_mib(work: str) -> float:
    return _peaks_mib(work)[0]


def test_exact_distance_and_mode_at_order_1200_stay_small():
    # holding every row up to 1200 took 674 MiB; two rows take a few MiB.
    # The exact route is forced, as a fallback from an uncertified fixed
    # row would take it, so both calls read the exact row
    peak, children = _peaks_mib(
        "from stirperm import triangle\n"
        "from stirperm.distribution import ks_distance_exact\n"
        "triangle._EXACT_FIRST_ORDERS = 1200\n"
        "ks_distance_exact(1200)\n"
        "triangle.locate_mode(1200)\n"
        "assert triangle._last_fixed is None, 'a fixed-point row was built'\n"
    )
    assert peak + children < 128


def test_exact_distance_and_mode_at_the_cap_start_no_helper():
    # both read one banded fixed-point row of order 3000: 0.31-0.43 s and
    # a 14.6-14.8 MiB peak, cold. The exact row took 11-13 s, 30.5 MiB and a
    # helper process of 26.7 MiB when it was split, 18 s and 41 MiB in one
    peak, children = _peaks_mib(
        "from stirperm import triangle\n"
        "from stirperm.distribution import ks_distance_exact\n"
        "ks_distance_exact(3000)\n"
        "triangle.locate_mode(3000)\n"
        "assert triangle._last_row == (1,), 'an exact row was built'\n"
    )
    assert peak + children < 24


def test_plot_pmf_at_the_cap_stays_small():
    # the --plot-out pmf reads a fixed-point row of 1170 bits an entry:
    # 16.2 MiB cold. The exact row of order 3000 takes 40 MiB in one process
    peak, children = _peaks_mib(
        "from stirperm import triangle\n"
        "from stirperm.distribution import pmf_floats\n"
        "pmf_floats(3000)\n"
        "assert triangle._last_row == (1,), 'an exact row was built'\n"
    )
    assert peak + children < 24


def test_polynomial_and_series_check_at_order_600_stay_small():
    # a memo of P_1..P_600 plus the cleared Wilf form peaked at 98 MiB
    peak = _peak_mib(
        "from stirperm.triangle import descent_polynomial, gessel_stanley_check\n"
        "descent_polynomial(600)\n"
        "assert gessel_stanley_check(600)\n"
    )
    assert peak < 40


def test_poly_wilf_at_order_300_stays_small():
    # the heaviest command of the bench's CLI session: P_300, one Stirling
    # row of 601 entries and the quotient it is compared with
    peak = _peak_mib(
        "from stirperm.cli import main\n"
        "main(['poly', '--n', '300', '--wilf', '--eval', '1', '--format', 'json'])\n"
    )
    assert peak < 24


def test_histogram_at_order_one_million_stays_small():
    # buffering raw draws across lists peaked near 160 MiB; one sample is
    # drawn by scalar below calls, so the histogram itself is most of the peak
    peak = _peak_mib(
        "from stirperm.distribution import sample_statistic_histogram\n"
        "sample_statistic_histogram(10**6, 1, 1)\n"
    )
    assert peak < 64


def test_two_sample_histogram_at_order_one_million_stays_small():
    # two samples run the lanes; a chain kernel that listed each bound's
    # m = ceil(2^f / b) before its steps peaked at 76 MiB, against 30 MiB
    peak = _peak_mib(
        "from stirperm.distribution import sample_statistic_histogram\n"
        "sample_statistic_histogram(10**6, 2, 1)\n"
    )
    assert peak < 64


def test_sample_memory_flat_in_count():
    def sample(count):
        return _peak_mib(
            "from stirperm.cli import main\n"
            f"main(['sample', '--n', '9', '--count', '{count}', '--seed', '1'])\n"
        )

    assert sample(1_000_000) - sample(10_000) < 4
