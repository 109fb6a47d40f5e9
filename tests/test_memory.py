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
import sys
{work}
sys.stdout.flush()
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kib = next(line for line in fh if line.startswith("VmHWM:")).split()[1]
sys.stderr.write(peak_kib + "\\n")
"""


def _peak_mib(work: str) -> float:
    """VmHWM of a fresh interpreter that runs ``work`` with stdout discarded."""
    env = dict(os.environ, PYTHONPATH=str(Path(stirperm.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(work=work)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=True, timeout=300,
    )
    return int(done.stderr.split()[-1]) / 1024


def test_exact_distance_and_mode_at_order_1200_stay_small():
    # holding every row up to 1200 took 674 MiB; two rows take a few MiB
    peak = _peak_mib(
        "from stirperm.distribution import ks_distance_exact\n"
        "from stirperm.triangle import locate_mode\n"
        "ks_distance_exact(1200)\n"
        "locate_mode(1200)\n"
    )
    assert peak < 128


def test_polynomial_and_series_check_at_order_600_stay_small():
    # a memo of P_1..P_600 plus the cleared Wilf form peaked at 98 MiB
    peak = _peak_mib(
        "from stirperm.triangle import descent_polynomial, gessel_stanley_check\n"
        "descent_polynomial(600)\n"
        "assert gessel_stanley_check(600)\n"
    )
    assert peak < 40


def test_histogram_at_order_one_million_stays_small():
    # buffering raw draws across lists peaked near 160 MiB; one sample's
    # lanes are 128 bits, so the histogram itself is most of the peak
    peak = _peak_mib(
        "from stirperm.distribution import sample_statistic_histogram\n"
        "sample_statistic_histogram(10**6, 1, 1)\n"
    )
    assert peak < 64


def test_sample_memory_flat_in_count():
    def sample(count):
        return _peak_mib(
            "from stirperm.cli import main\n"
            f"main(['sample', '--n', '9', '--count', '{count}', '--seed', '1'])\n"
        )

    assert sample(1_000_000) - sample(10_000) < 4
