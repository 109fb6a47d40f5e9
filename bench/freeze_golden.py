"""Write golden.json: the reference values the workload checks compare with.

    python3 bench/freeze_golden.py

Run from the root of a checkout of the commit whose outputs are to be
frozen. The values were frozen from the commit that defined this benchmark;
the ROADMAP forbids changing them (exact values and seed streams are part of
the package's contract), so rerunning this is only for extending the table.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from stirperm import distribution  # noqa: E402

import workloads  # noqa: E402

FROZEN_SEEDS = range(64)


def sample_stdout(seed: int) -> bytes:
    argv = next(a for name, a, _ in workloads.cli_commands(seed) if name == "sample")
    return subprocess.run(
        [sys.executable, "-m", "stirperm", *argv],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, check=True,
    ).stdout


def main() -> None:
    orders = sorted(
        {n for n in workloads.CLT_ORDERS if n not in (100, 200)}
        | {workloads.MC_ORDER, 600}
    )
    golden = {
        "ks_exact": {str(n): distribution.ks_distance_exact(n) for n in orders},
        "histogram_sha256": {},
        "sample_sha256": {},
    }
    for seed in FROZEN_SEEDS:
        histogram = distribution.sample_statistic_histogram(
            workloads.MC_ORDER, workloads.MC_SAMPLES, seed
        )
        golden["histogram_sha256"][str(seed)] = workloads.sha256(
            json.dumps(list(histogram)).encode()
        )
        golden["sample_sha256"][str(seed)] = hashlib.sha256(sample_stdout(seed)).hexdigest()
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
