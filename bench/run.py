"""stirperm benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each repetition of a workload runs in a fresh interpreter, one at
a time, so at most two processes (this one and a child) exist at once.

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports the
end-to-end metrics named in BENCHMARK.json as medians over repetitions.
Times are scaled to the reference host speed by the calibration loop that
each worker runs beside its work (see speed.py); the record file keeps the
raw times as well.

* ``wall_s``: the whole job once, set-up excluded (for cli_session, the sum
  over commands of the time ``stirperm.cli.main`` takes, output flushed);
* ``setup_s``: spawn until ``import stirperm`` (``stirperm.cli`` for
  cli_session) returns, over import-only processes and every repetition;
* ``peak_rss_mib``: the workload process's peak RSS before its checks (for
  cli_session, the largest over its commands);
* ``slowest_task_s``: the longest task: each task's median over the
  repetitions, and the largest of those.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: call counts and self times of wrapped package functions
(see tracer.py), layer counters, per-command CLI wall time and RSS, and the
tracing overhead. Spans go to ``.bench_work/spans-<workload>-seed<seed>.jsonl``
and a full record, with the environment, to ``.bench_work/result-*.json``.

Every task's output is checked after its timed region; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 10  # import-only processes per untraced run, plus one warm-up
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

LAYERS = {
    "polynomial": "L0", "rng": "L0", "special": "L0",
    "triangle": "L1", "permutations": "L1",
    "sturm": "L2",
    "distribution": "L3",
    "cli": "L4", "verify": "L4",
    "trace": "harness",
}

#: Per-layer call counts that must be nonzero on each workload; a zero means
#: a wrapper missed a binding of the function it wraps.
NONZERO_CALLS = {
    "certify": (
        "polynomial.sign_at", "sturm.certify_real_roots",
        "sturm.interlace_certificate", "sturm.chain_build", "sturm.count_roots",
        "triangle.descent_polynomial",
    ),
    "clt_exact": (
        "special.normal_cdf", "triangle.triangle_row",
        "distribution.normalized_distribution", "distribution.ks_distance_exact",
    ),
    "monte_carlo": (
        "rng.below", "permutations.sample_word",
        "distribution.sample_statistic_histogram",
    ),
    "cli_session": (
        "polynomial.mul", "triangle.triangle_row", "triangle.descent_polynomial",
        "permutations.sample_word", "sturm.certify_real_roots",
        "distribution.ks_distance_exact", "verify.run_suite",
    ),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed output check)."""


def spawn(args: list[str], capture: bool = False):
    """Run worker.py once; return (spawn time, exit time, process, record)."""
    result = WORK / f"child-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    # a fixed hash seed keeps dict and set layouts alike across processes
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), args[0], str(result), *args[1:]],
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    ended = time.monotonic()
    record = json.loads(result.read_text()) if result.exists() else None
    result.unlink(missing_ok=True)
    return started, ended, proc, record


def crash_text(proc) -> str:
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
    return f"exit {proc.returncode}: " + " | ".join(tail)


def job_rep(workload: str, seed: int, traced: bool, task_count: int) -> dict:
    started, _, proc, rec = spawn(["job", workload, str(seed), str(int(traced))])
    if proc.returncode != 0 or rec is None:
        return {"setup": [], "wall": None, "wall_raw": None, "tasks": [], "peak_mib": None,
                "problems": [crash_text(proc)] * task_count, "trace": None}
    return {
        "setup": [(rec["imported"] - started) * rec["setup_scale"]],
        "wall": rec["wall_s"],
        "wall_raw": rec["wall_raw_s"],
        "calibrations": rec["calibrations_s"],
        "tasks": rec["task_s"],
        "peak_mib": rec["peak_rss_kib"] / 1024,
        "problems": rec["problems"],
        "trace": rec.get("trace"),
    }


def merge_traces(traces: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "counters": {}, "absent": {}, "spans": []}
    offset = 0
    for task_id, trace in enumerate(traces):
        for key in ("calls", "self_s"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in trace["counters"].items():
            combine = max if name == "sturm.chain_max_coeff_bits" else (lambda a, b: a + b)
            merged["counters"][name] = combine(merged["counters"].get(name, 0), value)
        merged["absent"].update(trace["absent"])
        for span in trace["spans"]:
            parent = span["parent"]
            merged["spans"].append(dict(
                span, id=span["id"] + offset, task=task_id,
                parent=None if parent is None else parent + offset,
            ))
        offset += max((s["id"] for s in trace["spans"]), default=0)
    return merged


def cli_rep(seed: int, traced: bool) -> dict:
    from workloads import cli_commands, sha256

    rep = {"setup": [], "wall": 0.0, "wall_raw": 0.0, "tasks": [], "peak_mib": 0.0,
           "problems": [], "commands": {}, "calibrations": [], "trace": None}
    traces = []
    for name, argv, check in cli_commands(seed):
        started, _, proc, rec = spawn(["cli", str(int(traced)), *argv], capture=True)
        if proc.returncode != 0 or rec is None:
            rep["problems"].append(f"{name}: {crash_text(proc)}")
            rep["wall"] = rep["wall_raw"] = None
            continue
        try:
            rep["problems"].append(check(proc.stdout, seed))
        except Exception as exc:  # a check that cannot run fails its task
            rep["problems"].append(f"{name}: check raised {exc!r}")
        setup = (rec["imported"] - started) * rec["setup_scale"]
        rep["setup"].append(setup)
        if rep["wall"] is not None:
            rep["wall"] += rec["task_s"]
            rep["wall_raw"] += rec["task_raw_s"]
        rep["tasks"].append(rec["task_s"])
        rep["calibrations"] += rec["calibrations_s"]
        rep["peak_mib"] = max(rep["peak_mib"], rec["peak_rss_kib"] / 1024)
        rep["commands"][name] = {
            "wall_s": setup + rec["task_s"],  # spawn to flushed output, calibrations left out
            "peak_rss_mib": rec["peak_rss_kib"] / 1024,
            "stdout_bytes": len(proc.stdout),
            "stdout_sha256": sha256(proc.stdout),
        }
        if traced:
            traces.append(rec["trace"])
    if traced:
        rep["trace"] = merge_traces(traces)
    return rep


def task_count(workload: str, seed: int) -> int:
    from workloads import JOBS, cli_commands

    if workload == "cli_session":
        return len(cli_commands(seed))
    return len(JOBS[workload](seed))


def repeat(workload: str, seed: int, seconds: float, traced_too: bool) -> list[dict]:
    """Repetitions until the time is up (at least MIN_REPS, or one
    untraced/traced pair); each rep dict gets a ``traced`` flag."""
    count = task_count(workload, seed)
    deadline = time.monotonic() + seconds
    reps = []
    modes = (False, True) if traced_too else (False,)
    while True:
        for traced in modes:
            begun = time.monotonic()
            if workload == "cli_session":
                rep = cli_rep(seed, traced)
            else:
                rep = job_rep(workload, seed, traced, count)
            rep["traced"] = traced
            rep["duration"] = time.monotonic() - begun
            reps.append(rep)
        enough = traced_too or len(reps) >= MIN_REPS
        typical = statistics.median(r["duration"] for r in reps) * len(modes)
        if enough and time.monotonic() + typical > deadline:
            return reps


def setup_samples(workload: str) -> list[float]:
    module = "stirperm.cli" if workload == "cli_session" else "stirperm"
    samples = []
    for k in range(SETUP_SPAWNS + 1):
        started, _, proc, rec = spawn(["setup", module])
        if proc.returncode != 0 or rec is None:
            raise BenchError(f"cannot import {module}: {crash_text(proc)}")
        if k:  # the first spawn warms the bytecode cache
            samples.append((rec["imported"] - started) * rec["setup_scale"])
    return samples


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def slowest_task(reps: list[dict]) -> float:
    """The largest over tasks of each task's median time over the
    repetitions that ran every task."""
    count = max(len(r["tasks"]) for r in reps)
    whole = [r["tasks"] for r in reps if len(r["tasks"]) == count]
    return max((median(tasks[i] for tasks in whole) for i in range(count)), default=0.0)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    started = time.monotonic()
    setups = setup_samples(workload)
    reps = repeat(workload, seed, seconds - (time.monotonic() - started), traced_too=False)
    for rep in reps:
        setups.extend(rep["setup"])
    metrics = {
        "wall_s": median(r["wall"] for r in reps),
        "setup_s": median(setups),
        "peak_rss_mib": median(r["peak_mib"] for r in reps),
        "slowest_task_s": slowest_task(reps),
    }
    return metrics, reps, []


def layer_values(trace: dict) -> dict:
    from tracer import MIB, TARGETS

    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    values = {}
    for name, *_ in TARGETS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    below = calls.get("rng.below", 0)
    roots = counters.get("sturm.certified_roots", 0)
    values["rng.next_uint64_per_below"] = counters["rng.next_uint64"] / below if below else 0.0
    values["triangle.rss_growth_mib"] = counters["triangle.rss_growth_bytes"] / MIB
    values["triangle.row_bits_computed"] = counters["triangle.row_bits_computed"]
    values["sturm.chain_max_coeff_bits"] = counters["sturm.chain_max_coeff_bits"]
    values["sturm.count_roots_per_root"] = (
        calls.get("sturm.count_roots", 0) / roots if roots else 0.0
    )
    return values


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    from workloads import cli_commands

    reps = repeat(workload, seed, seconds, traced_too=True)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"] and r["trace"] is not None]
    if not traced:
        raise BenchError("no traced repetition completed")
    per_rep = [layer_values(r["trace"]) for r in traced]
    metrics = {name: median(v[name] for v in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_s"] = median(r["wall"] for r in traced) - median(
        r["wall"] for r in plain
    )
    names = [name for name, _, _ in cli_commands(seed)]
    commands = [r["commands"] for r in plain if "commands" in r]
    for name in names:
        for key in ("wall_s", "peak_rss_mib"):
            metrics[f"cli.{name}.{key}"] = median(c[name][key] for c in commands if name in c)
    metrics["cli.stdout_bytes"] = median(
        sum(c["stdout_bytes"] for c in cmd.values()) for cmd in commands
    )
    metrics["cli.startup_s"] = median(s for r in plain if "commands" in r for s in r["setup"])

    problems = []
    absent = traced[-1]["trace"]["absent"]
    for name in NONZERO_CALLS[workload]:
        if name not in absent and metrics[f"{name}.calls"] == 0:
            problems.append(f"wrapper coverage: {name} recorded no calls on {workload}")
    for r in reps:
        for name, info in r.get("commands", {}).items():
            if info["stdout_sha256"] != plain[0]["commands"].get(name, {}).get("stdout_sha256"):
                problems.append(f"tracing changed the stdout of cli {name}")
    return metrics, reps, problems


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():  # a plain checkout must not report an enclosing repo
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stirperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    mem_total = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mem_total": mem_total,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from speed import REFERENCE_S

    measure = per_layer if trace else end_to_end
    metrics, reps, problems = measure(workload, seed, seconds)
    plain = [r for r in reps if not r["traced"]]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted = sum(len(r["problems"]) for r in reps)
    failed = sum(p is not None for r in reps for p in r["problems"])
    problems = [p for r in reps for p in r["problems"] if p is not None] + problems

    mode = "traced" if trace else "untraced"
    print(f"{workload} seed={seed} {mode}: {len(reps)} repetitions, "
          f"{attempted} tasks, failed_frac={failed / attempted:.4g} "
          f"(failed {failed} of tasks={attempted})")
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    calibrations = [c for r in plain for c in r.get("calibrations", ())]
    print(f"  raw wall_s {median(r.get('wall_raw') for r in plain):.6g} s, "
          f"calibration median {median(calibrations):.6g} s "
          f"(reference {REFERENCE_S} s)")
    if trace:
        wall = median(r["wall_raw"] for r in reps if r["traced"])  # self_s are raw too
        shares = sorted(
            ((metrics[k] / wall, k[: -len(".self_s")]) for k in metrics if k.endswith(".self_s")),
            reverse=True,
        )
        print("  largest self-time shares of raw traced wall_s: "
              + ", ".join(f"{name} {share:.0%}" for share, name in shares[:3]))
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "workload": workload, "why": why.get(workload), "seed": seed,
        "seconds": seconds, "trace": trace, "env": env,
        "metrics": {
            m["name"]: {
                "value": metrics[m["name"]], "unit": m["unit"],
                "layer": LAYERS.get(m["name"].split(".")[0], "end-to-end"),
            }
            for m in wanted
        },
        "all_values": metrics,
        "problems": problems,
        "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    stem = f"{workload}-seed{seed}"
    (WORK / f"result-{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with open(WORK / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for rep_id, r in enumerate(x for x in reps if x["traced"]):
                for span in r["trace"]["spans"]:
                    fh.write(json.dumps(dict(span, rep=rep_id)) + "\n")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "stirperm" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no stirperm source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    try:
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {
                w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace))
                for w in WORKLOADS
            }
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}.{name}": value
                    for w, r in results.items() for name, value in r["metrics"].items()
                },
            }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
