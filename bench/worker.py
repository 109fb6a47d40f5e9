"""One fresh benchmark process: import the package, then run one job.

    worker.py setup <result> <module>
    worker.py job <result> <workload> <seed> <trace 0|1>
    worker.py cli <result> <trace 0|1> <stirperm argv...>

The import comes first so that the moment it returns, on the system-wide
monotonic clock, marks the end of set-up for the parent that spawned this
process. Results go to the JSON file <result>; in ``cli`` mode stdout is the
command's own output, byte for byte.

Every mode times the calibration of speed.py right after the import, and the
measured modes again after each stretch of work, and report their times both
as measured (``*_raw``) and scaled to the reference host speed.
"""

import sys
import time

if sys.argv[1] == "cli" or sys.argv[3:4] == ["stirperm.cli"]:
    import stirperm.cli
else:
    import stirperm
IMPORTED = time.monotonic()

import json  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kib() -> int:
    """This process's peak RSS. Unlike getrusage's ru_maxrss, VmHWM does not
    carry over the RSS of the parent image that was forked and exec'd."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_job(workload: str, seed: int, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
    tasks = workloads.JOBS[workload](seed)
    outputs, task_raw, task_s = [], [], []
    calibrations = [speed.calibrate(speed.FIRST_S)]
    pending = []  # raw times of the tasks since the last calibration
    for task_id, task in enumerate(tasks):
        if tracer:
            tracer.open_task(task_id, task.label)
        begin = perf_counter()
        outputs.append(task.run())
        pending.append(perf_counter() - begin)
        if tracer:
            tracer.close_task()
        if sum(pending) >= speed.EVERY_S or task_id == len(tasks) - 1:
            calibrations.append(speed.calibrate(speed.SHARE * sum(pending)))
            factor = speed.scale(calibrations[-2], calibrations[-1])
            task_raw += pending
            task_s += [t * factor for t in pending]
            pending = []
    record = {
        "wall_s": sum(task_s), "wall_raw_s": sum(task_raw),
        "task_s": task_s, "task_raw_s": task_raw,
        "setup_scale": speed.scale(calibrations[0], calibrations[0]),
        "calibrations_s": calibrations,
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer:
        # taken before the checks, which call traced functions themselves
        record["trace"] = tracer.record()
    record["problems"] = [check(task, out, outputs) for task, out in zip(tasks, outputs)]
    return record


def check(task, output, outputs):
    try:
        return task.check(output, outputs)
    except Exception as exc:  # a check that cannot run fails its task
        return f"{task.label}: check raised {exc!r}"


def run_cli(traced: bool, argv: list[str]) -> dict:
    before = speed.calibrate(speed.FIRST_S)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        tracer.open_task(0, " ".join(argv[:1]))
    begin = perf_counter()
    try:
        status = stirperm.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    sys.stdout.flush()
    task_raw = perf_counter() - begin
    if tracer:
        tracer.close_task()
    after = speed.calibrate(speed.SHARE * task_raw)
    record = {
        "status": status, "peak_rss_kib": peak_rss_kib(),
        "task_s": task_raw * speed.scale(before, after), "task_raw_s": task_raw,
        "setup_scale": speed.scale(before, before),
        "calibrations_s": [before, after],
    }
    if tracer:
        record["trace"] = tracer.record()
    return record


def main() -> int:
    mode, result_path = sys.argv[1], sys.argv[2]
    if mode == "setup":
        calibration = speed.calibrate(speed.FIRST_S)
        record = {"setup_scale": speed.scale(calibration, calibration)}
    elif mode == "job":
        record = run_job(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
    else:
        record = run_cli(sys.argv[3] == "1", sys.argv[4:])
    record["imported"] = IMPORTED
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record.get("status") or 0


if __name__ == "__main__":
    sys.exit(main())
