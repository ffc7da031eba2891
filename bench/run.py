"""dynctl benchmark: fixed CLI sweeps timed end to end, plus a traced run per layer.

Usage (from the repository root):

    python3 bench/run.py --workload q_wander --seed 1 --seconds 20 --trace 0

Each workload is one dynctl CLI invocation, run closed loop: one CLI process
at a time, started by this driver, the next only after the previous exits,
until --seconds have passed (at least two runs). Every run's stdout must hash
to the workload's pinned sha256. Every timed process is forked from
spawn.py, which reports its wall time, CPU and peak RSS.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. Each timed run
is paused every PAUSE_EVERY_S for a slice of the reference loop in calib.py,
and every time metric is scaled to that loop's reference speed, so that the
drift of a shared machine does not show as a change of the program. --trace 1
alternates an untraced run with a traced one (bench/traced_cli.py, which
wraps dynctl's public functions from outside the library) and reports the
per-layer metrics, including the tracing overhead, after checking the
prediction table in workloads.py.

The workload inputs are fixed. The seed becomes PYTHONHASHSEED of every
process started, so runs with different seeds also check that the report
bytes do not depend on hash order.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calib
from workloads import WORKLOADS, Workload, check_predictions

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
# A timed run is stopped this often for calibration slices (calib.py).
PAUSE_EVERY_S = 0.25
# Every process this benchmark starts is killed by then, so one invocation
# ends well inside three minutes even if the program hangs.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    slices: list[float]  # calibration slices timed while the run was paused


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Pauser(threading.Thread):
    """Stops a process group every PAUSE_EVERY_S, times one calibration
    slice on each CPU the thread may use while the group is stopped, and
    lets the group go on."""

    def __init__(self, pgid: int, slices: list[float]):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.slices = slices
        self.paused_s = 0.0
        self.error: BaseException | None = None
        self.done = threading.Event()

    def run(self) -> None:
        try:
            while not self.done.wait(PAUSE_EVERY_S):
                t0 = perf_counter()
                os.killpg(self.pgid, signal.SIGSTOP)
                try:
                    self.slices.extend(calib.burst())
                finally:
                    os.killpg(self.pgid, signal.SIGCONT)
                    self.paused_s += perf_counter() - t0
        except ProcessLookupError:
            pass
        except BaseException as exc:
            self.error = exc

    def finish(self) -> float:
        """Stop pausing; return the seconds the group spent paused."""
        self.done.set()
        self.join()
        if self.error is not None:
            raise self.error
        return self.paused_s


def run_process(cmd: list[str], env: dict[str, str], deadline: float,
                calibrate: bool = False) -> Run:
    """Run cmd through spawn.py in its own process group, read its stdout,
    and reap it.

    wall_s, cpu_s and peak_rss_mb are what spawn.py measured for cmd: from
    fork to reap, with the rusage that covers cmd and the children it waited
    for (pool workers). The group is killed at the deadline. With
    `calibrate`, the group is paused for calibration slices, and wall_s
    leaves the pauses out.
    """
    report_r, report_w = os.pipe()
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn.py"), str(report_w), *cmd],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
            pass_fds=(report_w,))
    except BaseException:
        os.close(report_r)
        raise
    finally:
        os.close(report_w)
    timer = threading.Timer(max(0.0, deadline - t0), _kill_group, (proc.pid,))
    timer.start()
    slices: list[float] = []
    pauser = Pauser(proc.pid, slices) if calibrate else None
    paused = 0.0
    try:
        if pauser:
            pauser.start()
        out = proc.stdout.read()
        if pauser:
            paused = pauser.finish()
        _, status, usage = os.wait4(proc.pid, 0)
        if pauser and not slices:
            # The run ended before its first pause.
            slices.extend(calib.burst())
    except BaseException:
        if pauser:
            pauser.done.set()
            pauser.join()
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        with os.fdopen(report_r, "rb") as fh:
            report = fh.read().split()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if len(report) == 3:
        wall, cpu, maxrss_kib = float(report[0]), float(report[1]), int(report[2])
    else:
        # spawn.py was killed before it reported: fall back to its own figures.
        wall = perf_counter() - t0
        cpu, maxrss_kib = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    return Run(wall - paused, cpu, maxrss_kib / 1024.0, proc.returncode, out, slices)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    # The worker count is always passed as a flag; an inherited variable
    # must not change the load.
    env.pop("DYNCTL_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def cli_cmd(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "dynctl.cli", *argv]


def report_ok(run: Run, sha256: str) -> bool:
    return run.exit_code == 0 and hashlib.sha256(run.stdout).hexdigest() == sha256


def measure_setup(name: str, env: dict[str, str], deadline: float,
                  slices: list[float]) -> list[float]:
    """Seconds for a fresh interpreter to import dynctl.cli and build the
    workload's map, family or S-set; the first, untimed start fills the
    bytecode cache. A calibration burst follows each timed start."""
    cmd = [sys.executable, "-c", "import dynctl.cli\n" + WORKLOADS[name].setup]
    times = []
    for i in range(SETUP_REPEATS + 1):
        run = run_process(cmd, env, deadline)
        if run.exit_code != 0:
            raise RuntimeError(f"set-up for {name} exited with {run.exit_code}")
        if i:
            times.append(run.wall_s)
            slices.extend(calib.burst())
    return times


def closed_loop(run_once, seconds: float, deadline: float, min_calls: int) -> list:
    """Call run_once back to back, at least min_calls times, and stop at the
    call boundary nearest to `seconds`: another call starts only if less than
    half of it, judged by the last call's duration, would fall past
    `seconds`, and never if it would overrun the deadline."""
    results = []
    start = perf_counter()
    last = 0.0
    while len(results) < min_calls or perf_counter() - start + last / 2 < seconds:
        if perf_counter() + last > deadline:
            break
        t0 = perf_counter()
        results.append(run_once())
        last = perf_counter() - t0
    return results


def benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def workload_cpus(wl: Workload) -> set[int]:
    """The first --workers allowed CPUs (one for a workload without the flag)."""
    argv = list(wl.argv)
    workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
    return set(sorted(os.sched_getaffinity(0))[:workers])


def untraced(name: str, seconds: float, env, deadline, units) -> tuple[dict, list[bool]]:
    wl = WORKLOADS[name]
    # Every process started from here on, and every calibration slice, runs
    # on the CPUs the workload's processes need.
    os.sched_setaffinity(0, workload_cpus(wl))
    slices: list[float] = []
    setups = measure_setup(name, env, deadline, slices)
    # Two runs at least: the longest workloads take over half of 20 seconds.
    runs = closed_loop(lambda: run_process(cli_cmd(wl.argv), env, deadline, calibrate=True),
                       seconds, deadline, min_calls=2)
    oks = [report_ok(r, wl.sha256) for r in runs]
    n = len(runs)
    # Every time below is scaled to the reference speed of calib.py: a run by
    # the slices timed while it was paused, the set-ups by the slices between
    # them. Time adds up as 1/speed does, so the scale uses the mean slice.
    setup_scale = calib.REF_SLICE_S / statistics.mean(slices)
    run_scales = [calib.REF_SLICE_S / statistics.mean(r.slices) for r in runs]
    setup_s = statistics.median(setups) * setup_scale
    samples = {
        "wall_s": [r.wall_s * k for r, k in zip(runs, run_scales)],
        "setup_s": [t * setup_scale for t in setups],
        "items_per_s": [wl.items / (r.wall_s * k - setup_s) for r, k in zip(runs, run_scales)],
        "cpu_s": [r.cpu_s * k for r, k in zip(runs, run_scales)],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    values = {metric: statistics.median(xs) for metric, xs in samples.items()}
    n_slices = len(slices) + sum(len(r.slices) for r in runs)
    print(f"  calibration: {n_slices} slices; the scale to reference speed was "
          f"{fmt(min(run_scales))} .. {fmt(max(run_scales))} for the runs and "
          f"{fmt(setup_scale)} for the set-ups")
    print(f"  raw wall_s median {statistics.median(r.wall_s for r in runs):.6g} s, raw setup_s "
          f"median {statistics.median(setups):.6g} s")
    for metric in units:
        xs = samples[metric]
        what = "set-ups" if metric == "setup_s" else "runs"
        print(f"  {metric:<12} {fmt(values[metric]):>12} {units[metric]:<6} median of "
              f"{len(xs)} {what}, range {fmt(min(xs))} .. {fmt(max(xs))}")
    print(f"  {'':<12} {'':>12} {'':<6} {wl.items} {wl.item} per run")
    print(f"  {'fail_frac':<12} {fmt(oks.count(False) / n):>12} {'ratio':<6} "
          f"{oks.count(False)} of {n} runs exited nonzero or changed the report")
    return values, oks


def traced(name: str, seconds: float, env, deadline, units) -> tuple[dict, list[bool]]:
    wl = WORKLOADS[name]
    traced_cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *wl.argv]

    def pair():
        return (run_process(cli_cmd(wl.argv), env, deadline),
                run_process(traced_cmd, env, deadline))

    pairs = closed_loop(pair, seconds, deadline, min_calls=1)
    oks = []
    samples = []
    plain_walls = []
    traced_walls = []
    for plain, run in pairs:
        oks.append(report_ok(plain, wl.sha256))
        plain_walls.append(plain.wall_s)
        lines = run.stdout.decode().strip().splitlines()
        payload = json.loads(lines[-1]) if run.exit_code == 0 and lines else None
        ok = (payload is not None and payload["exit"] == 0
              and payload["sha256"] == wl.sha256)
        if payload is not None:
            problems = check_predictions(name, payload["layer_calls"])
            for problem in problems:
                print(f"  prediction table violated: {problem}")
            ok = ok and not problems
            samples.append(payload["metrics"])
            traced_walls.append(run.wall_s)
        oks.append(ok)
    values = {}
    if samples:
        values = {metric: statistics.median(s[metric] for s in samples)
                  for metric in samples[0]}
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(plain_walls))
    for metric in units:
        if metric in values:
            print(f"  {metric:<38} {fmt(values[metric]):>14} {units[metric]}")
    print(f"  {len(samples)} traced runs against {len(plain_walls)} untraced; every report "
          f"matched the pinned digest and the prediction table held: {all(oks)}")
    return {m: values[m] for m in units if m in values}, oks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dynctl" / "cli.py").is_file():
        print(f"dynctl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so run_process kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + DEADLINE_S
    env = child_env(args.seed)
    kind = "per_layer" if args.trace else "end_to_end"
    units = benchmark_metrics()[kind]
    wl = WORKLOADS[args.workload]
    print(f"dynctl bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; Python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    print(f"  closed loop, one CLI process at a time: dynctl "
          f"{' '.join(repr(a) if not a or ' ' in a else a for a in wl.argv)}")
    measure = traced if args.trace else untraced
    values, oks = measure(args.workload, args.seconds, env, deadline, units)
    failed = oks.count(False)
    print(json.dumps({
        "correct": failed == 0 and set(values) == set(units),
        "attempted": len(oks),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
