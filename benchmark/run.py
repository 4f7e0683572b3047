"""The hyperfold benchmark: one seeded workload per run, or a smoke pass.

Usage, from the repository root:

    python3 benchmark/run.py --workload ref_trips --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --smoke

A run measures set-up time on fresh interpreters, before and after it runs
the workload in one child process, a closed loop with one client, for
``--seconds``, and checks every outcome (see workloads.py).  Every timing
is scaled to a fixed host speed by a calibration kernel (calibrate.py); the
unscaled timings are printed too.  With ``--trace 1`` a second child
replays the same calls with spans around each layer's entry points
(tracing.py) and the run reports per-layer metrics instead of end-to-end
ones.  The last line of stdout is the result as JSON; the lines before it
give the environment, each metric with its unit and sample count, and every
wrong outcome.  ``--smoke`` runs every workload briefly, traced, and checks
the result schema and the correctness check, never a timing.

The program is taken from ``src/`` beside this directory and never edited or
installed; the run fails, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 20
#: a run, both children included, is cut off after this long
RUN_LIMIT_S = 170.0
SMOKE_SECONDS = 0.2

_PROBE_IMPORT = {workloads.LIBRARY: "hyperfold", workloads.REPL: "hyperfold.cli"}

#: Printed with every untraced run but left out of BENCHMARK.json: the
#: median latency, which on repl_mix (calls of about 0.1 ms) spreads too
#: widely across seeds to hold a bound; the host's speed during the run; and
#: the timings before scaling by it, which swing with the host (README.md,
#: Steadiness).
_NOT_GATED = {
    "call_ms_p50": "ms",
    "host_speed": "ratio",
    "raw.setup_s": "s",
    "raw.call_ms_p50": "ms",
    "raw.call_ms_p90": "ms",
    "raw.calls_per_s": "1/s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _kill_at(proc, deadline: float) -> threading.Timer:
    """Kill ``proc`` if it is still running at ``deadline`` (monotonic)."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return timer


def _setup_seconds(workload: str, probes: int, deadline: float, warm: bool):
    """Spawn-to-ready times of fresh interpreters importing the program.

    Returns the times in seconds and the kernel samples in ms: after it
    reports ready, outside its timed span, each probe times the calibration
    kernel five times.  With ``warm``, one extra probe runs first and is not
    counted: it compiles the bytecode cache, which a user pays once per
    install, not once per process.
    """
    module = _PROBE_IMPORT[workloads.CALL_KIND[workload]]
    code = (
        f"import {module}, sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
        f"sys.path.insert(0, {HERE!r})\nimport calibrate\n"
        "print(*(calibrate.sample_ms() for _ in range(5)))"
    )
    times, samples = [], []
    for _ in range(probes + warm):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        watchdog = _kill_at(proc, deadline)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.decode(errors='replace')}")
        times.append(t1 - t0)
        samples.append([float(ms) for ms in out.split()])
    return times[warm:], [ms for probe in samples[warm:] for ms in probe]


def _run_child(job: dict, deadline: float):
    """Run worker.py on ``job``; returns (result, rusage) from os.wait4."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    watchdog = _kill_at(proc, deadline)
    try:
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker died at start-up; its exit code and stderr say why
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        detail = err[0].decode(errors="replace").strip() if err else ""
        raise BenchError(f"worker exited {proc.returncode}: {detail}")
    return json.loads(out), usage


def _scaled(result: dict) -> list[float]:
    """The child's call latencies with the host's speed taken out (calibrate.py)."""
    if not result["calibration"]:
        raise BenchError("the worker took no calibration samples")
    return calibrate.scaled_ms(result["latencies_ms"], result["starts_s"],
                               result["calibration"])


def _quantiles(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), deciles[8]


def _checked(workload: str, result: dict, records: dict):
    wrong, unexplained, reasons = workloads.check_all(
        workload, result["outcomes"], records
    )
    return len(result["latencies_ms"]), wrong, unexplained, reasons


def _add_untimed(run: dict, workload: str, result: dict, records: dict) -> None:
    """Check the child's untimed calls (defect probe and warm-up) into ``run``."""
    outcomes = result["untimed_outcomes"]
    wrong, unexplained, reasons = workloads.check_all(workload, outcomes, records)
    untimed = run.setdefault("untimed", {"calls": 0, "wrong": 0, "unexplained": 0,
                                         "reasons": {}})
    untimed["calls"] += sum(count for _, _, count in outcomes)
    untimed["wrong"] += wrong
    untimed["unexplained"] += unexplained
    for key, (reason, count) in reasons.items():
        untimed["reasons"].setdefault(key, [reason, 0])[1] += count


def run_once(workload: str, seed: int, seconds: float, trace: bool, probes: int) -> dict:
    """Measure one workload; returns every number the run reports."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(os.path.join(HERE, "record.json")) as f:
        records = json.load(f)
    # Half the set-up probes run before the child and half after it, so
    # their median spans the run rather than one moment of it.
    setup, setup_samples = _setup_seconds(workload, probes // 2, deadline, warm=True)
    # A traced run splits its time: the untraced child gets half, and the
    # traced child replays the same calls, so the overhead compares like
    # with like and the whole run still takes about ``seconds``.
    job = {"workload": workload, "seed": seed, "src": SRC, "trace": False,
           "seconds": seconds / 2 if trace else seconds, "max_calls": None}
    plain, usage = _run_child(job, deadline)
    more, more_samples = _setup_seconds(workload, probes - probes // 2, deadline, warm=False)
    setup += more
    # scaled by the host's speed over all the probes (README.md, Steadiness)
    setup_speed = calibrate.REF_MS / statistics.median(setup_samples + more_samples)
    latencies = plain["latencies_ms"]
    raw_p50, raw_p90 = _quantiles(latencies)
    scaled = _scaled(plain)
    p50, p90 = _quantiles(scaled)
    n, wrong, unexplained, reasons = _checked(workload, plain, records)
    run = {
        "workload": workload,
        "seed": seed,
        "calls": n,
        "beyond_p90": sum(1 for x in scaled if x > p90),
        "setup_probes": len(setup),
        "calibration_samples": len(plain["calibration"]),
        "attempted": n,
        "wrong": wrong,
        "unexplained": unexplained,
        "reasons": reasons,
        "end_to_end": {
            "setup_s": statistics.median(setup) * setup_speed,
            "call_ms_p90": p90,
            "calls_per_s": n / (sum(scaled) / 1e3),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        },
        "not_gated": {
            "call_ms_p50": p50,
            "host_speed": calibrate.host_speed(plain["calibration"]),
            "raw.setup_s": statistics.median(setup),
            "raw.call_ms_p50": raw_p50,
            "raw.call_ms_p90": raw_p90,
            "raw.calls_per_s": n / (sum(latencies) / 1e3),
        },
    }
    _add_untimed(run, workload, plain, records)
    if trace:
        job.update(trace=True, seconds=None, max_calls=n)
        traced, _ = _run_child(job, deadline)
        t_n, t_wrong, t_unexplained, t_reasons = _checked(workload, traced, records)
        if t_n != n:
            raise BenchError(f"traced replay made {t_n} calls, not {n}")
        for key, (reason, count) in t_reasons.items():
            reasons.setdefault(key, [reason, 0])[1] += count
        run["attempted"] += t_n
        run["wrong"] += t_wrong
        run["unexplained"] += t_unexplained
        _add_untimed(run, workload, traced, records)
        overhead = sum(_scaled(traced)) / sum(scaled) - 1
        run["per_layer"] = tracing.summarize(traced["spans"], n, overhead)
        run["absent"] = traced["absent"]
    return run


def _environment(run: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "HYPERFOLD_BACKEND": os.environ.get("HYPERFOLD_BACKEND"),
        "seed": run["seed"],
        "samples": {
            "workload": run["workload"],
            "calls": run["calls"],
            "beyond_p90": run["beyond_p90"],
            "setup_probes": run["setup_probes"],
            "calibration_samples": run["calibration_samples"],
        },
    }


def _spec() -> dict:
    with open(SPEC) as f:
        return json.load(f)


def _print_reasons(label: str, workload: str, reasons: dict) -> None:
    for key, (reason, count) in sorted(reasons.items()):
        known = workloads.KNOWN_DEFECTS.get((workload, key))
        note = f" [known defect: {known}]" if known else ""
        print(f"# {label} x{count}: {key}: {reason}{note}")


def report(run: dict, trace: bool) -> dict:
    """Print the run; the last line is the result JSON, which is returned."""
    spec = _spec()
    section = "per_layer" if trace else "end_to_end"
    values = run[section]
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise BenchError(f"{section} metrics differ from BENCHMARK.json")
    print(f"# hyperfold benchmark: workload={run['workload']} seed={run['seed']} "
          f"trace={int(trace)}")
    print(f"# env {json.dumps(_environment(run))}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6f} {unit}")
    if not trace:
        for name, unit in _NOT_GATED.items():
            print(f"{name:32s} {run['not_gated'][name]:14.6f} {unit}  (not gated)")
    print(f"{'error_ratio':32s} {run['wrong'] / run['attempted']:14.6f} ratio"
          f"  ({run['wrong']} wrong of {run['attempted']} calls, "
          f"{run['unexplained']} not explained by a known defect)")
    _print_reasons("wrong", run["workload"], run["reasons"])
    untimed = run["untimed"]
    print(f"# untimed calls before timing (known-defect probe, then one warm-up "
          f"call per item): {untimed['calls']}, {untimed['wrong']} wrong, "
          f"{untimed['unexplained']} not explained by a known defect")
    _print_reasons("untimed wrong", run["workload"], untimed["reasons"])
    if trace and run["absent"]:
        print(f"# absent entry points: {', '.join(run['absent'])}")
    result = {
        "correct": run["unexplained"] == 0 and untimed["unexplained"] == 0,
        "attempted": run["attempted"],
        "failed": run["wrong"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return result


def _schema_errors(result: dict, section: str) -> list[str]:
    names = [m["name"] for m in _spec()[section]]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        errors.append("failed is not an integer")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        errors.append(f"{section} metric names differ from BENCHMARK.json")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} is not a finite number")
    return errors


def smoke() -> int:
    """Every workload, briefly and traced: schema and correctness only."""
    failures = {}
    for workload in workloads.POOLS:
        run = run_once(workload, seed=0, seconds=SMOKE_SECONDS, trace=True, probes=1)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            errors = _schema_errors(report(run, trace), section)
            if errors:
                failures[f"{workload}/{section}"] = errors
    print(json.dumps({"smoke": "ok" if not failures else "failed", "failures": failures}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "hyperfold", "__init__.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    # The checks render values of up to ~20,000 digits in this process.
    sys.set_int_max_str_digits(10**6)
    try:
        if args.smoke:
            return smoke()
        run = run_once(args.workload, args.seed, args.seconds, bool(args.trace), SETUP_PROBES)
        report(run, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
