"""One benchmark child: a closed loop with one client over one workload.

Reads a job from stdin as JSON: ``workload``, ``seed``, ``src`` (the
program's source directory, already first on ``PYTHONPATH``), ``seconds``
(stop at the first call that ends after this long; null for no limit),
``max_calls`` (null for no limit) and ``trace``.  Writes one JSON document
to stdout: per-call latencies and start times, the host-speed calibration
samples taken between calls (calibrate.py), the distinct outcomes of the
timed calls and of the untimed calls before them, with their counts, and,
when traced, the spans.  Only a traced child imports ``tracing``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import calibrate
import workloads


def _library_call(notation, budget_mod, item):
    _, text, form, max_steps = item
    budget = budget_mod.Budget(max_steps=max_steps)

    def call():
        try:
            value, stats = notation.evaluate(notation.parse(text), form, budget)
        except budget_mod.HyperError as exc:
            return [exc.kind, None, exc.stats.steps_used, exc.stats.peak_digits]
        except notation.ParseError:
            return ["parse", None, None, None]
        except notation.MismatchError:
            return ["mismatch", None, None, None]
        except Exception as exc:  # a crash is an outcome to count, not to stop on
            return [f"exception:{type(exc).__name__}", None, None, None]
        return ["value", value, stats.steps_used, stats.peak_digits]

    return call


def _repl_call(cli, item):
    _, text, form, max_steps = item
    config = cli.Config(form=form, max_steps=max_steps)

    def call():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_eval(text, config)
        except Exception as exc:  # a crash is an outcome to count, not to stop on
            code = f"exception:{type(exc).__name__}"
        return [code, out.getvalue(), err.getvalue()]

    return call


def _calls(workload: str):
    """One zero-argument call per pool item, built before any timing."""
    pool = workloads.POOLS[workload]
    if workloads.CALL_KIND[workload] == workloads.REPL:
        from hyperfold import cli

        return [_repl_call(cli, item) for item in pool]
    from hyperfold import budget, notation

    return [_library_call(notation, budget, item) for item in pool]


def _count(outcomes: dict, index: int, outcome) -> None:
    if outcome[0] == "value":
        outcome[1] = format(outcome[1], "x")
    key = (index, json.dumps(outcome))
    outcomes[key] = outcomes.get(key, 0) + 1


def _listed(outcomes: dict) -> list:
    return [[i, json.loads(o), n] for (i, o), n in outcomes.items()]


def run(job) -> dict:
    import hyperfold

    src = os.path.realpath(job["src"])
    origin = os.path.realpath(hyperfold.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"hyperfold imported from {origin}, not from {src}")
    workload = job["workload"]
    calls = _calls(workload)
    pool = workloads.POOLS[workload]

    # Untimed, before anything is wrapped.  First every listed known defect,
    # as the first call of a fresh process, so that it shows in every run
    # whatever the seed; then one call of every item in pool order.  A REPL
    # process's history changes outcomes (the first large output lifts the
    # int->str cap for the whole process), and this warm-up fixes that
    # history before timing, so no timed outcome depends on the seed.
    probe = [i for i, item in enumerate(pool)
             if (workload, workloads.item_id(item)) in workloads.KNOWN_DEFECTS]
    untimed = {}
    for index in probe + list(range(len(pool))):
        _count(untimed, index, calls[index]())

    def run_one(index):
        return calls[index]()

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_one = tracer.root(run_one)

    seconds, max_calls = job["seconds"], job["max_calls"]
    latencies = []
    starts = []
    outcomes = {}
    clock = time.perf_counter
    start = clock()
    sampler = calibrate.Sampler(start)
    for index in workloads.call_order(workload, job["seed"]):
        if max_calls is not None and len(latencies) >= max_calls:
            break
        sampler.maybe(clock())
        t0 = clock()
        outcome = run_one(index)
        t1 = clock()
        latencies.append((t1 - t0) * 1e3)
        starts.append(t0 - start)
        _count(outcomes, index, outcome)
        if seconds is not None and t1 - start >= seconds:
            break
    sampler.maybe(clock())
    result = {
        "latencies_ms": latencies,
        "starts_s": starts,
        "calibration": sampler.samples,
        "outcomes": _listed(outcomes),
        "untimed_outcomes": _listed(untimed),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    return result


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
