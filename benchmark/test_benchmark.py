"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest benchmark

They check the output schema, the correctness check and the seeded call
order, never a timing.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "record.json")) as _f:
    RECORDS = json.load(_f)


def _item(workload, text, form=None):
    return next(
        item for item in workloads.POOLS[workload]
        if item[1] == text and (form is None or item[2] == form)
    )


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "failures": {}}


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "ref_trips",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_rounds_are_seeded_shuffles_of_the_weighted_pool():
    for workload, pool in workloads.POOLS.items():
        deck = sorted(i for i, item in enumerate(pool) for _ in range(item[0]))
        n = 3 * len(deck)
        first = list(itertools.islice(workloads.call_order(workload, 7), n))
        assert first == list(itertools.islice(workloads.call_order(workload, 7), n))
        assert first != list(itertools.islice(workloads.call_order(workload, 8), n))
        for r in range(3):
            assert sorted(first[r * len(deck):(r + 1) * len(deck)]) == deck


def test_oracle_closed_forms():
    assert workloads.oracle("ack(3,3)") == 61
    assert workloads.oracle("ack(2,4)") == 11
    assert workloads.oracle("knuth(3,2,3)") == 7625597484987
    assert workloads.oracle("3->3->2") == 7625597484987
    assert workloads.oracle("2^^4") == 65536
    assert workloads.oracle("knuth(3,0,5)") == 15
    assert workloads.oracle("conway(3,4)") == 81
    assert workloads.oracle("conway()") == 1
    assert workloads.oracle("ack(4,1)") is None
    assert workloads.oracle("2->2->2->2") is None


def test_every_pool_item_is_recorded_and_every_value_has_an_oracle():
    for workload, pool in workloads.POOLS.items():
        for item in pool:
            record = RECORDS[workload][workloads.item_id(item)]
            if record.get("kind") == "value" or record.get("exit") == 0:
                assert workloads.oracle(item[1]) is not None, item


def _check(workload, item, outcome):
    record = RECORDS[workload][workloads.item_id(item)]
    return workloads.check(workload, item, outcome, record)


def test_check_flags_wrong_library_outcomes():
    sys.set_int_max_str_digits(10**6)
    trip = _item("ref_trips", "3->3->3")
    assert _check("ref_trips", trip, ["budget", None, 100000, 13]) is None
    assert _check("ref_trips", trip, ["magnitude", None, 100000, 13])
    assert _check("ref_trips", trip, ["budget", None, 99999, 13])
    assert _check("ref_trips", trip, ["exception:ValueError", None, None, None])
    value = _item("fold_towers", "knuth(2,2,5)")
    good = format(2**65536, "x")
    assert _check("fold_towers", value, ["value", good, 65567, 19729]) is None
    assert _check("fold_towers", value, ["value", format(2**65536 + 1, "x"), 65567, 19729])


def test_check_flags_wrong_repl_outcomes():
    line = _item("repl_mix", "ack(3,3)")
    assert _check("repl_mix", line, [0, "61\nsteps=3680 peak_digits=2\n", ""]) is None
    assert _check("repl_mix", line, [0, "62\nsteps=3680 peak_digits=2\n", ""])
    assert _check("repl_mix", line, [0, "61\nsteps=3681 peak_digits=2\n", ""])
    assert _check("repl_mix", line, [5, "", "mismatch: ...\n"])
    trip = _item("repl_mix", "3->3->3")
    err = "budget: step budget exhausted (max_steps=1000)\nsteps=1000 peak_digits=13\n"
    assert _check("repl_mix", trip, [3, "", err]) is None
    assert _check("repl_mix", trip, [3, "", err.replace("1000 peak", "999 peak")])
    crash = _item("repl_mix", "2->4->3", "primitive")
    assert _check("repl_mix", crash, ["exception:ValueError", "", ""])
    assert ("repl_mix", workloads.item_id(crash)) in workloads.KNOWN_DEFECTS


def test_only_listed_known_defects_are_explained():
    crash = workloads.POOLS["repl_mix"].index(_item("repl_mix", "2->4->3", "primitive"))
    cheap = workloads.POOLS["repl_mix"].index(_item("repl_mix", "2^^4"))
    outcomes = [
        [crash, ["exception:ValueError", "", ""], 2],
        [cheap, [1, "", "Traceback\n"], 1],
    ]
    wrong, unexplained, reasons = workloads.check_all("repl_mix", outcomes, RECORDS)
    assert (wrong, unexplained, len(reasons)) == (3, 1, 2)


def test_tracer_reports_absent_entry_points_and_keeps_results():
    code = """
import json, sys
import tracing
from hyperfold import notation
tracer = tracing.Tracer()
entries = tracing.ENTRIES + [("backend", "backend", "run_knuth"),
                             ("backend", "no_such_module", "run_ack")]
tracing.install(tracer, entries)
value, stats = notation.evaluate(notation.parse("ack(2,3)"), "both")
layers = sorted({tracing.LAYERS[s[0]] for s in tracer.spans})
print(json.dumps([value, stats.steps_used, tracer.absent, layers]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, steps, absent, layers = json.loads(proc.stdout)
    assert value == 9
    assert absent == ["backend.run_knuth", "no_such_module.run_ack"]
    assert {"notation.parse", "notation.evaluate", "hyperops.ref", "hyperops.prim",
            "backend", "machines"} <= set(layers)


def test_scaling_takes_the_host_speed_out_of_each_call():
    ref = calibrate.REF_MS
    # the host runs at half speed for the first second, at full speed after
    samples = [[t / 10, 2 * ref] for t in range(10)] + [[1 + t / 10, ref] for t in range(10)]
    scaled = calibrate.scaled_ms([10.0, 10.0, 10.0], [0.1, 1.6, 5.0], samples)
    assert scaled == [5.0, 10.0, 10.0]  # the last call takes the nearest samples
    # too few samples in the window: the nearest ones on either side count
    sparse = [[float(t), 2 * ref] for t in range(3)] + [[float(t), ref] for t in (3, 4, 5, 9)]
    assert calibrate.scaled_ms([10.0], [0.5], sparse) == [5.0]  # from 0.0 to 4.0
    assert calibrate.scaled_ms([10.0], [3.5], sparse) == [10.0]  # from 1.0 to 5.0
    assert calibrate.host_speed(samples) == ref / (1.5 * ref)


def test_known_defect_shows_untimed_and_no_timed_call_fails():
    code = """
import json, sys
import worker
job = {"workload": "repl_mix", "seed": 3, "src": sys.argv[1], "trace": False,
       "seconds": None, "max_calls": 40}
print(json.dumps(worker.run(job)))
"""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, src]))
    proc = subprocess.run([sys.executable, "-c", code, src], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    sys.set_int_max_str_digits(10**6)
    timed = workloads.check_all("repl_mix", result["outcomes"], RECORDS)
    untimed = workloads.check_all("repl_mix", result["untimed_outcomes"], RECORDS)
    assert timed == (0, 0, {})
    crash = workloads.item_id(_item("repl_mix", "2->4->3", "primitive"))
    assert untimed[:2] == (1, 0) and list(untimed[2]) == [crash]
    assert len(result["latencies_ms"]) == len(result["starts_s"]) == 40
    assert result["calibration"]
