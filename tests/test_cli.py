import contextlib
import errno
import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfold import budget, cli, notation
from hyperfold.budget import Budget, ConstructionLimit, EvalStats
from hyperfold.notation import FORMS, MismatchError, evaluate, parse

CLI = [sys.executable, "-m", "hyperfold.cli"]


def run_cli(*args, stdin=None, timeout=120, env=None):
    return subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_eval_success_and_stats_line():
    proc = run_cli("eval", "3->3->2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "7625597484987"
    assert lines[1].startswith("steps=") and " peak_digits=" in lines[1]


def test_eval_quiet_prints_value_only():
    proc = run_cli("--quiet", "eval", "ack(3,3)")
    assert proc.returncode == 0
    assert proc.stdout == "61\n"


def test_eval_is_byte_identical_across_runs():
    first = run_cli("eval", "2^^4")
    second = run_cli("eval", "2^^4")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    assert first.stdout.splitlines()[0] == "65536"


def test_parse_error_exit_2_with_position():
    proc = run_cli("eval", "3->->2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "offset 3" in proc.stderr


def test_budget_exit_3_and_steps_report():
    proc = run_cli("--max-steps", "1000", "eval", "3->3->3")
    assert proc.returncode == 3
    assert "step budget" in proc.stderr
    steps_line = [l for l in proc.stderr.splitlines() if l.startswith("steps=")]
    assert steps_line, proc.stderr
    steps_used = int(steps_line[0].split()[0].split("=")[1])
    assert steps_used <= 1000


def test_domain_error_exit_4():
    proc = run_cli("eval", "conway(0)")
    assert proc.returncode == 4
    assert proc.stdout == ""


def test_form_flags():
    for form in ("reference", "primitive", "both"):
        proc = run_cli("--form", form, "--quiet", "eval", "2->3->2")
        assert proc.returncode == 0
        assert proc.stdout == "16\n"


def test_magnitude_cap_exits_3():
    proc = run_cli("--max-digits", "3", "eval", "knuth(10,1,50)")
    assert proc.returncode == 3
    assert "digits" in proc.stderr
    # the equations reach 10 at step 64, inside a level-1 frame
    args = ("--form", "reference", "--max-digits", "1", "--max-steps", "64")
    proc = run_cli(*args, "eval", "ack(2,4)")
    assert proc.returncode == 3
    assert proc.stderr.startswith("magnitude:")
    assert "steps=64 peak_digits=2" in proc.stderr.splitlines()


@pytest.mark.parametrize(
    "text, code, kind, stats",
    [
        ("2->4->3", 3, "magnitude", "steps=76 peak_digits=19729"),
        ("knuth(2, 2^^5, 2)", 4, "construction", "steps=65567 peak_digits=19729"),
    ],
)
def test_error_message_with_count_past_int_str_cap(text, code, kind, stats):
    # under the default int->str cap, a ~20,000-digit count must not be
    # rendered into the message
    proc = run_cli("--form", "primitive", "eval", text)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(f"{kind}:")
    assert stats in proc.stderr.splitlines()


def test_eval_with_int_str_cap_disabled():
    # PYTHONINTMAXSTRDIGITS=0 means no cap; it must be left alone
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
    proc = run_cli("eval", "2^^4", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "65536"


def test_a_mismatch_exits_5_with_both_values(monkeypatch, capsys):
    # a fold form made to disagree: evaluate raises with both values, and
    # the CLI names them on stderr, with no stats line, and exits 5
    ack_prim = notation.eval_ack_prim
    monkeypatch.setattr(notation, "eval_ack_prim", lambda *a: ack_prim(*a) + 1)
    with pytest.raises(MismatchError) as mismatch:
        evaluate(parse("ack(1,1)"), "both")
    assert (mismatch.value.reference_value, mismatch.value.primitive_value) == (3, 4)
    assert cli.run_eval("ack(1,1)", cli.Config()) == cli.EXIT_MISMATCH == 5
    assert capsys.readouterr() == (
        "",
        "mismatch: reference and primitive evaluations disagree: 3 vs 4\n",
    )


def test_an_interactive_repl_shows_a_banner_and_prompts():
    # a terminal on stdin makes the session interactive: a banner, then a
    # prompt before each read, the results on stdout between them
    pty = pytest.importorskip("pty")
    leader, follower = pty.openpty()
    try:
        proc = subprocess.Popen(
            CLI + ["repl"],
            stdin=follower,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        os.write(leader, b"2^^4\n:quit\n")
        out, err = proc.communicate(timeout=60)
    finally:
        os.close(follower)
        os.close(leader)
    assert (proc.returncode, err) == (0, "")
    assert out == (
        "enter an expression per line, :quit to leave\n"
        "hyperfold> 65536\nsteps=85 peak_digits=5\nhyperfold> "
    )


def test_repl_session():
    proc = run_cli("--quiet", "repl", stdin="2^^4\n\n1->2\n:quit\nignored\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["65536", "1"]


def test_repl_recovers_from_errors():
    proc = run_cli("--quiet", "repl", stdin="3->\nbad(\n5->2\n:quit\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["25"]
    assert proc.stderr.count("parse error") == 2


def test_repl_eof_ends_cleanly():
    proc = run_cli("--quiet", "repl", stdin="7\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["7"]


def test_repl_unknown_colon_command():
    proc = run_cli("--quiet", "repl", stdin=":help\n:quit\n")
    assert proc.returncode == 0
    assert "unknown command" in proc.stderr


@pytest.mark.parametrize(
    "text, stats",
    [
        ("knuth(2,3,4)", "steps=397800 peak_digits=100001"),
        ("3^^^3", "steps=209669 peak_digits=100001"),
    ],
)
def test_primitive_multiply_runs_trip_within_a_second(text, stats):
    # the innermost fold of the Knuth form is one counted multiply run; one
    # closure entry per multiply took 2.4-5.7 s for these trips
    start = time.perf_counter()
    proc = run_cli("--form", "primitive", "eval", text)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("magnitude:")
    assert stats in proc.stderr.splitlines()
    assert elapsed < 1.0, f"{text} took {elapsed:.2f} s"


def test_cli_imports_the_selftest_suites_only_for_selftest():
    # nor dataclasses and the inspect module it pulls in, nor decimal, which
    # only a big value's rendering needs; argparse, which every command
    # needs, is imported with cli itself
    names = ["hyperfold.selftest", "dataclasses", "inspect", "decimal", "argparse"]
    probe = f"import sys, hyperfold.cli; print([n in sys.modules for n in {names}])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, True]\n"
    assert run_cli("selftest", "quick").returncode == 0


def test_selftest_quick_passes_within_a_second():
    start = time.perf_counter()
    proc = run_cli("selftest", "quick")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert "0 failed" in proc.stdout
    assert elapsed < 1.0, f"selftest quick took {elapsed:.2f} s"


def test_selftest_full_passes_within_a_minute():
    start = time.perf_counter()
    proc = run_cli("selftest", "full")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert "0 failed" in proc.stdout
    assert elapsed < 60.0, f"selftest full took {elapsed:.2f} s"


def test_selftest_fails_under_tiny_budget():
    proc = run_cli("--max-steps", "100", "selftest", "full")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_flag_validation():
    proc = run_cli("--max-steps", "0", "eval", "1->2")
    assert proc.returncode == 2
    assert "argument --max-steps: must be >= 1" in proc.stderr
    for flag in ("--max-steps", "--max-digits"):
        proc = run_cli(flag, "0x10", "eval", "1->2")
        assert proc.returncode == 2
        assert f"argument {flag}: invalid positive integer value: '0x10'" in (
            proc.stderr
        )
        assert "_positive_int" not in proc.stderr


@pytest.mark.parametrize("flag", ["--max-steps", "--max-digits"])
def test_a_flag_reads_as_a_decimal_digit_run(flag):
    # as the lexer reads a literal: no sign, space or separator, zero is
    # below the least budget, and a run longer than the int<->str cap
    # (4,300 digits by default) is a flag like any other; argparse exits 2
    def run(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([flag, text, "eval", "2"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue().splitlines()[-1:]

    for text in ("+5", " 5", "1_000", "-5", ""):
        message = f"hyperfold: error: argument {flag}: invalid positive integer value: "
        assert run(text) == (2, "", [message + repr(text)])
    assert run("0") == (2, "", [f"hyperfold: error: argument {flag}: must be >= 1"])
    assert run("1" + "0" * 4400) == (cli.EXIT_OK, "2\nsteps=0 peak_digits=1\n", [])


def test_a_huge_digit_cap_costs_nothing_up_front():
    # 10**10000000 is never built: 12.3 s when every meter built its cap
    start = time.perf_counter()
    proc = run_cli("--max-digits", "10000000", "eval", "2")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\nsteps=0 peak_digits=1\n"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize(
    "args, stdin", [(["eval", "3->3->2"], None), (["repl"], "2^^5\n3\n")]
)
def test_closed_stdout_ends_quietly(args, stdin, buffered):
    # a reader that has gone (``| head``): no traceback, the documented code
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            CLI + args,
            input=stdin,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args, stdin", [(["eval", "2^^4"], None), (["repl"], "2^^4\n")]
)
def test_full_stdout_ends_with_one_line_and_exit_74(args, stdin):
    # every write to /dev/full fails with ENOSPC: one stderr line, no
    # traceback, and not the selftest-failure code 1
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            CLI + args,
            input=stdin,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == cli.EXIT_IOERR == 74
    assert proc.stderr.startswith("error: cannot write output: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args, stdin, code, line",
    [
        (["eval", "2"], None, 74, "error: cannot write output: "),
        (["repl"], "2\n", 74, "error: cannot write output: "),
        (["eval", "3->"], None, 2, "parse error (offset 3): "),
    ],
    ids=["eval", "repl", "parse-error"],
)
def test_no_stdout_at_all_is_a_stdout_that_refuses_writes(args, stdin, code, line):
    # started with stdout closed (``>&-``): as with >/dev/full, a value to
    # print ends with exit 74 and one stderr line, a parse error with exit 2
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *args],
        input=stdin,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stderr.startswith(line)
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args, stdin, code, out",
    [
        (["eval", "3->"], None, 2, ""),
        (["--max-steps", "10", "eval", "3->3->3"], None, 3, ""),
        (["--quiet", "repl"], "3->\n2^^3\n", 0, "16\n"),
        (["eval", "2^^4"], None, 74, None),  # stdout full too
    ],
)
def test_full_stderr_keeps_the_exit_code_and_the_output(args, stdin, code, out):
    # diagnostics are best effort: a stderr that refuses them changes no
    # exit code and ends no REPL session
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            CLI + args,
            input=stdin,
            stdout=full if out is None else subprocess.PIPE,
            stderr=full,
            text=True,
            timeout=60,
        )
    assert proc.returncode == code
    assert proc.stdout == out


@pytest.mark.parametrize(
    "args, redirect, code", [(["repl"], "<&-", 0), (["eval", "3->"], "2>&-", 2)]
)
def test_closed_stdin_or_stderr_keeps_the_documented_exit_code(args, redirect, code):
    # no stdin at all reads as an empty one; no stderr loses the diagnostics
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *CLI, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""


def test_a_write_only_stdin_is_a_read_error():
    # readline on a stdin opened write-only raises EBADF: that is the input
    # failing, not the output, and stdout is left as it was
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 0>/dev/null', "sh", *CLI, "repl"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_IOERR == 74
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read input: ")
    assert len(proc.stderr.splitlines()) == 1


_FAILING_STDIN = """
import errno, io, os, sys
from hyperfold.cli import main

class Stdin(io.TextIOBase):
    lines = ["2^^4\\n"]

    def readline(self, size=-1):
        if self.lines:
            return self.lines.pop(0)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

sys.stdin = Stdin()
sys.exit(main(["repl"]))
"""


def test_a_stdin_that_fails_after_a_line_keeps_the_output_printed():
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_STDIN],
        capture_output=True,
        text=True,
        timeout=60,
    )
    stats = cli._stats_line(evaluate(parse("2^^4"))[1])
    assert proc.returncode == cli.EXIT_IOERR
    assert proc.stdout == f"65536\n{stats}\n"
    failure = OSError(errno.EIO, os.strerror(errno.EIO))
    assert proc.stderr == f"error: cannot read input: {failure}\n"


_CAP_TRIP = "magnitude: value exceeds 3 digits (max_digits=3)"


@pytest.mark.parametrize(
    "text, code, stderr",
    [
        ("ack(1000,50000)", 3, f"{_CAP_TRIP}\nsteps=0 peak_digits=5\n"),
        ("ack(5000,3->3->3)", 3, f"{_CAP_TRIP}\nsteps=0 peak_digits=4\n"),
        ("ack(3->3->3,5000)", 3, f"{_CAP_TRIP}\nsteps=0 peak_digits=4\n"),
        (
            "0->5000",
            4,
            "domain: chain entry must be an integer >= 1, got 0\n"
            "steps=0 peak_digits=1\n",
        ),
    ],
    ids=["ack(1000,50000)", "ack(5000,3->3->3)", "ack(3->3->3,5000)", "0->5000"],
)
def test_a_call_takes_its_literals_together_before_its_compound_arguments(
    text, code, stderr
):
    # a call's literals enter the peak as one maximum, by the rule its
    # evaluator applies to a direct call's inputs, before any compound
    # argument runs
    proc = run_cli("--max-digits", "3", "eval", text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr)


def test_big_output_prints_in_full():
    # 2^^5 = 2^65536: 19729 digits of plain decimal on one line
    proc = run_cli("--quiet", "eval", "2^^5")
    assert proc.returncode == 0
    value = proc.stdout.strip()
    assert len(value) == 19729
    assert value.startswith("200352993") and value.endswith("19156736")


_NUMBERS = ["0", "1", "2", "3", "4", "10", "255"]
_OPERATORS = ["->", "^", "^^", "^^^", ","]
_OPENERS = ["ack(", "knuth(", "conway(", "("]
_token_soup = st.lists(
    st.sampled_from(_NUMBERS + _OPERATORS + _OPENERS + [")", " "]), max_size=14
).map("".join)
# numbers between operators, maybe inside one call: mostly well formed
_near_valid = st.builds(
    lambda opener, first, rest: opener + first + "".join(map("".join, rest))
    + (")" if opener else ""),
    st.sampled_from([""] + _OPENERS),
    st.sampled_from(_NUMBERS),
    st.lists(st.tuples(st.sampled_from(_OPERATORS), st.sampled_from(_NUMBERS)), max_size=4),
)


@settings(max_examples=200)
@given(st.one_of(_token_soup, _near_valid))
def test_token_string_fuzz_ends_in_a_documented_exit_code(text):
    # every line ends as a value (0), a parse error (2) or a budget (3) or
    # domain (4) error, in every form, at tiny to moderate budgets, under
    # the default digit cap and a small one; never a traceback
    for form in FORMS:
        for max_steps in (1, 100, 10**4):
            for max_digits in (10**5, 3):
                config = cli.Config(form, max_steps, max_digits)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run_eval(text, config)
                assert code in (0, 2, 3, 4), (text, config, err.getvalue())


def _run_eval_captured(text, config):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_eval(text, config)
    return code, out.getvalue(), err.getvalue()


def _out_of_memory(*_args):
    raise MemoryError


@pytest.mark.parametrize(
    "form, module, steps",
    [
        # ack(2,3)'s 44 rewrites, then the chain's power fails
        ("reference", "hyperfold._machines", 44),
        # ack(2,3)'s 27 closure entries and the chain fold's 3, then its power
        ("primitive", "hyperfold.hyperops", 30),
    ],
)
def test_evaluation_out_of_memory_is_a_construction_limit(
    monkeypatch, form, module, steps
):
    monkeypatch.setattr(f"{module}.pow_counted", _out_of_memory)
    text = "(ack(2,3))->3"
    with pytest.raises(ConstructionLimit) as trip:
        evaluate(parse(text), form, Budget())
    assert trip.value.detail == "evaluation ran out of memory"
    assert trip.value.stats == EvalStats(steps_used=steps, peak_digits=1)
    # raised after the handler, so no traceback keeps the failed frames alive
    assert trip.value.__context__ is None
    code, out, err = _run_eval_captured(text, cli.Config(form=form))
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == (
        f"construction: evaluation ran out of memory\nsteps={steps} peak_digits=1\n"
    )


@pytest.mark.parametrize(
    "max_digits, text",
    [(320, "knuth(3,1,{})"), (322, "2^{}"), (322, "2->{}")],
    ids=["knuth", "power", "chain"],
)
def test_a_value_too_large_for_an_int_exits_4(max_digits, text):
    # under a cap raised this far, every outcome needs an int of more than
    # 10**288 bits, which CPython refuses with OverflowError; it ends as
    # running out of memory does, never as a traceback
    proc = run_cli(
        "--max-steps",
        "1" + "0" * 330,
        "--max-digits",
        "1" + "0" * max_digits,
        "eval",
        text.format("1" + "0" * 321),
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_DOMAIN, "")
    assert proc.stderr == (
        "construction: evaluation ran out of memory\nsteps=0 peak_digits=322\n"
    )


def test_out_of_memory_inside_the_split_rendering_is_a_construction_limit(
    monkeypatch,
):
    # the real int_to_decimal runs and takes its split branch for 2**65536
    _, stats = evaluate(parse("2^^5"), "both", Budget())
    split = []

    def split_out_of_memory(value):
        split.append(value.bit_length())
        raise MemoryError

    monkeypatch.setattr(budget, "_split_to_decimal", split_out_of_memory)
    code, out, err = _run_eval_captured("2^^5", cli.Config())
    assert split == [65537]
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == (
        "construction: rendering the value ran out of memory\n"
        f"steps={stats.steps_used} peak_digits=19729\n"
    )


@pytest.mark.parametrize(
    "chain, power",
    [("2->300000", "2^300000"), ("10->99999", "10^99999"), ("2->332192", "2^332192")],
)
def test_a_power_below_the_digit_cap_prints_in_both_notations(chain, power):
    # a power trips exactly where its value reaches 10**max_digits, as a
    # multiply run does, so no notation refuses a value another prints
    outputs = [_run_eval_captured(text, cli.Config()) for text in (chain, power)]
    assert [(code, err) for code, _, err in outputs] == [(cli.EXIT_OK, "")] * 2
    assert outputs[0][1].splitlines()[0] == outputs[1][1].splitlines()[0]


@pytest.mark.parametrize("text", ["2->332193", "10->100000"])
def test_a_power_past_the_digit_cap_trips_before_its_first_multiply(text):
    assert _run_eval_captured(text, cli.Config()) == (
        cli.EXIT_BUDGET,
        "",
        "magnitude: value exceeds 100000 digits (max_digits=100000)\n"
        "steps=1 peak_digits=6\n",
    )


@pytest.mark.parametrize(
    "form, max_steps, peak_digits",
    [
        ("reference", 6, 4),
        ("reference", 7, 6),
        ("reference", 8, 8),
        ("reference", 9, None),
        ("primitive", 8, 4),
        ("primitive", 9, 6),
        ("primitive", 10, 8),
        ("primitive", 11, None),
    ],
)
def test_a_step_trip_inside_a_power_reports_the_last_multiply(
    form, max_steps, peak_digits
):
    # 3->27 is 3**27, 27 = 0b11011: its 8 multiplies build 3, 9, 27, 81,
    # 6561, 177147, 3**16 and 3**27, of 1, 1, 2, 2, 4, 6, 8 and 13 digits,
    # after one rule (reference) or three steps of the fold form (primitive)
    argv = ["--form", form, "--max-steps", str(max_steps), "eval", "3->27"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if peak_digits is None:
        assert (code, out.getvalue(), err.getvalue()) == (
            cli.EXIT_OK,
            f"7625597484987\nsteps={max_steps} peak_digits=13\n",
            "",
        )
    else:
        assert (code, out.getvalue(), err.getvalue()) == (
            cli.EXIT_BUDGET,
            "",
            f"budget: step budget exhausted (max_steps={max_steps})\n"
            f"steps={max_steps} peak_digits={peak_digits}\n",
        )


def test_rendering_out_of_memory_is_a_construction_limit(monkeypatch):
    _, stats = evaluate(parse("2^^4"), "both", Budget())
    monkeypatch.setattr(cli, "int_to_decimal", _out_of_memory)
    code, out, err = _run_eval_captured("2^^4", cli.Config())
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == (
        "construction: rendering the value ran out of memory\n"
        f"steps={stats.steps_used} peak_digits=5\n"
    )
