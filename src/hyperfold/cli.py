"""Command-line front door: evaluate expressions, REPL, self-test.

Exit codes: 0 ok, 1 selftest failure, 2 parse error, 3 budget exhausted
(steps or digits), 4 domain error or construction limit (too deep a
nesting, or no memory left to evaluate or render the value), 5
reference/primitive mismatch, 74 stdout could not take the output (say, a
full disk, or no stdout at all) or the REPL could not read stdin (say, one
opened write-only), and one line on stderr says which, 141 stdout closed
before the output was written (a reader such as ``head`` stopped early;
nothing more is printed).  Diagnostics on stderr are best effort: a stderr
that is closed or refuses writes changes no exit code.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .budget import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    ConstructionLimit,
    DomainError,
    EvalStats,
    HyperError,
    MagnitudeExceeded,
    Record,
    decimal_to_int,
    int_to_decimal,
    value_text,
)
from .notation import BOTH, FORMS, MismatchError, ParseError, evaluate, parse

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4
EXIT_MISMATCH = 5
EXIT_IOERR = 74  # EX_IOERR of sysexits.h
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer its reader left

_ERROR_EXIT_CODES = {
    BudgetExceeded: EXIT_BUDGET,
    MagnitudeExceeded: EXIT_BUDGET,
    DomainError: EXIT_DOMAIN,
    ConstructionLimit: EXIT_DOMAIN,
}


class Config(Record):
    __slots__ = __match_args__ = ("form", "max_steps", "max_digits", "quiet")

    def __init__(
        self,
        form: str = BOTH,
        max_steps: int = DEFAULT_BUDGET.max_steps,
        max_digits: int = DEFAULT_BUDGET.max_digits,
        quiet: bool = False,
    ):
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "max_steps", max_steps)
        object.__setattr__(self, "max_digits", max_digits)
        object.__setattr__(self, "quiet", quiet)

    def budget(self) -> Budget:
        return Budget(max_steps=self.max_steps, max_digits=self.max_digits)


def _stats_line(stats: EvalStats) -> str:
    steps, peak = value_text(stats.steps_used), value_text(stats.peak_digits)
    return f"steps={steps} peak_digits={peak}"


def _positive_int(text: str) -> int:
    # a flag reads as the lexer reads a literal: a decimal digit run
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"invalid positive integer value: {text!r}")
    value = decimal_to_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


class _NoStdout:
    """The stdout of a process started without one (``>&-``): it refuses
    every write, as a full device does, and holds nothing to flush."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def _to_null_device(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that what it
    still buffers, and every later write, go nowhere without failing."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _warn(line: str) -> None:
    """One diagnostic line on stderr, best effort: a stderr that is closed
    or refuses writes loses the line but changes no exit code and ends no
    REPL session."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr)


def _print_error(prefix: str, message: str, stats: EvalStats | None = None) -> None:
    _warn(f"{prefix}: {message}")
    if stats is not None:
        _warn(_stats_line(stats))


def run_eval(expr_text: str, config: Config) -> int:
    try:
        expr = parse(expr_text)
    except ParseError as exc:
        _print_error(f"parse error (offset {exc.pos.offset})", str(exc))
        return EXIT_PARSE
    try:
        value, stats = evaluate(expr, config.form, config.budget())
    except MismatchError as exc:
        _print_error("mismatch", str(exc))
        return EXIT_MISMATCH
    except HyperError as exc:
        _print_error(exc.kind, str(exc), exc.stats)
        return _ERROR_EXIT_CODES.get(type(exc), EXIT_DOMAIN)
    try:
        text = int_to_decimal(value)
    except MemoryError:
        pass  # reported below, once the pieces built so far are freed
    else:
        print(text)
        if not config.quiet:
            print(_stats_line(stats))
        return EXIT_OK
    _print_error("construction", "rendering the value ran out of memory", stats)
    return EXIT_DOMAIN


def run_repl(config: Config) -> int:
    if sys.stdin is None:  # no standard input at all (``<&-``): end of input
        return EXIT_OK
    interactive = sys.stdin.isatty()
    if interactive:
        print("enter an expression per line, :quit to leave")
    while True:
        if interactive:
            print("hyperfold> ", end="", flush=True)
        try:
            line = sys.stdin.readline()
        except OSError as exc:  # stdin refused the read (EBADF, EIO, ...)
            _warn(f"error: cannot read input: {exc}")
            return EXIT_IOERR
        if not line:
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return EXIT_OK
        if line.startswith(":"):
            _warn(f"unknown command {line!r} (only :quit)")
            continue
        run_eval(line, config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfold",
        description=(
            "evaluate Ackermann/up-arrow/chained-arrow expressions with both "
            "the rewrite equations and their fold forms"
        ),
    )
    parser.add_argument(
        "--form",
        choices=FORMS,
        default=BOTH,
        help="which evaluator family to run; 'both' compares them "
        "(stats are then the two runs combined)",
    )
    parser.add_argument(
        "--max-steps",
        type=_positive_int,
        default=DEFAULT_BUDGET.max_steps,
        metavar="N",
        help="step budget per evaluation (default 10^7)",
    )
    parser.add_argument(
        "--max-digits",
        type=_positive_int,
        default=DEFAULT_BUDGET.max_digits,
        metavar="N",
        help="decimal-digit cap on any intermediate value (default 10^5)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the stats line"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    cmd_eval = commands.add_parser("eval", help="evaluate one expression")
    cmd_eval.add_argument("expression", help="e.g. '3->3->2', 'ack(3,3)', '2^^4'")
    commands.add_parser("repl", help="read one expression per line")
    cmd_self = commands.add_parser("selftest", help="run the built-in suites")
    # the selftest levels, spelled out so that only the selftest command
    # imports the suites
    cmd_self.add_argument(
        "level", nargs="?", choices=["quick", "full"], default="quick"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = Config(
        form=args.form,
        max_steps=args.max_steps,
        max_digits=args.max_digits,
        quiet=args.quiet,
    )
    if sys.stdout is None:  # started with no stdout at all
        sys.stdout = _NoStdout()
    try:
        if args.command == "eval":
            code = run_eval(args.expression, config)
        elif args.command == "repl":
            code = run_repl(config)
        else:
            from .selftest import run_selftest

            code = run_selftest(args.level, config.budget())
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; stderr never raises (_warn), so this
        # is stdout, and the flush at exit must not fail again
        _to_null_device(sys.stdout)
        return EXIT_PIPE
    except OSError as exc:
        # stdout refused the output (ENOSPC, EIO, none at all, ...): say so once
        if not isinstance(sys.stdout, _NoStdout):
            _to_null_device(sys.stdout)
        _warn(f"error: cannot write output: {exc}")
        return EXIT_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
