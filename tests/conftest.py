import decimal
import os
import sys

import pytest
from hypothesis import settings

# The CLI tests start `python -m hyperfold.cli` in child processes; give
# them the source tree these tests import, not whatever is installed.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

# Every run of the suite tries the same examples, and no example fails for
# taking longer than a wall-clock deadline on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _interpreter_state():
    context = decimal.getcontext()
    return (
        sys.getrecursionlimit(),
        sys.get_int_max_str_digits(),
        sys.getswitchinterval(),
        sys.gettrace(),
        sys.getprofile(),
        context.prec,
        context.Emax,
        context.Emin,
        context.rounding,
        dict(context.traps),
    )


@pytest.fixture(autouse=True)
def _interpreter_state_unchanged():
    # library calls share the interpreter with their caller, so no test may
    # leave a process-global limit, a trace or profile function or the
    # thread's decimal context changed
    before = _interpreter_state()
    yield
    assert _interpreter_state() == before
