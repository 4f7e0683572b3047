"""Backend selection: numba int64 kernels vs. the pure-Python machines.

The env var ``HYPERFOLD_BACKEND`` picks the backend explicitly:

* ``python`` — always the pure-Python big-integer machines;
* ``numba``  — require the kernels (ImportError if numba is absent);
* unset      — hybrid: run the Python machine first and hand over to a
  kernel only when a job turns out to be big.

Importing numba costs around a second, far more than most evaluations, so
in hybrid mode the Python machine gets a head start of ``HANDOFF_STEPS``;
jobs that finish inside it never touch numba at all, and bigger jobs are
restarted on the kernel from scratch (the discarded prefix costs a few
milliseconds, noise next to a kernel-worthy run).  Kernels run only when
inputs and limits fit int64 (see the gating thresholds in
:mod:`hyperfold._kernels`); a kernel that discovers mid-run that a value
would leave that range bails, and the call is redone on the Python
machine.  Results and stats therefore never depend on the backend.
"""

from __future__ import annotations

import functools
import importlib.util
import os

from . import _machines
from .budget import magnitude_limit

_ENV_VAR = "HYPERFOLD_BACKEND"

#: steps the Python machine runs before a big job is restarted on a kernel
HANDOFF_STEPS = 200_000

_BAIL = 3
_kernels_module = None


@functools.cache
def _numba_installed() -> bool:
    # probed once per process: find_spec costs about as much as a small
    # evaluation, and every dispatch asks
    return importlib.util.find_spec("numba") is not None


def _kernels():
    global _kernels_module
    if _kernels_module is None:
        from . import _kernels as module

        _kernels_module = module
    return _kernels_module


def backend_name() -> str:
    """The backend in effect: 'numba' or 'python'."""
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice == "python":
        return "python"
    if choice == "numba":
        if not _numba_installed() or not _kernels().AVAILABLE:
            raise ImportError(
                f"{_ENV_VAR}=numba but numba is not importable; "
                "install the 'fast' extra"
            )
        return "numba"
    if choice not in ("", "auto"):
        raise ValueError(f"{_ENV_VAR} must be 'python', 'numba' or unset")
    return "numba" if _numba_installed() else "python"


def _mode() -> str:
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice in ("", "auto"):
        return "hybrid" if _numba_installed() else "python"
    return backend_name()


def _kernel_ok(kernels, max_steps: int, max_digits: int, steps0: int) -> bool:
    return (
        kernels.AVAILABLE
        and max_steps <= kernels.MAX_SAFE_STEPS
        and max_digits <= kernels.MAX_SAFE_DIGITS
        and steps0 <= max_steps
    )


def _kernel_mag_limit(kernels, max_digits: int) -> int:
    # caps beyond MAX_KERNEL_DIGITS cannot trip on int64-sized values
    if max_digits <= kernels.MAX_KERNEL_DIGITS:
        return magnitude_limit(max_digits)
    return 0


def run_ack(m, n, max_steps, mag_limit, max_digits, steps0):
    mode = _mode()
    if mode == "hybrid":
        prefix_cap = min(max_steps, steps0 + HANDOFF_STEPS)
        result = _machines.ack_machine(m, n, prefix_cap, mag_limit, steps0)
        if result[0] != _machines.TRIP_STEPS or prefix_cap == max_steps:
            return result  # genuine outcome, numba never imported
    if mode != "python":
        kernels = _kernels()
        if (
            m < kernels.MAX_SAFE_VALUE
            and n < kernels.MAX_SAFE_VALUE
            and _kernel_ok(kernels, max_steps, max_digits, steps0)
        ):
            result = kernels.ack_kernel(
                m, n, max_steps, _kernel_mag_limit(kernels, max_digits), steps0
            )
            if result[0] != _BAIL:
                return (result[0], int(result[1]), int(result[2]), int(result[3]))
    return _machines.ack_machine(m, n, max_steps, mag_limit, steps0)


def run_conway(chain, max_steps, mag_limit, max_digits, steps0):
    mode = _mode()
    if mode == "hybrid":
        prefix_cap = min(max_steps, steps0 + HANDOFF_STEPS)
        result = _machines.conway_machine(
            chain, prefix_cap, mag_limit, max_digits, steps0
        )
        if result[0] != _machines.TRIP_STEPS or prefix_cap == max_steps:
            return result
    if mode != "python" and len(chain) >= 2:
        kernels = _kernels()
        if all(e < kernels.MAX_SAFE_VALUE for e in chain) and _kernel_ok(
            kernels, max_steps, max_digits, steps0
        ):
            import numpy as np

            rev = np.array(list(reversed(chain)), dtype=np.int64)
            result = kernels.conway_kernel(
                rev, max_steps, _kernel_mag_limit(kernels, max_digits), max_digits, steps0
            )
            if result[0] != _BAIL:
                return (result[0], int(result[1]), int(result[2]), int(result[3]))
    return _machines.conway_machine(chain, max_steps, mag_limit, max_digits, steps0)
