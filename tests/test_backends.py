"""The numba kernels must be bit-for-bit equivalent to the Python machines."""

import importlib.util
import itertools

import pytest

import _oracles
from hyperfold import _kernels, _machines, backend
from hyperfold.budget import Budget, magnitude_limit
from hyperfold.hyperops import ack_ref, conway_ref

numba_only = pytest.mark.skipif(
    not _kernels.AVAILABLE, reason="numba not importable"
)


def dispatch_ack(m, n, max_steps, max_digits, monkeypatch, which):
    monkeypatch.setenv("HYPERFOLD_BACKEND", which)
    return backend.run_ack(
        m, n, max_steps, magnitude_limit(max_digits), max_digits, 0
    )


def dispatch_conway(chain, max_steps, max_digits, monkeypatch, which):
    monkeypatch.setenv("HYPERFOLD_BACKEND", which)
    return backend.run_conway(
        chain, max_steps, magnitude_limit(max_digits), max_digits, 0
    )


def test_backend_name_env_override(monkeypatch):
    monkeypatch.setenv("HYPERFOLD_BACKEND", "python")
    assert backend.backend_name() == "python"
    monkeypatch.setenv("HYPERFOLD_BACKEND", "nonsense")
    with pytest.raises(ValueError):
        backend.backend_name()
    monkeypatch.delenv("HYPERFOLD_BACKEND")
    assert backend.backend_name() in ("python", "numba")


def test_numba_probe_runs_once_per_process(monkeypatch):
    probes = []
    real_find_spec = importlib.util.find_spec

    def counting_find_spec(name, *args, **kwargs):
        if name == "numba":
            probes.append(name)
        return real_find_spec(name, *args, **kwargs)

    monkeypatch.setattr(importlib.util, "find_spec", counting_find_spec)
    monkeypatch.delenv("HYPERFOLD_BACKEND", raising=False)
    backend._numba_installed.cache_clear()
    try:
        mag = magnitude_limit(100)
        assert backend.run_ack(2, 3, 10**6, mag, 100, 0)[1] == 9
        assert backend.run_conway((2, 3), 10**6, mag, 100, 0)[1] == 8
    finally:
        backend._numba_installed.cache_clear()
    assert len(probes) == 1


@numba_only
def test_ack_parity_values_and_trips(monkeypatch):
    budgets = [(10**7, 10**5), (1000, 10**5), (37, 10**5), (10**7, 2), (10**7, 18)]
    for m, n in itertools.product(range(5), range(5)):
        if (m, n) == (4, 2) or (m, n) == (4, 3) or (m, n) == (4, 4):
            continue  # far beyond every budget here; covered by (4,1)
        for max_steps, max_digits in budgets:
            jit = dispatch_ack(m, n, max_steps, max_digits, monkeypatch, "numba")
            py = dispatch_ack(m, n, max_steps, max_digits, monkeypatch, "python")
            assert jit == py, (m, n, max_steps, max_digits)


@numba_only
def test_ack_parity_heavy_point(monkeypatch):
    jit = dispatch_ack(4, 1, 10**10, 10**5, monkeypatch, "numba")
    py = dispatch_ack(4, 1, 10**10, 10**5, monkeypatch, "python")
    assert jit == py == (0, 65533, 2_862_984_010, 65533)


@numba_only
def test_conway_parity(monkeypatch):
    chains = [
        c
        for ln in (2, 3, 4)
        for c in itertools.product((1, 2, 3), repeat=ln)
    ] + [(4, 1, 5), (2, 2, 2, 2), (5, 2), (10, 25), (2, 64)]
    budgets = [(10**6, 10**5), (50, 10**5), (10**6, 3), (10**6, 18)]
    for chain in chains:
        for max_steps, max_digits in budgets:
            jit = dispatch_conway(chain, max_steps, max_digits, monkeypatch, "numba")
            py = dispatch_conway(chain, max_steps, max_digits, monkeypatch, "python")
            assert jit == py, (chain, max_steps, max_digits)


@numba_only
def test_conway_kernel_bails_to_python_on_big_values(monkeypatch):
    # 2^64 exceeds int64: the kernel must hand over, and the dispatched
    # result must match the pure machine exactly
    chain = (2, 64)
    jit = dispatch_conway(chain, 10**6, 10**5, monkeypatch, "numba")
    py = dispatch_conway(chain, 10**6, 10**5, monkeypatch, "python")
    assert jit == py
    assert jit[1] == 2**64
    # huge entries skip the kernel entirely
    big = (10**30, 2)
    assert dispatch_conway(big, 10**6, 10**5, monkeypatch, "numba") == (
        dispatch_conway(big, 10**6, 10**5, monkeypatch, "python")
    )


@numba_only
def test_public_api_results_backend_independent(monkeypatch):
    cases = [
        lambda: ack_ref(3, 6, Budget()),
        lambda: conway_ref((3, 3, 2), Budget()),
        lambda: conway_ref((2, 3, 3), Budget(max_steps=10**6, max_digits=50)),
    ]
    results = {}
    for which in ("numba", "python"):
        monkeypatch.setenv("HYPERFOLD_BACKEND", which)
        results[which] = [fn() for fn in cases]
    assert results["numba"] == results["python"]


@numba_only
def test_conway_kernel_against_oracle(monkeypatch):
    for chain in [(3, 3, 2), (2, 3, 3), (2, 2, 2, 2), (4, 1, 5)]:
        jit = dispatch_conway(chain, 10**6, 10**5, monkeypatch, "numba")
        assert jit[0] == _machines.OK
        assert jit[1] == _oracles.conway(chain)


@numba_only
def test_kernel_stack_growth_paths(monkeypatch):
    # deep level-3 descent grows the ack kernel's work stack past its
    # initial capacity before the budget trips
    jit = dispatch_ack(3, 5000, 10**5, 10**5, monkeypatch, "numba")
    py = dispatch_ack(3, 5000, 10**5, 10**5, monkeypatch, "python")
    assert jit == py
    assert jit[0] == _machines.TRIP_STEPS
    # a long chain descent grows the conway kernel's frame stack likewise
    for chain in ((2, 5000, 2), (2, 2, 5000)):
        jit = dispatch_conway(chain, 10**5, 10**5, monkeypatch, "numba")
        py = dispatch_conway(chain, 10**5, 10**5, monkeypatch, "python")
        assert jit == py, chain
    assert dispatch_conway((2, 2, 5000), 10**5, 10**5, monkeypatch, "numba")[1] == 4


@numba_only
def test_evaluate_tree_parity(monkeypatch):
    from hyperfold.budget import Budget
    from hyperfold.notation import evaluate, parse

    texts = ["ack(2, (1->1))", "conway(2->3, 2)", "2^^4", "3->3->2"]
    outcomes = {}
    for which in ("numba", "python"):
        monkeypatch.setenv("HYPERFOLD_BACKEND", which)
        outcomes[which] = [evaluate(parse(t), "both", Budget()) for t in texts]
    assert outcomes["numba"] == outcomes["python"]
