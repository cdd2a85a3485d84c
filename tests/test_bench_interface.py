"""The package interface the benchmark under bench/ reads.

bench/tracing.py wraps the functions named in its TARGETS and the
verify.SUITES table, and bench/workloads.py marks a `verify` run incorrect
on any check name outside its fixed list, so a rename or deletion in the
package breaks the benchmark without failing a test here.  These tests
import both files as they are.
"""

import importlib
import sys
from pathlib import Path

import pytest

from almost_mathieu import verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The bench modules tracing and workloads, imported from bench/."""
    names = ("reference", "tracing", "workloads")
    saved = {n: sys.modules.pop(n) for n in names if n in sys.modules}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(saved)


def test_every_traced_target_is_a_callable_of_the_package(bench):
    tracing, _ = bench
    assert tracing.TARGETS
    for mod_name, attr, _span, _work in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_traced_suites_are_the_verify_suites(bench):
    tracing, _ = bench
    assert tuple(tracing.SUITE_NAMES) == tuple(verify.SUITE_NAMES)
    assert tuple(verify.SUITES) == tuple(verify.SUITE_NAMES)


def test_verify_checks_are_the_benchmark_list_in_order(bench):
    _, workloads = bench
    want = [
        f"{suite}:{name}"
        for suite, names in workloads.Verify.CHECKS.items()
        for name in names
    ]
    got = [
        f"{s['name']}:{c['name']}"
        for s in verify.run_suites(verify.SUITE_NAMES, 7)
        for c in s["checks"]
    ]
    assert got == want
