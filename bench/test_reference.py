"""Tests of the benchmark's own references, against results worked by hand.

    python3 -m pytest bench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def discriminant(p, q, lam, theta, E):
    """Trace of the one-period transfer product, by the plain recurrence."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for n in range(1, q + 1):
        e = E - lam * math.cos(2 * math.pi * p * n / q + theta)
        a, b, c, d = e * a - c, e * b - d, a, b
    return a + d


def test_floquet_q1_is_the_potential_plus_twice_the_phase():
    V = np.array([0.3])
    assert ref.floquet_eigenvalues(V, +1.0) == pytest.approx([2.3], abs=1e-15)
    assert ref.floquet_eigenvalues(V, -1.0) == pytest.approx([-1.7], abs=1e-15)


def test_floquet_q2_by_hand():
    # V = (-2, 2): periodic hopping 1 + 1 = 2, antiperiodic 1 - 1 = 0
    V = ref.potential(1, 2, 2.0, 0.0)
    assert V == pytest.approx([-2.0, 2.0], abs=1e-15)
    s8 = math.sqrt(8.0)
    assert ref.floquet_eigenvalues(V, +1.0) == pytest.approx([-s8, s8], abs=1e-14)
    assert ref.floquet_eigenvalues(V, -1.0) == pytest.approx([-2.0, 2.0], abs=1e-14)


def test_union_s_q1_is_minus_four_to_four():
    # sigma at theta is [-2 + 2 cos theta, 2 + 2 cos theta]
    assert ref.union_s_bands(0, 1) == pytest.approx(np.array([[-4.0, 4.0]]), abs=1e-14)


def test_union_s_q2_is_two_touching_bands():
    # Delta(E) = E^2 - 4 at theta = pi/4, and |Delta| <= 4 is |E| <= 2 sqrt 2;
    # the bands meet at the double antiperiodic eigenvalue 0
    s8 = math.sqrt(8.0)
    want = np.array([[-s8, 0.0], [0.0, s8]])
    assert ref.union_s_bands(1, 2) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("p,q", [(1, 3), (2, 5), (3, 7), (3, 8)])
def test_union_s_edges_sit_on_chambers_threshold(p, q):
    # Delta is the discriminant at theta = pi / (2q); S = {|Delta| <= 4}
    edges = ref.union_s_bands(p, q).ravel()
    for E in edges:
        assert abs(discriminant(p, q, 2.0, math.pi / (2 * q), E)) == pytest.approx(4.0, abs=1e-9)
    mids = ref.union_s_bands(p, q).mean(axis=1)
    assert all(abs(discriminant(p, q, 2.0, math.pi / (2 * q), E)) < 4.0 for E in mids)


def test_lyapunov_q1_by_hand():
    # p/q = 0/1 at theta = pi/2: V = 0 and D(E) = E
    gamma, half_d = ref.lyapunov(0, 1, 2.0, math.pi / 2, np.array([3.0, 1.0, -3.0]))
    assert gamma == pytest.approx([math.acosh(1.5), 0.0, math.acosh(1.5)], abs=1e-14)
    assert half_d == pytest.approx([1.5, 0.5, -1.5], abs=1e-14)


def test_lyapunov_q2_by_hand():
    # p/q = 1/2 at theta = 0: V = (-2, 2) and D(E) = E^2 - 6
    gamma, half_d = ref.lyapunov(1, 2, 2.0, 0.0, np.array([3.0, 0.0, 2.5]))
    assert half_d == pytest.approx([1.5, -3.0, 0.125], abs=1e-13)
    assert gamma == pytest.approx([math.acosh(1.5) / 2, math.acosh(3.0) / 2, 0.0], abs=1e-14)


def test_lyapunov_log_form_far_from_the_spectrum():
    # D(E) = E for 0/1 at theta = pi/2, so gamma = arccosh(E / 2)
    gamma, half_d = ref.lyapunov(0, 1, 2.0, math.pi / 2, np.array([1e20, -1e300]))
    assert gamma[0] == pytest.approx(math.acosh(5e19), rel=1e-14)
    assert gamma[1] == pytest.approx(math.log(1e300), rel=1e-14)
    assert half_d[0] == pytest.approx(5e19, rel=1e-12)
    assert half_d[1] == pytest.approx(-5e299, rel=1e-12)


def test_band_errors_holds_the_documented_tolerances():
    want = np.array([[-1.0, -0.5], [0.2, 0.2 + 1e-9]])
    assert ref.band_errors(want.copy(), want) == []
    wide_off = want + np.array([[2e-10, 0.0], [0.0, 0.0]])
    assert ref.band_errors(wide_off, want) == ["band 1 edge off by 2e-10 (tolerance 1e-10)"]
    collapsed = want.copy()
    collapsed[1] = 0.2 + 5e-10  # a narrow band collapsed onto its centre
    assert ref.band_errors(collapsed, want) == []
    assert ref.band_errors(want[:1], want) == ["1 bands, expected 2"]
    assert ref.band_errors(want[::-1].copy(), want)[0] == "bands not ordered"


def test_box_count_bounds_by_hand():
    # one band of width 1 meets 4 to 6 boxes of side 1/4
    assert ref.box_count_bounds(1.0, 1, 0.25) == (4.0, 6.0)


def test_thouless_constant():
    assert ref.THOULESS == pytest.approx(9.329949, abs=1e-6)


def test_benchmark_file_names_what_the_benchmark_reports():
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
