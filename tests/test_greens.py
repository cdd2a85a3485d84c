import cmath
import math

import mpmath
import numpy as np
import pytest

from almost_mathieu.bands import spectrum_bands
from almost_mathieu.core import OperatorSpec, potential_array, reduce_fraction
from almost_mathieu.greens import (
    green_halfline,
    green_identities_check,
    log_green_halfline,
    log_green_window,
    lyapunov,
    lyapunov_grid,
    surace_deviation,
)
from conftest import random_reduced
from oracles import mp_halfline_green, truncated_halfline_green

FREE = OperatorSpec.explicit([0.0])


def am(p, q, lam, theta):
    return OperatorSpec.almost_mathieu(reduce_fraction(p, q), lam, theta)


class TestLyapunov:
    def test_free_outside(self):
        v = lyapunov(FREE, 3.0)
        assert v.gamma == pytest.approx(math.acosh(1.5), rel=1e-12)
        assert v.bloch_k is None

    def test_free_inside(self):
        v = lyapunov(FREE, 1.0)
        assert v.gamma == 0.0
        assert 0.0 < v.bloch_k < math.pi

    def test_bloch_phase_in_band_interior(self):
        spec = am(1, 2, 2.0, 0.9)
        from almost_mathieu.bands import spectrum_bands

        lo, hi = spectrum_bands(spec).edges[0].tolist()
        v = lyapunov(spec, 0.5 * (lo + hi))
        assert v.gamma == 0.0
        assert 0.0 < v.bloch_k < math.pi / 2  # within (0, pi/q), q = 2

    def test_half_critical_at_zero(self):
        v = lyapunov(am(1, 2, 2.0, 0.0), 0.0)
        assert v.gamma == pytest.approx(math.acosh(3.0) / 2.0, rel=1e-12)

    def test_free_closed_form(self):
        for E in [2.0, 2.0001, 2.5, 3.0, 5.0, 10.0, -2.5, -7.0]:
            want = math.acosh(abs(E) / 2.0)
            got = lyapunov(FREE, E).gamma
            if want == 0.0:
                assert got <= 1e-10
            else:
                assert got == pytest.approx(want, rel=1e-10)

    def test_zero_exactly_on_bands(self, rng):
        for _ in range(5):
            r = random_reduced(rng, 20)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            s = spectrum_bands(spec)
            E = np.linspace(-4.5, 4.5, 1000)
            g = lyapunov_grid(spec, E)
            for Ei, gi in zip(E, g):
                dist = s.distance(float(Ei))
                if s.contains(float(Ei)):
                    assert gi <= 1e-9
                elif dist >= 1e-2:
                    assert gi >= 1e-6

    def test_grid_matches_scalar(self):
        # monodromy_scaled and the grid kernel carry the same scaled trace,
        # and both read gamma off it through floquet_exponent: bit for bit
        # equal, on the 144/233 grid of `amo lyapunov --grid 3000` and at
        # complex energies
        for spec, zs in (
            (am(144, 233, 2.0, 0.7), np.linspace(-4.0, 4.0, 3000)),
            (am(2, 5, 2.0, 0.3), np.array([0.1 + 0.2j, 3.7, -4.1 + 0.05j, 1.0])),
        ):
            grid = lyapunov_grid(spec, zs)
            scalar = np.array([lyapunov(spec, z).gamma for z in zs])
            np.testing.assert_array_equal(scalar, grid)

    def test_large_energy_no_overflow(self):
        spec = am(13, 89, 2.0, 0.0)
        v = lyapunov(spec, 50.0)
        assert v.gamma == pytest.approx(math.acosh(25.0), rel=0.1)


class TestGreenHalfline:
    def test_free_corner_value(self):
        g = green_halfline(FREE, 1, 1, 1j)
        want = 1j * (math.sqrt(5.0) - 1.0) / 2.0
        assert g == pytest.approx(want, abs=1e-12)

    def test_free_power(self):
        g11 = green_halfline(FREE, 1, 1, 1j)
        g12 = green_halfline(FREE, 1, 2, 1j)
        # with G = (H-z)^{-1} the two-step value is -G(1,1)^2
        assert g12 == pytest.approx(-(g11**2), abs=1e-12)
        assert abs(g12) == pytest.approx((math.sqrt(5.0) - 1.0) ** 2 / 4.0, abs=1e-12)

    def test_resolvent_norm_bound(self, rng):
        for _ in range(20):
            r = random_reduced(rng, 12)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-4, 4), 0.5)
            l = int(rng.integers(1, 30))
            g = green_halfline(spec, 1, l, z)
            assert abs(g) <= 2.0 + 1e-12

    def test_matches_truncated_solve_oracle(self, rng):
        n_sites = 2000
        for _ in range(15):
            r = random_reduced(rng, 15)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 1.0))
            V = potential_array(spec, 1, n_sites)
            col = truncated_halfline_green(V, z, [1], n_sites)[:, 0]
            for l in (1, 2, r.q, 3 * r.q + 1):
                got = green_halfline(spec, 1, l, z)
                assert got == pytest.approx(complex(col[l - 1]), rel=1e-8, abs=1e-12)

    def test_shifted_boundary_matches_oracle(self, rng):
        n_sites = 1500
        r = reduce_fraction(2, 7)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.9)
        z = 0.3 + 0.4j
        k = 5
        V = potential_array(spec, k, n_sites)
        col = truncated_halfline_green(V, z, [1], n_sites)[:, 0]
        for l in (k, k + 3, k + 11):
            got = green_halfline(spec, k, l, z)
            assert got == pytest.approx(complex(col[l - k]), rel=1e-8, abs=1e-12)

    def test_past_e_minus_350_matches_dense_oracle(self):
        # q gamma is about 355 here: a clamp of the scaled determinant at
        # e^-700 once moved |G| to 4.07e-150
        spec = am(144, 233, 2.0, 0.0)
        z = 5.0 + 0.5j
        n_sites = 1000
        col = truncated_halfline_green(potential_array(spec, 1, n_sites), z, [1], n_sites)[:, 0]
        got = green_halfline(spec, 1, 233, z)
        assert got == pytest.approx(complex(col[232]), rel=1e-10)
        assert abs(got) == pytest.approx(2.700157e-155, rel=1e-6)

    @pytest.mark.parametrize("z", [5.0 + 0.5j, 0.3 + 0.5j])
    def test_below_smallest_float_matches_mpmath(self, z):
        # |G(1, q)| is e^-2439 and e^-813 at 987/1597: the log form against
        # an unscaled 40-digit transfer product and its backward recurrence
        spec = am(987, 1597, 2.0, 0.0)
        sites = (1, 2, 798, 1597)
        mu, want = mp_halfline_green(potential_array(spec, 1, 1597), z, sites)
        assert -float(mpmath.log(abs(mu))) > 800.0
        for l in sites:
            ln_g, phase = log_green_halfline(spec, 1, l, z)
            assert ln_g == pytest.approx(float(mpmath.log(abs(want[l]))), rel=0.0, abs=1e-11)
            assert abs(phase - complex(want[l] / abs(want[l]))) <= 1e-11
        # G(1, q) = -mu, and one more period multiplies it by mu
        ln_q, _ = log_green_halfline(spec, 1, 1597, z)
        ln_2q, _ = log_green_halfline(spec, 1, 2 * 1597, z)
        assert ln_2q == pytest.approx(2.0 * float(mpmath.log(abs(mu))), rel=1e-13)
        assert green_halfline(spec, 1, 1597, z) == 0j

    def test_window_then_tail_matches_dense_oracle(self, rng):
        # an arbitrary potential on sites 1..n, the periodic tail at its
        # absolute sites after: G(1, n + 1) against a dense truncated solve
        tail = am(2, 7, 2.0, 0.9)
        z = 0.3 + 0.2j
        for n in (0, 1, 5, 12):
            window = rng.uniform(-2.0, 2.0, n)
            V = np.concatenate((window, potential_array(tail, n + 1, 1500)))
            col = truncated_halfline_green(V, z, [1], len(V))[:, 0]
            ln_g, phase = log_green_window(tail, window, z)
            assert phase * math.exp(ln_g) == pytest.approx(complex(col[n]), rel=1e-10)
        assert log_green_window(tail, np.empty(0), z) == pytest.approx(
            log_green_halfline(tail, 1, 1, z), rel=1e-14
        )

    def test_real_energy_in_spectrum_rejected(self):
        with pytest.raises(ValueError):
            green_halfline(FREE, 1, 1, 1.0)

    def test_decaying_tail(self):
        spec = am(1, 3, 2.0, 0.1)
        z = 0.2 + 0.3j
        vals = [abs(green_halfline(spec, 1, l, z)) for l in (3, 30, 300)]
        assert vals[0] > vals[1] > vals[2]


class TestGreenIdentities:
    def test_free_power_m2(self):
        rep = green_identities_check(FREE, 1j, 2)
        assert rep.power_residual <= 1e-12

    def test_random_specs_all_residuals(self, rng):
        for _ in range(20):
            r = random_reduced(rng, 10)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 1.0))
            m = int(rng.integers(1, 6))
            rep = green_identities_check(spec, z, m)
            assert rep.power_residual <= 1e-8
            assert rep.l2_identity_residual <= 1e-6
            assert rep.l2_bound_ok

    def test_l2_sum_against_oracle(self, rng):
        n_sites = 2000
        r = reduce_fraction(1, 4)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.7)
        z = -0.5 + 0.3j
        rep = green_identities_check(spec, z, 2)
        V = potential_array(spec, 1, n_sites)
        col = truncated_halfline_green(V, z, [1], n_sites)[:, 0]
        oracle_sum = float(np.sum(np.abs(col) ** 2))
        assert rep.l2_sum == pytest.approx(oracle_sum, rel=1e-8)

    @pytest.mark.parametrize("z", [5.0 + 0.5j, 0.3 + 0.5j])
    def test_finite_residuals_at_987_1597(self, z):
        # G(1, q) is far below the smallest float: the power law compares
        # logs, not two zeros, and the l^2 identity stays independent
        rep = green_identities_check(am(987, 1597, 2.0, 0.0), z, 2)
        assert rep.ok
        assert 0.0 < rep.power_residual <= 1e-10
        assert rep.l2_identity_residual <= 1e-10
        assert 0.0 < rep.l2_sum <= 4.0

    def test_epsilon_one_bound(self, rng):
        for _ in range(5):
            r = random_reduced(rng, 8)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            rep = green_identities_check(spec, complex(rng.uniform(-3, 3), 1.0), 3)
            assert rep.l2_sum <= 1.0 + 1e-12

    def test_gamma_green_relation(self, rng):
        # gamma = -(1/q) ln |G(1, q)| exactly, asserted at Im z >= 0.05
        from almost_mathieu.greens import lyapunov

        for _ in range(20):
            r = random_reduced(rng, 15)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-4.5, 4.5), rng.uniform(0.05, 1.0))
            g = green_halfline(spec, 1, r.q, z)
            gamma = lyapunov(spec, z).gamma
            assert gamma + math.log(abs(g)) / r.q == pytest.approx(0.0, abs=1e-6)


class TestSurace:
    def test_tiny_epsilon_empty(self):
        rep = surace_deviation(am(1, 2, 2.0, 0.0), 1e-9, 0.1, 4001)
        assert rep.measured_measure == 0.0

    def test_half_critical(self):
        rep = surace_deviation(am(1, 2, 2.0, 0.0), 0.01, 0.05, 10001)
        assert rep.ok
        assert rep.bound == pytest.approx(math.pi * 0.01 / 0.05)

    def test_free(self):
        rep = surace_deviation(FREE, 0.1, 0.5, 5001)
        assert rep.ok

    @pytest.mark.parametrize("grid", [0, 1])
    def test_needs_two_grid_points(self, grid):
        with pytest.raises(ValueError, match="at least 2 grid points"):
            surace_deviation(am(1, 2, 2.0, 0.0), 0.01, 0.05, grid)

    def test_pairs_sweep(self, rng):
        spec = am(2, 5, 2.0, 0.4)
        for eps in (0.005, 0.02, 0.1):
            for eta in (0.02, 0.1, 0.4):
                rep = surace_deviation(spec, eps, eta, 8001)
                assert rep.ok, (eps, eta, rep)
