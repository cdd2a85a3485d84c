import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from almost_mathieu.core import (
    OperatorSpec,
    monodromy_scaled,
    reduce_fraction,
)
from almost_mathieu.interpolation import (
    build_intermediate,
    green_comparison,
    inverse_blocks,
    trace_margin_check,
    window_check,
)
from almost_mathieu.products import align_phases, eigensystem_2x2, hypothesis_margins, product_growth
from conftest import plain_discriminant
from oracles import (
    am_potential_range,
    intermediate_potential,
    mp_discriminant,
    mp_halfline_green,
    mp_intermediate_trace,
    transfer_product,
    truncated_halfline_green,
)

HALF = reduce_fraction(1, 2)
ZERO = reduce_fraction(0, 1)
FINE = reduce_fraction(13, 27)


def window_margin(rep):
    """bound - Delta: the margin of the worst j, from the report's scaled Delta."""
    return rep.bound - rep.delta_mantissa * math.exp(rep.delta_log_scale)


class TestBuildIntermediate:
    def test_worked_l0(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        assert ip.l0 == 6
        assert ip.freeze_site == 12

    def test_second_worked_l0(self):
        ip = build_intermediate(HALF, reduce_fraction(21, 43), 0.01, ctilde=1.0)
        assert ip.l0 == 2

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            build_intermediate(HALF, FINE, 1e-4)

    def test_window_too_long_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            build_intermediate(HALF, FINE, 25.0, ctilde=1.0)

    def test_gate_flags(self):
        assert not build_intermediate(HALF, FINE, 0.25, ctilde=1.0).gate_ok
        # eta = 50^-2 * 0.25^2 = 2.5e-5 at q = 2, and |20000/40001 - 1/2| = 1.25e-5
        assert build_intermediate(HALF, reduce_fraction(20000, 40001), 0.25, ctilde=1.0).gate_ok

    def test_fine_potential_below_freeze(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        arr = ip.potential_array(1, ip.freeze_site - 1)
        for n in range(1, ip.freeze_site):
            fine = 2.0 * math.cos(2.0 * math.pi * (13 * n % 27) / 27.0)
            assert arr[n - 1] == pytest.approx(fine, abs=1e-14)

    def test_frozen_phase_after(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        th = ip.theta(ip.freeze_site)
        arr = ip.potential_array(ip.freeze_site, 8)
        for i, n in enumerate(range(ip.freeze_site, ip.freeze_site + 8)):
            want = 2.0 * math.cos(math.pi * n + th)
            assert arr[i] == pytest.approx(want, abs=1e-12)

    def test_frozen_potential_floats(self):
        # 2 cos(2 pi (p~ n mod q~) / q~) below the freeze site and
        # 2 cos(2 pi (p n mod q) / q + theta_freeze) from it on, bit for bit,
        # for windows on either side of the freeze site and across it
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        n0 = ip.freeze_site
        for start, count in ((1, 40), (1, n0 - 1), (n0, 8), (n0 - 3, 1), (n0 + 5, 30)):
            n = np.arange(start, start + count)
            fine = 2.0 * np.cos(2.0 * math.pi * ((13 * n) % 27) / 27)
            frozen = 2.0 * np.cos(2.0 * math.pi * (n % 2) / 2 + ip.theta(n0))
            want = np.where(n < n0, fine, frozen)
            np.testing.assert_array_equal(ip.potential_array(start, count), want)

    def test_array_matches_scalar(self):
        # one site at a time reads the same floats as one window
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        arr = ip.potential_array(1, 40)
        for i, n in enumerate(range(1, 41)):
            assert ip.potential_array(n, 1)[0] == arr[i]
        want = intermediate_potential(1, 2, 13, 27, ip.freeze_site, range(1, 41))
        np.testing.assert_allclose(arr, want, rtol=0.0, atol=1e-13)


class TestWindowCheck:
    def test_half_at_zero(self):
        ip = build_intermediate(HALF, FINE, 0.3, ctilde=0.5)
        rep = window_check(ip, 0.0)
        assert rep.ok
        assert rep.threshold == pytest.approx(-2.225)
        # at j = 0 the margin is -2.225 - (-6) = 3.775; drift can only lower it
        assert 0.0 < window_margin(rep) <= 3.775 + 1e-12

    def test_boundary_case_reported_not_thrown(self):
        # Delta(E) = -delta exactly: E = sqrt(4 - delta)
        delta = 0.3
        E = math.sqrt(4.0 - delta)
        ip = build_intermediate(HALF, FINE, delta, ctilde=1.0)
        rep = window_check(ip, E)
        assert isinstance(rep.ok, bool)

    def test_free_base(self):
        # D_{0/1,2,theta}(E) = E - 2 cos(theta): stays below -2.375 for
        # E = -3 while the window keeps cos(theta_j) > -0.3125
        ip = build_intermediate(ZERO, reduce_fraction(1, 400), 0.5, ctilde=0.1)
        rep = window_check(ip, -3.0)
        assert rep.ok
        assert window_margin(rep) <= -2.375 - (-5.0)

    def test_matches_direct_discriminant(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        E = 0.3
        rep = window_check(ip, E)
        dd = rep.delta_mantissa * math.exp(rep.delta_log_scale)
        for j in (0, 3, ip.freeze_site):
            spec = OperatorSpec.almost_mathieu(HALF, 2.0, ip.theta(j))
            dval = plain_discriminant(spec, E).real
            assert dval == pytest.approx(dd - 2.0 * math.cos(2.0 * ip.theta(j)), abs=1e-10)


class TestInverseBlocks:
    def test_free_base_plugin(self):
        ip = build_intermediate(ZERO, ZERO, 1.0, ctilde=1.0)
        blocks = inverse_blocks(ip, 3.0, 0.0)
        assert len(blocks) == 1
        b = blocks[0]
        assert (b.a11, b.a12) == (0.0, 1.0)
        assert b.a21 == -1.0
        assert complex(b.a22) == pytest.approx(1.0, abs=1e-14)

    def test_dets_are_one(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=1.0)
        for b in inverse_blocks(ip, 0.37, 0.05):
            assert abs(complex(b.det()) - 1.0) <= 1e-10

    def test_zero_drift_blocks_are_periodic_inverses(self):
        ip = build_intermediate(HALF, HALF, 1.0, ctilde=1.0)
        z = 0.2 + 0.1j
        blocks = inverse_blocks(ip, 0.2, 0.1)
        spec = OperatorSpec.almost_mathieu(HALF, 2.0, 0.0)
        m, log_s = monodromy_scaled(spec, z)
        prod = blocks[0] @ m.scaled(math.exp(log_s))
        assert complex(prod.a11) == pytest.approx(1.0, abs=1e-12)
        assert complex(prod.a22) == pytest.approx(1.0, abs=1e-12)
        assert abs(complex(prod.a12)) <= 1e-12
        assert abs(complex(prod.a21)) <= 1e-12


    @pytest.mark.parametrize(
        "base, fine, delta, ctilde, E, eps",
        [
            (HALF, FINE, 0.25, 1.0, 0.37, 0.05),
            (HALF, reduce_fraction(500, 1001), 0.3, 0.05, 0.0, 1e-3),
            (reduce_fraction(2, 5), reduce_fraction(21, 52), 0.5, 1.0, -1.3, 0.2),
            (reduce_fraction(3, 7), reduce_fraction(40, 93), 0.8, 1.0, 0.9, 0.01),
            (ZERO, reduce_fraction(1, 400), 0.5, 0.1, -3.0, 0.0),
        ],
    )
    def test_match_numpy_product_oracle(self, base, fine, delta, ctilde, E, eps):
        ip = build_intermediate(base, fine, delta, ctilde=ctilde)
        q = base.q
        blocks = inverse_blocks(ip, E, eps)
        assert len(blocks) == ip.l0
        for j, b in enumerate(blocks):
            sites = range(j * q + 1, (j + 1) * q + 1)
            V = intermediate_potential(base.p, q, fine.p, fine.q, ip.freeze_site, sites)
            want = transfer_product(V, complex(E, eps), inverse=True)
            got = np.array([[b.a11, b.a12], [b.a21, b.a22]], dtype=np.complex128)
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
            # and the blocks invert the forward one-period products
            fwd = transfer_product(V, complex(E, eps))
            np.testing.assert_allclose(got @ fwd, np.eye(2), rtol=0.0, atol=1e-10)


class TestTraceMargins:
    def test_half_small_drift(self):
        ip = build_intermediate(HALF, reduce_fraction(500, 1001), 0.3, ctilde=0.05)
        rep = trace_margin_check(ip, 0.0, 1e-3)
        assert rep.ok
        # trace ~ D(0) = -6, margin ~ 6 - 2.15
        margins = [abs(t) * math.exp(s) - 2.15 for t, s in zip(rep.traces, rep.log_scales)]
        assert min(margins) > 3.0

    def test_zero_drift_trace_is_discriminant(self):
        ip = build_intermediate(HALF, HALF, 1.0, ctilde=1.0)
        z = 0.37 + 0.01j
        blocks = inverse_blocks(ip, 0.37, 0.01)
        spec = OperatorSpec.almost_mathieu(HALF, 2.0, 0.0)
        d = plain_discriminant(spec, z)
        assert complex(blocks[0].trace()) == pytest.approx(d, rel=1e-12)

    def test_gamma_floor(self):
        ip = build_intermediate(HALF, reduce_fraction(500, 1001), 0.3, ctilde=0.05)
        rep = trace_margin_check(ip, 0.0, 1e-3)
        assert rep.gamma_floor == pytest.approx(math.acosh(1.075))
        assert all(g > rep.gamma_floor for g in rep.gammas)

    def test_gammas_are_log_of_the_larger_multiplier(self):
        ip = build_intermediate(HALF, reduce_fraction(500, 1001), 0.3, ctilde=0.05)
        # hyperbolic blocks, and blocks inside the coarse spectrum
        for E, eps in ((0.0, 1e-3), (0.37, 0.1), (-1.0, 1e-3), (2.5, 0.01)):
            rep = trace_margin_check(ip, E, eps)
            want = [
                math.log(max(np.abs(np.linalg.eigvals([[b.a11, b.a12], [b.a21, b.a22]])).max(), 1.0))
                for b in inverse_blocks(ip, E, eps)
            ]
            np.testing.assert_allclose(rep.gammas, want, rtol=0.0, atol=1e-14)


class TestGreenComparison:
    def test_zero_drift_degeneration(self):
        ip = build_intermediate(HALF, HALF, 1.0, ctilde=1.0)
        rep = green_comparison(ip, 0.0, 0.2)
        assert rep.step_i_ok
        # identical operators: G~ equals G at the window site
        assert rep.window_ok

    def test_worked_example_step_i(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=0.5)
        rep = green_comparison(ip, 0.0, 0.1)
        assert rep.step_i_ok
        assert rep.fitted_cprime > 0.0
        assert rep.window_ok and rep.trace_ok

    def test_sanity_at_large_epsilon(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=0.5)
        rep = green_comparison(ip, 0.5, 1.0)
        # |G| and |G~| are at most 1 / eps = 1; at eps = 1, rhs_i = 5 |G~|
        assert rep.ln_lhs_i <= 1e-12
        assert rep.ln_rhs_i - math.log(5.0) <= 1e-12

    def test_perturbation_stability(self):
        ip = build_intermediate(HALF, FINE, 0.25, ctilde=0.5)
        rep_a = green_comparison(ip, 0.37, 0.1)
        rep_b = green_comparison(ip, 0.37 + 1e-12, 0.1)
        assert rep_a.ln_lhs_i == pytest.approx(rep_b.ln_lhs_i, rel=0.0, abs=1e-6)
        assert rep_a.ln_rhs_i == pytest.approx(rep_b.ln_rhs_i, rel=0.0, abs=1e-6)
        assert rep_a.fitted_cprime == pytest.approx(rep_b.fitted_cprime, rel=1e-6)
        assert rep_a.step_i_ok == rep_b.step_i_ok

    @pytest.mark.parametrize(
        "base, fine, delta, ctilde, eps",
        [
            (HALF, FINE, 0.25, 0.5, 0.1),
            (HALF, HALF, 1.0, 1.0, 0.2),
            (reduce_fraction(2, 5), reduce_fraction(13, 32), 0.25, 0.5, 0.1),
        ],
    )
    def test_matches_dense_oracle(self, base, fine, delta, ctilde, eps):
        # G(1, q q~) and G~(1, l0 q) against dense truncated solves of the
        # fine and the two-scale potentials, written out from their formulas
        ip = build_intermediate(base, fine, delta, ctilde=ctilde)
        rep = green_comparison(ip, 0.0, eps)
        z = complex(0.0, eps)
        n_sites = 4 * base.q * fine.q + int(math.ceil(50.0 / eps))
        v_fine = am_potential_range(fine.p, fine.q, 2.0, 0.0, n_sites)
        v_mid = intermediate_potential(
            base.p, base.q, fine.p, fine.q, ip.freeze_site, range(1, n_sites + 1)
        )
        g = truncated_halfline_green(v_fine, z, [1], n_sites)[base.q * fine.q - 1, 0]
        g_tilde = truncated_halfline_green(v_mid, z, [1], n_sites)[ip.freeze_site - 1, 0]
        assert rep.ln_lhs_i == pytest.approx(math.log(abs(g)), rel=0.0, abs=1e-12)
        ln_g_tilde = rep.ln_rhs_i - math.log(5.0) + 3.0 * math.log(eps)
        assert ln_g_tilde == pytest.approx(math.log(abs(g_tilde)), rel=0.0, abs=1e-12)
        cprime = -math.log(eps * abs(g_tilde) / 4.0) * base.q / (delta * fine.q)
        assert rep.fitted_cprime == pytest.approx(cprime, rel=1e-10)

    def test_step_i_on_finite_logs_at_7000_14001(self):
        # |G(1, q q~)| is e^-16430, far below the smallest float; step (i)
        # compares logs.  G is q = 2 fine periods, so |G| = |mu|^2 for the
        # contracting multiplier, here from a 40-digit transfer product; G~
        # is e^-337, where a dense truncated solve still reaches it
        ip = build_intermediate(HALF, reduce_fraction(7000, 14001), 0.3, ctilde=0.05)
        eps = 0.1
        rep = green_comparison(ip, 0.0, eps)
        z = complex(0.0, eps)
        mu, _ = mp_halfline_green(am_potential_range(7000, 14001, 2.0, 0.0, 14001), z, ())
        assert rep.ln_lhs_i == pytest.approx(2.0 * float(mpmath.log(abs(mu))), rel=0.0, abs=1e-9)
        assert rep.ln_lhs_i == pytest.approx(-16429.56, abs=0.01)
        n_sites = ip.freeze_site + 1000
        v_mid = intermediate_potential(1, 2, 7000, 14001, ip.freeze_site, range(1, n_sites + 1))
        g_tilde = truncated_halfline_green(v_mid, z, [1], n_sites)[ip.freeze_site - 1, 0]
        ln_g_tilde = rep.ln_rhs_i - math.log(5.0) + 3.0 * math.log(eps)
        assert ln_g_tilde == pytest.approx(math.log(abs(g_tilde)), rel=0.0, abs=1e-10)
        assert rep.ln_rhs_i == pytest.approx(-328.17, abs=0.01)
        assert rep.step_i_ok


class TestPaperScale:
    """610/987 against 1597/2584 at E = 5: Delta and both block traces are
    near e^1500, far past the float range, and every decision is checked
    against a 40-digit evaluation."""

    P, Q, PT, QT, DELTA, E, EPS = 610, 987, 1597, 2584, 0.25, 5.0, 0.1

    def test_decisions_match_40_digits(self):
        ip = build_intermediate(
            reduce_fraction(self.P, self.Q), reduce_fraction(self.PT, self.QT), self.DELTA, ctilde=2.0
        )
        assert ip.l0 == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            win = window_check(ip, self.E)
            tr = trace_margin_check(ip, self.E, self.EPS)
            rep = green_comparison(ip, self.E, self.EPS)

        with mpmath.workdps(40):
            # window: Delta - 2 cos(q theta_j) < -2 - 3 delta / 4 for every j
            dd = mp_discriminant(self.P, self.Q, 2.0, None, self.E, dps=40)
            drift = Fraction(self.PT, self.QT) - Fraction(self.P, self.Q)
            thr = -2 - 3 * mpmath.mpf(self.DELTA) / 4
            window_ok = all(
                dd - 2 * mpmath.cos(self.Q * 2 * mpmath.pi * (drift.numerator * j % drift.denominator) / drift.denominator)
                < thr
                for j in range(ip.freeze_site + 1)
            )
            # trace: |Tr| > 2 + delta / 2 on each block of q sites
            traces = [
                mp_intermediate_trace(
                    self.P, self.Q, self.PT, self.QT, ip.freeze_site,
                    range(j * self.Q + 1, (j + 1) * self.Q + 1), complex(self.E, self.EPS),
                )
                for j in range(ip.l0)
            ]
            trace_ok = all(abs(t) > 2 + mpmath.mpf(self.DELTA) / 2 for t in traces)
            ln_delta = float(mpmath.log(abs(dd)))
            ln_traces = [float(mpmath.log(abs(t))) for t in traces]
            gammas = [float(mpmath.re(mpmath.acosh(t / 2))) for t in traces]

        assert (win.ok, tr.trace_ok) == (window_ok, trace_ok) == (False, True)
        assert (rep.window_ok, rep.trace_ok, rep.step_i_ok) == (False, True, True)
        assert ln_delta > 1400.0
        assert math.log(abs(win.delta_mantissa)) + win.delta_log_scale == pytest.approx(ln_delta, rel=0.0, abs=1e-9)
        got = [math.log(abs(t)) + s for t, s in zip(tr.traces, tr.log_scales)]
        np.testing.assert_allclose(got, ln_traces, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(tr.gammas, gammas, rtol=0.0, atol=1e-9)
        assert tr.gamma_ok
        assert rep.ln_lhs_i == pytest.approx(-3874770.14, abs=0.01)
        assert rep.ln_rhs_i == pytest.approx(-2990.53, abs=0.01)


class TestGrowthTheoremApplication:
    def test_inverse_blocks_feed_growth_certificate(self):
        # admissible drift: |p~/q~ - p/q| = 1/28002 below 50^-2 delta^2
        ip = build_intermediate(
            HALF, reduce_fraction(7000, 14001), 0.3, ctilde=0.05
        )
        assert ip.gate_ok
        assert window_check(ip, 0.0).ok
        tr = trace_margin_check(ip, 0.0, 0.1)
        assert tr.ok
        blocks = inverse_blocks(ip, 0.0, 0.1)
        # the product Phi^{-1} = T_0^{-1} ... T_{l0-1}^{-1} applies the last
        # block first, so the growth certificate sees the chain reversed
        factors = align_phases([eigensystem_2x2(b) for b in reversed(blocks)])
        margins = hypothesis_margins(factors, 0.5)
        assert all(m > 0.0 for m in margins)
        cert = product_growth(factors, 0.5)
        assert cert.passed
        floor = math.acosh(1.0 + ip.delta / 4.0)
        assert cert.norm_final_log >= math.log(0.5) + 0.5 * cert.sum_gamma - 1e-9
        assert cert.sum_gamma >= ip.l0 * floor
