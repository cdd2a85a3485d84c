import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almost_mathieu.alpha import (
    AlphaCertificate,
    construct_alpha,
    convergents,
    verify_conditions,
)


class TestConvergents:
    def test_fibonacci(self):
        cf = convergents([1, 1, 1, 1, 1])
        assert [(c.p, c.q) for c in cf.convergents] == [
            (1, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (5, 8),
        ]

    def test_single(self):
        cf = convergents([2])
        assert (cf.convergents[0].p, cf.convergents[0].q) == (1, 2)

    def test_one_two_three(self):
        cf = convergents([1, 2, 3])
        assert [(c.p, c.q) for c in cf.convergents] == [(1, 1), (2, 3), (7, 10)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            convergents([1, 0, 2])

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_recurrence_and_error_bound(self, quotients):
        cf = convergents(quotients)
        convs = cf.convergents
        for k in range(1, len(convs)):
            assert convs[k].p * convs[k - 1].q - convs[k - 1].p * convs[k].q == (-1) ** k
        # |alpha - p_k/q_k| < 1/(q_k q_{k+1}) with alpha any continuation:
        # consecutive convergents straddle alpha
        for k in range(len(convs) - 1):
            gap = abs(
                Fraction(convs[k].p, convs[k].q)
                - Fraction(convs[k + 1].p, convs[k + 1].q)
            )
            assert gap == Fraction(1, convs[k].q * convs[k + 1].q)


class TestConstructAlpha:
    def test_level_one_matches_integer_scan(self):
        cf, cert = construct_alpha(10.0, 1)
        q1 = cf.convergents[0].q
        assert q1 == 2
        q2 = cf.convergents[1].q
        # independent scan of the defining inequalities over odd q2 = 2n + 1
        with mpmath.workdps(50):
            def ok(Q):
                lhs = 40 * mpmath.e ** (-mpmath.mpf(Q) / 40)
                cond3b = lhs <= mpmath.mpf(1) / Q
                cond1 = Fraction(1, 2 * Q) < min(
                    Fraction(10) ** -2 * Fraction(1, 4), Fraction(1, 2)
                )
                return cond3b and cond1 and Q > 2
            want = next(n * 2 + 1 for n in range(1, 10**6) if ok(n * 2 + 1))
        assert q2 == want
        assert cert.all_ok

    def test_roundtrip_c10_j3(self):
        cf, cert = construct_alpha(10.0, 3)
        re_cert = verify_conditions(cf, 10.0, 3)
        assert cert.all_ok and re_cert.all_ok
        for lev in re_cert.levels:
            assert lev.cond1_margin > 0
            assert lev.cond2_margin > 0
            assert lev.cond3a_margin > 0
            assert lev.cond3b_margin > 0

    def test_denominator_growth_exact(self):
        cf, cert = construct_alpha(10.0, 3)
        for j in (1, 3):
            q_j = cf.convergents[j - 1].q
            q_j1 = cf.convergents[j].q
            assert q_j1 > q_j**j

    @pytest.mark.parametrize("c", [1.0, 10.0, 50.0])
    def test_roundtrip_various_c(self, c):
        for j_max in (1, 3):
            cf, cert = construct_alpha(c, j_max)
            assert verify_conditions(cf, c, j_max).all_ok

    def test_rejects_even_jmax(self):
        with pytest.raises(ValueError):
            construct_alpha(10.0, 2)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            construct_alpha(0.0, 1)

    def test_digit_guard_names_level(self):
        # q_5 has over a thousand digits, so C^{-q_5} has no buildable exact form
        with pytest.raises(ValueError, match="eta underflows representable rationals at level 5"):
            construct_alpha(10.0, 5)


class TestVerifyConditions:
    def test_golden_mean_fails_growth(self):
        cf = convergents([1] * 12)
        cert = verify_conditions(cf, 10.0, 5)
        by_j = {lev.j: lev for lev in cert.levels}
        # Fibonacci growth q_{j+1} ~ 1.618 q_j never beats q_j^j past j = 1
        assert by_j[3].cond3a_margin <= 0
        assert by_j[5].cond3a_margin <= 0
        assert not cert.all_ok

    def test_needs_enough_convergents(self):
        cf = convergents([1, 1, 1])
        with pytest.raises(ValueError):
            verify_conditions(cf, 10.0, 3)

    def test_large_quotient_level_one(self):
        n = 10**6
        cf = convergents([n, n, n])
        cert = verify_conditions(cf, 1.0, 1)
        lev = cert.levels[0]
        # direct evaluation at C = 1, delta = 1/q1: conditions (1) and the
        # power half of (3) hold, but q2 ~ q1^2 is still far too small for
        # the exponential decay half: q1^2 e^{-q2/q1^2} ~ q1^2 / e
        assert lev.cond1_margin > 0
        assert lev.cond3a_margin > 0
        assert lev.cond3b_margin < 0
        assert not cert.all_ok

    def test_certificate_margins_are_exact_rational_decisions(self):
        cf, _ = construct_alpha(10.0, 1)
        lev = verify_conditions(cf, 10.0, 1).levels[0]
        q1, q2 = cf.convergents[0].q, cf.convergents[1].q
        eta = Fraction(10) ** (-q1) * Fraction(1, q1) ** 2
        want = min(eta, Fraction(1, q1)) - Fraction(1, q1 * q2)
        assert lev.cond1_margin == pytest.approx(float(want), rel=1e-15)
