import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almost_mathieu.core import (
    Mat2,
    OperatorSpec,
    ReducedRational,
    chambers_residual,
    delta,
    discriminant,
    discriminant_and_derivative_grid,
    discriminant_grid,
    monodromy,
    monodromy_scaled,
    potential_eval,
    reduce_fraction,
    transfer_matrix,
)
from conftest import random_reduced
from oracles import (
    exact_derivative,
    exact_discriminant,
    five_array_grid,
    symbolic_discriminant_q2,
    symbolic_discriminant_q3,
)

HALF = ReducedRational(1, 2)
ZERO = ReducedRational(0, 1)


def am(p, q, lam, theta):
    return OperatorSpec.almost_mathieu(reduce_fraction(p, q), lam, theta)


class TestReduceFraction:
    def test_gcd_reduction(self):
        assert reduce_fraction(2, 4) == ReducedRational(1, 2)

    def test_zero_numerator(self):
        assert reduce_fraction(0, 7) == ReducedRational(0, 1)

    def test_already_coprime(self):
        assert reduce_fraction(13, 27) == ReducedRational(13, 27)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            reduce_fraction(1, 0)

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(ValueError):
            ReducedRational(2, 4)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_reduction_properties(self, p, q):
        r = reduce_fraction(p, q)
        assert math.gcd(abs(r.p), r.q) == 1
        assert Fraction(r.p, r.q) == Fraction(p, q)


class TestPotential:
    def test_direct_evaluation(self):
        spec = am(1, 2, 2.0, 0.0)
        assert potential_eval(spec, 1) == pytest.approx(-2.0, abs=1e-15)
        assert potential_eval(spec, 2) == pytest.approx(2.0, abs=1e-15)

    def test_quarter_phase_vanishes(self):
        spec = am(0, 1, 2.0, math.pi / 2)
        assert abs(potential_eval(spec, 17)) < 1e-15

    def test_exact_periodicity(self):
        spec = am(3, 7, 2.0, 0.3)
        for n in range(-5, 15):
            assert potential_eval(spec, n + 7) == potential_eval(spec, n)

    def test_explicit_potential(self):
        spec = OperatorSpec.explicit([0.5, -1.0, 2.0])
        assert spec.period == 3
        assert potential_eval(spec, 4) == -1.0


class TestTransferMatrix:
    def test_free_plugin(self):
        spec = OperatorSpec.explicit([0.0])
        t = transfer_matrix(spec, 3.0, 1)
        assert (t.a11, t.a12, t.a21, t.a22) == (3.0, -1, 1, 0)

    def test_am_plugin(self):
        t = transfer_matrix(am(1, 2, 2.0, 0.0), 0.0, 1)
        assert t.a11 == pytest.approx(2.0, abs=1e-15)
        assert (t.a12, t.a21, t.a22) == (-1, 1, 0)

    def test_det_structurally_one(self, rng):
        for _ in range(50):
            spec = am(*_random_pq(rng), rng.uniform(0.5, 4.0), rng.uniform(0, 2 * math.pi))
            E = complex(rng.uniform(-6, 6), rng.uniform(-1, 1))
            j = int(rng.integers(-10, 10))
            assert transfer_matrix(spec, E, j).det() == 1


def _random_pq(rng, q_max=60):
    r = random_reduced(rng, q_max)
    return r.p, r.q


class TestMonodromy:
    def test_single_step(self):
        spec = OperatorSpec.explicit([0.0])
        z = 1.7 - 0.3j
        m = monodromy(spec, z)
        assert (m.a11, m.a12, m.a21, m.a22) == (z, -1, 1, 0)

    def test_q2_trace_identity(self, rng):
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            lam = rng.uniform(0.5, 3.0)
            spec = am(1, 2, lam, theta)
            E = complex(rng.uniform(-5, 5), rng.uniform(-0.5, 0.5))
            v1, v2 = potential_eval(spec, 1), potential_eval(spec, 2)
            expected = symbolic_discriminant_q2(v1, v2, E)
            got = monodromy(spec, E).trace()
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_det_one_random_specs(self, rng):
        for _ in range(100):
            r = random_reduced(rng, 60)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            spec = OperatorSpec.almost_mathieu(r, lam, rng.uniform(0, 2 * math.pi))
            E = rng.uniform(-6, 6)
            m = monodromy(spec, complex(E))
            norm2 = sum(abs(x) ** 2 for x in (m.a11, m.a12, m.a21, m.a22))
            slack = max(1.0, 1e-3 * norm2)
            assert abs(m.det() - 1.0) <= 1e-10 * slack

    def test_det_exactly_one_over_fractions(self):
        spec = am(2, 5, 2.0, 0.4)
        m = monodromy(spec, Fraction(37, 100))
        assert m.det() == 1

    def test_scaled_matches_direct(self, rng):
        for _ in range(20):
            r = random_reduced(rng, 20)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 0.5))
            direct = monodromy(spec, z)
            m, log_s = monodromy_scaled(spec, z)
            factor = math.exp(log_s)
            for got, want in [
                (m.a11 * factor, direct.a11),
                (m.a12 * factor, direct.a12),
                (m.a21 * factor, direct.a21),
                (m.a22 * factor, direct.a22),
            ]:
                assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


class TestDiscriminant:
    def test_q2_symbolic(self, rng):
        for theta in [0.0, 0.3, math.pi / 4, 2.0]:
            spec = am(1, 2, 2.0, theta)
            for E in [-2.5, 0.0, 0.37, 3.1]:
                want = E * E - 4.0 * math.cos(theta) ** 2 - 2.0
                assert discriminant(spec, E) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_q3_symbolic(self, rng):
        spec = am(1, 3, 2.0, 0.7)
        v = [potential_eval(spec, j) for j in (1, 2, 3)]
        for E in [-1.3, 0.2, 2.8]:
            want = symbolic_discriminant_q3(*v, E)
            assert discriminant(spec, E) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_free_is_linear(self):
        spec = am(0, 1, 2.0, math.pi / 2)
        for E in [-3.0, 0.1, 5.0]:
            assert discriminant(spec, E) == pytest.approx(E, abs=1e-14)

    def test_dual_derivative_vs_central_difference(self, rng):
        for _ in range(30):
            r = random_reduced(rng, 12)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            E = float(rng.uniform(-4, 4))
            _, dmant, logs = discriminant_and_derivative_grid(spec, np.array([E]))
            want = exact_derivative(spec, E)
            assert dmant[0] * math.exp(logs[0]) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_monic_degree_q_exact(self, rng):
        E = Fraction(10**6)
        for _ in range(10):
            r = random_reduced(rng, 8)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            d = exact_discriminant(spec, E)
            ratio = d / E**spec.period
            assert abs(float(ratio) - 1.0) < 2e-5

    def test_implementation_matches_exact_oracle(self, rng):
        for _ in range(10):
            r = random_reduced(rng, 8)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            E = Fraction(rng.integers(-400, 400).item(), 100)
            want = float(exact_discriminant(spec, E))
            got = discriminant(spec, float(E))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestDelta:
    def test_half_lambda2(self):
        assert delta(HALF, 2.0, 0.0) == pytest.approx(-4.0, abs=1e-12)
        for E in [-1.0, 0.6, 2.0]:
            assert delta(HALF, 2.0, E) == pytest.approx(E * E - 4.0, abs=1e-12)

    def test_free_case(self):
        for E in [-2.0, 0.0, 1.3]:
            assert delta(ZERO, 2.0, E) == pytest.approx(E, abs=1e-14)

    def test_definitional_identity_theta0(self):
        r = reduce_fraction(2, 5)
        E = 0.37
        d0 = discriminant(OperatorSpec.almost_mathieu(r, 2.0, 0.0), E)
        assert abs(delta(r, 2.0, E) - d0 - 2.0 * math.cos(0.0)) < 1e-10


class TestChambersResidual:
    def test_spec_points(self):
        assert chambers_residual(HALF, 2.0, 1.3, 0.7) <= 1e-10
        assert chambers_residual(reduce_fraction(3, 7), 2.0, -2.1, math.pi / 3) <= 1e-10
        assert chambers_residual(HALF, 2.0, 0.0, math.pi / 4) <= 1e-12

    def test_thousand_random_samples(self, rng):
        for _ in range(1000):
            r = random_reduced(rng, 60)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            E = rng.uniform(-6, 6)
            theta = rng.uniform(0, 2 * math.pi)
            tol = 1e-9 * max(1.0, abs(E) ** r.q)
            assert chambers_residual(r, lam, E, theta) <= tol


class TestGridEvaluation:
    def test_grid_matches_scalar(self, rng):
        r = random_reduced(rng, 30)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.9)
        Es = np.linspace(-4.2, 4.2, 57)
        mant, logs = discriminant_grid(spec, Es)
        for E, mv, lv in zip(Es, mant, logs):
            want = discriminant(spec, float(E))
            assert mv * math.exp(lv) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_grid_derivative_matches_dual(self, rng):
        r = random_reduced(rng, 25)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.4)
        Es = np.linspace(-4.0, 4.0, 23)
        mant, dmant, logs = discriminant_and_derivative_grid(spec, Es)
        for E, dv, lv in zip(Es, dmant, logs):
            want = exact_derivative(spec, float(E))
            assert dv * math.exp(lv) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_grid_and_derivative_grid_share_values(self, rng):
        r = random_reduced(rng, 40)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.7)
        for Es in (np.linspace(-4.2, 4.2, 61), np.linspace(-4.0, 4.0, 31) + 0.3j):
            mant, logs = discriminant_grid(spec, Es)
            mant2, _, logs2 = discriminant_and_derivative_grid(spec, Es)
            np.testing.assert_array_equal(mant, mant2)
            np.testing.assert_array_equal(logs, logs2)

    # q = 8 and 9 put the last step on and just past a periodic rescale
    @pytest.mark.parametrize("q", [1, 2, 7, 8, 9, 233])
    def test_bitwise_equal_to_five_array_loop(self, q, rng):
        p = 1 if q > 1 else 0
        for lam, theta in ((2.0, math.pi / (2 * q)), (1.3, 0.4)):
            spec = am(p, q, lam, theta)
            for Es in (
                np.linspace(-5.0, 5.0, 41),
                rng.uniform(-4.0, 4.0, 17) + 1j * rng.uniform(-1.0, 1.0, 17),
            ):
                for got, want in (
                    (discriminant_grid(spec, Es), five_array_grid(spec, Es, False)),
                    (
                        discriminant_and_derivative_grid(spec, Es),
                        five_array_grid(spec, Es, True),
                    ),
                ):
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype
                        assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("q", [1, 8, 9, 233])
    def test_each_energy_alone_equals_batch(self, q, rng):
        # the bisection drops settled brackets from its batch, which keeps
        # the roots only because no energy's value depends on the others
        spec = am(1 if q > 1 else 0, q, 2.0, math.pi / (2 * q))
        for Es in (rng.uniform(-4.0, 4.0, 23), rng.uniform(-4.0, 4.0, 9) + 0.2j):
            for grid in (discriminant_grid, discriminant_and_derivative_grid):
                batch = grid(spec, Es)
                for i in range(len(Es)):
                    alone = grid(spec, Es[i : i + 1])
                    for b, a in zip(batch, alone):
                        assert b[i : i + 1].tobytes() == a.tobytes()

    def test_grid_no_overflow_large_q(self):
        spec = OperatorSpec.almost_mathieu(reduce_fraction(233, 377), 2.0, 0.0)
        Es = np.linspace(-5.0, 5.0, 101)
        mant, logs = discriminant_grid(spec, Es)
        assert np.all(np.isfinite(mant))
        assert np.all(np.isfinite(logs))


class TestMat2:
    def test_identity(self):
        m = Mat2.identity()
        assert m.trace() == 2
        assert m.det() == 1

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=30)
    def test_associativity_over_fractions(self, a, b, c):
        x = Mat2(Fraction(a), Fraction(1), Fraction(0), Fraction(1))
        y = Mat2(Fraction(1), Fraction(b), Fraction(1), Fraction(0))
        z = Mat2(Fraction(c), Fraction(0), Fraction(1), Fraction(1))
        lhs = (x @ y) @ z
        rhs = x @ (y @ z)
        assert lhs == rhs
