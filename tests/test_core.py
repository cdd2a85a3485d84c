import cmath
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almost_mathieu.core import (
    Mat2,
    OperatorSpec,
    ReducedRational,
    _chambers_fixed,
    chambers_bits,
    chambers_residual,
    delta_spec,
    discriminant_and_derivative_grid,
    discriminant_grid,
    eigenvector,
    floquet_exponent,
    monodromy_scaled,
    potential_array,
    reduce_fraction,
)
from conftest import plain_discriminant, random_complex_mat, random_reduced
from oracles import (
    am_potential_range,
    exact_derivative,
    exact_discriminant,
    five_array_grid,
    mat2_step_monodromy,
    mp_discriminant,
    symbolic_discriminant_q2,
    symbolic_discriminant_q3,
    transfer_product,
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
        v = potential_array(spec, 1, 2)
        assert v[0] == pytest.approx(-2.0, abs=1e-15)
        assert v[1] == pytest.approx(2.0, abs=1e-15)

    def test_quarter_phase_vanishes(self):
        spec = am(0, 1, 2.0, math.pi / 2)
        assert abs(potential_array(spec, 17, 1)[0]) < 1e-15

    def test_exact_periodicity(self):
        spec = am(3, 7, 2.0, 0.3)
        v = potential_array(spec, -5, 27)
        assert v[7:].tobytes() == v[:-7].tobytes()

    def test_explicit_potential(self):
        spec = OperatorSpec.explicit([0.5, -1.0, 2.0])
        assert spec.period == 3
        # explicit values are V(1), ..., V(q)
        assert potential_array(spec, 4, 1)[0] == 0.5
        assert potential_array(spec, 1, 3).tolist() == [0.5, -1.0, 2.0]
        assert potential_array(spec, 0, 1)[0] == 2.0

    @pytest.mark.parametrize(
        "spec",
        [
            am(1, 2, 2.0, 0.0),
            am(144, 233, 2.0, 0.7),
            am(144, 233, -2.0, 0.7),
            am(987, 1597, -1.3, 5.0),
            OperatorSpec.explicit([0.5, -1.0, 2.0]),
            OperatorSpec.explicit([-0.0]),
        ],
    )
    def test_period_potential_is_cached_and_read_only(self, spec):
        equal = OperatorSpec(spec.alpha, spec.lam, spec.theta, spec.values)
        v = spec.period_potential
        assert v.tobytes() == potential_array(spec, 1, spec.period).tobytes()
        assert spec.period_potential is v
        with pytest.raises(ValueError):
            v[0] = 1.0
        # the cache is not a field: a spec with it filled still equals and
        # hashes like one without
        assert "period_potential" not in vars(equal)
        assert spec == equal and hash(spec) == hash(equal)

    def test_explicit_copy_has_the_same_monodromy(self, rng):
        # the explicit spec of V(1), ..., V(q) is the same operator: the
        # whole period product agrees, not only its cyclic-invariant trace
        for _ in range(20):
            r = random_reduced(rng, 12)
            spec = am(r.p, r.q, rng.uniform(0.5, 3.0), rng.uniform(0, 2 * math.pi))
            copy = OperatorSpec.explicit(potential_array(spec, 1, r.q))
            z = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
            m, m_copy = _unscaled(spec, z), _unscaled(copy, z)
            assert [m_copy.a11, m_copy.a12, m_copy.a21, m_copy.a22] == [
                m.a11, m.a12, m.a21, m.a22
            ]


def _unscaled(spec, z):
    m, log_s = monodromy_scaled(spec, z)
    return m.scaled(math.exp(log_s))


class TestMonodromy:
    def test_single_step(self):
        spec = OperatorSpec.explicit([0.0])
        z = 1.7 - 0.3j
        m = _unscaled(spec, z)
        assert [m.a11, m.a12, m.a21, m.a22] == pytest.approx([z, -1, 1, 0], abs=1e-15)

    def test_q2_trace_identity(self, rng):
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            lam = rng.uniform(0.5, 3.0)
            spec = am(1, 2, lam, theta)
            E = complex(rng.uniform(-5, 5), rng.uniform(-0.5, 0.5))
            v1, v2 = am_potential_range(1, 2, lam, theta, 2)
            expected = symbolic_discriminant_q2(v1, v2, E)
            got = _unscaled(spec, E).trace()
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_det_one_random_specs(self, rng):
        for _ in range(100):
            r = random_reduced(rng, 60)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            spec = OperatorSpec.almost_mathieu(r, lam, rng.uniform(0, 2 * math.pi))
            E = rng.uniform(-6, 6)
            m = _unscaled(spec, complex(E))
            norm2 = sum(abs(x) ** 2 for x in (m.a11, m.a12, m.a21, m.a22))
            slack = max(1.0, 1e-3 * norm2)
            assert abs(m.det() - 1.0) <= 1e-10 * slack

    def test_scaled_matches_direct(self, rng):
        for _ in range(20):
            r = random_reduced(rng, 20)
            theta = rng.uniform(0, 2 * math.pi)
            spec = OperatorSpec.almost_mathieu(r, 2.0, theta)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 0.5))
            direct = transfer_product(am_potential_range(r.p, r.q, 2.0, theta, r.q), z)
            m = _unscaled(spec, z)
            for got, want in [
                (m.a11, direct[0, 0]),
                (m.a12, direct[0, 1]),
                (m.a21, direct[1, 0]),
                (m.a22, direct[1, 1]),
            ]:
                assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_no_overflow_large_q(self):
        spec = OperatorSpec.almost_mathieu(reduce_fraction(233, 377), 2.0, 0.0)
        # exp(log_s) alone would overflow a float
        m, log_s = monodromy_scaled(spec, 8.0)
        assert log_s > 710.0
        assert m.max_abs() == pytest.approx(1.0, rel=1e-15)


def _bits(x):
    """Type and exact real/imaginary bit patterns; signed zeros differ."""
    return type(x), struct.pack("<dd", x.real, x.imag)


# real, complex, both zeros and the band-edge values +-2, and numpy and
# integer energies: the arithmetic follows the type of the energy
_BIT_ENERGIES = (
    0.5, -1.3, 3.7, 2.0, -2.0, 0j, complex(0.0, -0.0),
    0.3 + 0.2j, -1.1 - 0.4j, 2.0 - 0.01j, complex(-0.0, 1e-3),
    np.float64(-0.7), np.float64(-0.0), 0, -3, np.complex64(0.3 + 0.2j),
)


def _bit_specs():
    for p, q in ((0, 1), (1, 2), (1, 3), (3, 8), (5, 16), (13, 21), (144, 233)):
        for lam in (1.0, 2.0, 3.0):
            for theta in (0.0, 0.7):
                yield am(p, q, lam, theta)
    # q = 8 and 9 put the last step on and just past a periodic rescale
    for n in (1, 2, 7, 8, 9, 24):
        yield OperatorSpec.explicit(
            [0.0 if j % 3 == 0 else (-1.0) ** j * 0.37 * j for j in range(n)]
        )


def _assert_bitwise_mat2_step(spec, E):
    m, log_s = monodromy_scaled(spec, E)
    want, want_log = mat2_step_monodromy(spec, E)
    assert [_bits(x) for x in (m.a11, m.a12, m.a21, m.a22)] == [
        _bits(x) for x in (want.a11, want.a12, want.a21, want.a22)
    ], (spec, E)
    assert _bits(log_s) == _bits(want_log), (spec, E)
    if not np.iscomplexobj(E):
        _assert_real_path_equals_complex(spec, E, m, log_s)


def _assert_real_path_equals_complex(spec, E, m, log_s):
    """The float run at a real E against the complex run at complex(E)."""
    mc, log_c = monodromy_scaled(spec, complex(E))
    entries = (m.a11, m.a12, m.a21, m.a22)
    assert all(type(x) is float for x in entries), (spec, E)
    # == lets the two signed zeros tie
    assert list(entries) == [x.real for x in (mc.a11, mc.a12, mc.a21, mc.a22)], (spec, E)
    assert _bits(log_s) == _bits(log_c), (spec, E)
    w, wc = (complex(floquet_exponent(t, s)) for t, s in ((m.trace(), log_s), (mc.trace(), log_c)))
    assert _bits(w) == _bits(wc), (spec, E)


# a real or a complex energy, either part possibly a signed zero, as a
# Python, a numpy or an integer number
_bit_parts = st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0])
_bit_energy = (
    _bit_parts
    | st.builds(complex, _bit_parts, _bit_parts)
    | st.builds(np.float64, _bit_parts)
    | st.integers(-6, 6)
    | st.builds(lambda x, y: np.complex64(complex(x, y)), _bit_parts, _bit_parts)
)


class TestMonodromyBitwise:
    def test_equal_to_mat2_step_loop(self):
        for spec in _bit_specs():
            for E in _BIT_ENERGIES:
                _assert_bitwise_mat2_step(spec, E)

    def test_many_rescales_at_987_1597(self):
        # log |D| is about 2400 at E = 5: about 200 rescales, each rounding
        spec = am(987, 1597, 2.0, 0.0)
        for E in (5.0, complex(5.0, -0.0), complex(5.0, 0.01)):
            _assert_bitwise_mat2_step(spec, E)
        m, log_s = monodromy_scaled(spec, 5.0)
        assert 2300.0 < log_s < 2500.0

    def test_complex64_keeps_its_imaginary_part(self):
        spec = am(13, 21, 2.0, 0.7)
        E = np.complex64(0.3 + 0.2j)
        m, log_s = monodromy_scaled(spec, E)
        want, want_log = monodromy_scaled(spec, complex(E))
        assert all(type(x) is complex for x in (m.a11, m.a12, m.a21, m.a22))
        assert m.trace().imag != 0.0
        assert [_bits(x) for x in (m.a11, m.a12, m.a21, m.a22)] == [
            _bits(x) for x in (want.a11, want.a12, want.a21, want.a22)
        ]
        assert _bits(log_s) == _bits(want_log)

    @given(
        st.integers(1, 40).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
        st.floats(0.0, 3.0),
        st.floats(allow_nan=False, allow_infinity=False),
        _bit_energy,
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_to_mat2_step_loop_property(self, pq, lam, theta, E):
        spec = OperatorSpec.almost_mathieu(reduce_fraction(*pq), lam, theta)
        _assert_bitwise_mat2_step(spec, E)


class TestDiscriminant:
    def test_q2_symbolic(self, rng):
        for theta in [0.0, 0.3, math.pi / 4, 2.0]:
            spec = am(1, 2, 2.0, theta)
            for E in [-2.5, 0.0, 0.37, 3.1]:
                want = E * E - 4.0 * math.cos(theta) ** 2 - 2.0
                assert plain_discriminant(spec, E) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_q3_symbolic(self, rng):
        spec = am(1, 3, 2.0, 0.7)
        v = am_potential_range(1, 3, 2.0, 0.7, 3)
        for E in [-1.3, 0.2, 2.8]:
            want = symbolic_discriminant_q3(*v, E)
            assert plain_discriminant(spec, E) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_free_is_linear(self):
        spec = am(0, 1, 2.0, math.pi / 2)
        for E in [-3.0, 0.1, 5.0]:
            assert plain_discriminant(spec, E) == pytest.approx(E, abs=1e-14)

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
            got = plain_discriminant(spec, float(E))
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_complex_energy_matches_exact_oracle(self, rng):
        # D has real coefficients, so D(E + i y) = sum_k D^(k)(E) (i y)^k / k!;
        # at q = 2 the series stops after the quadratic term
        spec = am(1, 2, 2.0, 0.3)
        E, y = Fraction(37, 100), 0.25
        want = complex(exact_discriminant(spec, E), 0.0) + 1j * y * exact_derivative(spec, float(E)) - y * y
        got = plain_discriminant(spec, complex(0.37, y))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_unscaled_value_leaves_float_range(self):
        # log |D(8)| is about 777 at 233/377, past the float range; the
        # scalar and the grid forms both keep it scaled, and agree
        spec = OperatorSpec.almost_mathieu(reduce_fraction(233, 377), 2.0, 0.0)
        m, log_s = monodromy_scaled(spec, 8.0)
        mant, logs = discriminant_grid(spec, np.array([8.0]))
        assert math.log(abs(mant[0])) + logs[0] > 709.8
        assert log_s == pytest.approx(logs[0], rel=1e-12)
        assert m.trace() == pytest.approx(mant[0], rel=1e-10)

    def test_monic_degree_q_in_floats(self, rng):
        for _ in range(10):
            r = random_reduced(rng, 6)
            spec = OperatorSpec.almost_mathieu(r, 2.0, rng.uniform(0, 2 * math.pi))
            assert plain_discriminant(spec, 1e6) / 1e6**spec.period == pytest.approx(1.0, abs=2e-5)


class TestDelta:
    """Chambers' Delta: the discriminant of ``delta_spec``, theta = pi / (2q)."""

    def test_half_lambda2(self):
        assert plain_discriminant(delta_spec(HALF, 2.0), 0.0) == pytest.approx(-4.0, abs=1e-12)
        for E in [-1.0, 0.6, 2.0]:
            assert plain_discriminant(delta_spec(HALF, 2.0), E) == pytest.approx(E * E - 4.0, abs=1e-12)

    def test_free_case(self):
        for E in [-2.0, 0.0, 1.3]:
            assert plain_discriminant(delta_spec(ZERO, 2.0), E) == pytest.approx(E, abs=1e-14)

    def test_definitional_identity_theta0(self):
        r = reduce_fraction(2, 5)
        E = 0.37
        d0 = plain_discriminant(OperatorSpec.almost_mathieu(r, 2.0, 0.0), E)
        assert abs(plain_discriminant(delta_spec(r, 2.0), E) - d0 - 2.0 * math.cos(0.0)) < 1e-10


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


class TestFixedPointDiscriminants:
    """D_theta and Delta of ``chambers_residual`` against 60-digit mpmath."""

    @staticmethod
    def assert_match(r, lam, E, theta):
        import mpmath

        bits = chambers_bits(r.q, lam, E)
        tol = 1e-25 * max(1.0, (abs(E) + abs(lam) + 3.0) ** r.q)
        for (re, im), th in zip(_chambers_fixed(r, lam, E, theta, bits)[:2], (theta, None)):
            want = mp_discriminant(r.p, r.q, lam, th, E)
            with mpmath.workdps(60):
                err = abs(mpmath.mpc(re, im) / mpmath.mpf(2) ** bits - want)
            assert err <= tol, (r, lam, E, theta, float(err))

    def test_real_energies(self, rng):
        for _ in range(150):
            r = random_reduced(rng, 60)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            self.assert_match(r, lam, float(rng.uniform(-6, 6)), float(rng.uniform(0, 2 * math.pi)))

    def test_complex_energies(self, rng):
        for _ in range(100):
            r = random_reduced(rng, 60)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            E = complex(rng.uniform(-6, 6), 1.0 - rng.uniform(0.0, 1.0))
            self.assert_match(r, lam, E, float(rng.uniform(0, 2 * math.pi)))

    @pytest.mark.parametrize("r", [ZERO, HALF])
    def test_periods_one_and_two(self, r):
        for lam in (1.0, 2.0, 3.0):
            for E in (-6.0, -1.25, 0.0, 0.7, 6.0, 0.3 + 1.0j, -2.0 + 0.01j):
                for theta in (0.0, 0.4, math.pi / 2, 5.9):
                    self.assert_match(r, lam, E, theta)

    def test_couplings_with_many_bits(self, rng):
        for _ in range(40):
            r = random_reduced(rng, 60)
            lam = float(rng.uniform(0.1, 3.0))
            self.assert_match(r, lam, float(rng.uniform(-6, 6)), float(rng.uniform(0, 2 * math.pi)))

    def test_max_q_and_extreme_energy(self):
        for p in (1, 17, 59):
            self.assert_match(reduce_fraction(p, 60), 3.0, -6.0 + 1.0j, 2.0)


class TestGridEvaluation:
    def test_grid_matches_scalar(self, rng):
        r = random_reduced(rng, 30)
        spec = OperatorSpec.almost_mathieu(r, 2.0, 0.9)
        Es = np.linspace(-4.2, 4.2, 57)
        mant, logs = discriminant_grid(spec, Es)
        for E, mv, lv in zip(Es, mant, logs):
            want = plain_discriminant(spec, float(E))
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

    # q = 8 and 9 put the last step on and just past a periodic rescale; at
    # 987/1597 the 2q = 3194 energies are one bisection level's batch
    @pytest.mark.parametrize("q", [1, 2, 7, 8, 9, 233, 1597])
    def test_bitwise_equal_to_five_array_loop(self, q, rng):
        p = {1: 0, 1597: 987}.get(q, 1)
        specs = (
            am(p, q, 2.0, math.pi / (2 * q)),
            am(p, q, 1.3, 0.4),
            delta_spec(reduce_fraction(p, q), 2.0),
            OperatorSpec.explicit(rng.uniform(-3.0, 3.0, q)),
        )
        batches = (
            np.linspace(-5.0, 5.0, 41),
            rng.uniform(-4.0, 4.0, 17) + 1j * rng.uniform(-1.0, 1.0, 17),
            rng.uniform(-4.0, 4.0, 1),
            rng.uniform(-4.0, 4.0, 512),
            np.linspace(-4.0, 4.0, 2 * q),
            np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]),
            np.array([complex(1.0, -0.0), complex(-0.0, -0.0), complex(np.nan, -0.0)]),
            rng.uniform(-4.0, 4.0, (3, 5)),
            rng.uniform(-4.0, 4.0, (2, 3)) + 0.25j,
            np.array(0.3),
        )
        for spec in specs:
            for Es in batches:
                with np.errstate(all="ignore"):  # nan and inf energies
                    pairs = (
                        (discriminant_grid(spec, Es), five_array_grid(spec, Es, False)),
                        (
                            discriminant_and_derivative_grid(spec, Es),
                            five_array_grid(spec, Es, True),
                        ),
                    )
                for got, want in pairs:
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g.shape == Es.shape
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


class TestFloquetMultiplier:
    def test_roots_match_numpy_eigvals(self, rng):
        # det 1: the multipliers are e^{+-w}, w the Floquet exponent of the trace
        for _ in range(200):
            m = random_complex_mat(rng, True)
            w = complex(floquet_exponent(m.trace()))
            ev = np.linalg.eigvals(np.array([[m.a11, m.a12], [m.a21, m.a22]]))
            big, small = sorted(ev, key=abs, reverse=True)
            scale = max(abs(big), 1.0)
            assert abs(cmath.exp(w) - big) <= 1e-12 * scale
            assert abs(cmath.exp(-w) - small) <= 1e-12 * scale

    @pytest.mark.parametrize("det_one", [True, False])
    def test_eigenvectors_match_numpy(self, det_one, rng):
        for _ in range(200):
            m = random_complex_mat(rng, det_one)
            a = np.array([[m.a11, m.a12], [m.a21, m.a22]])
            ev, vecs = np.linalg.eig(a)
            for lam, w in zip(ev.tolist(), vecs.T):
                v = eigenvector(m, lam)
                assert math.hypot(abs(v[0]), abs(v[1])) == pytest.approx(1.0, abs=1e-15)
                # the same line: |<w, v>| = 1 for unit vectors
                assert abs(np.vdot(w, np.array(v))) == pytest.approx(1.0, abs=1e-10)
                resid = a @ np.array(v) - lam * np.array(v)
                assert np.linalg.norm(resid) <= 1e-12 * max(1.0, abs(lam))

    def test_one_row_of_the_adjugate_vanishes(self):
        # for mu = 3 the first row of adj(m - mu) is zero, so the second is taken
        m = Mat2(3.0, 0.0, 1.0, 0.5)
        assert eigenvector(m, 0.5) == pytest.approx((0.0, -1.0))
        assert eigenvector(m, 3.0) == pytest.approx((2.5 / math.hypot(2.5, 1.0), 1.0 / math.hypot(2.5, 1.0)))

    def test_scalar_matrix_has_no_eigenvector(self):
        c = 1.5 + 0.5j
        m = Mat2(c, 0j, 0j, c)
        ev = np.linalg.eigvals(np.array([[m.a11, m.a12], [m.a21, m.a22]]))
        assert ev.tolist() == [c, c]
        for mu in ev.tolist():
            assert eigenvector(m, mu) is None



def _mp_floquet_exponent(mantissa: complex, log_scale: float) -> complex:
    """acosh(D / 2) at 40 digits for D = mantissa * exp(log_scale); a real
    D (zero imaginary part, of either sign) is taken on the real axis."""
    import mpmath

    with mpmath.workdps(40):
        m = mantissa.real if mantissa.imag == 0.0 else mantissa
        return complex(mpmath.acosh(mpmath.mpmathify(m) * mpmath.exp(log_scale) / 2))


def _matches_oracle(mantissa, log_scale: float = 0.0) -> complex:
    """floquet_exponent at one point, checked against the 40-digit oracle.

    Where log_scale is not 0, D is rebuilt from log |D|, so it carries a few
    ulp of log |D|; arccosh magnifies that by |coth w|, which is large only
    next to D = +-2.
    """
    w = complex(floquet_exponent(mantissa, log_scale))
    want = _mp_floquet_exponent(complex(mantissa), log_scale)
    cond = 1.0
    if want.real < 20.0:
        cond = max(1.0, abs(cmath.cosh(want)) / max(abs(cmath.sinh(want)), 1e-300))
    assert abs(w - want) <= 1e-15 * max(1.0, abs(want)) * cond
    return w


class TestFloquetExponent:
    def test_real_trace_within_two_is_a_pure_phase(self, rng):
        D = np.concatenate((np.linspace(-2.0, 2.0, 4001), rng.uniform(-2.0, 2.0, 2000)))
        w = floquet_exponent(D)
        # the real part is exactly +0.0, not a rounding residue
        assert np.all(w.real == 0.0) and not np.any(np.signbit(w.real))
        assert np.all((w.imag >= 0.0) & (w.imag <= math.pi))
        for d in D[::7]:
            _matches_oracle(d)

    def test_phase_within_one_ulp_at_log_scale_zero(self):
        # D is the mantissa itself, so the phase carries only the rounding
        # of arccos: within 1 ulp of the 40-digit value, next to |D| = 2 too
        import mpmath

        x = np.linspace(-0.99999, 0.99999, 2001)
        phase = floquet_exponent(2.0 * x).imag
        with mpmath.workdps(40):
            want = np.array([float(mpmath.acos(mpmath.mpf(v))) for v in x.tolist()])
        assert np.all(np.abs(phase - want) <= np.spacing(want))

    def test_log_scale_zero_elementwise(self):
        m = np.array([0.5, 0.5, -1.9999, -0.99995])
        logs = np.array([0.0, math.log(2.0), 0.0, math.log(2.0)])
        w = floquet_exponent(m, logs)
        assert w[0] == complex(floquet_exponent(0.5))
        assert w[2] == complex(floquet_exponent(-1.9999))
        for mi, li, wi in zip(m, logs, w):
            assert wi == _matches_oracle(mi, li)

    def test_band_edges(self):
        assert complex(floquet_exponent(2.0)) == 0j
        assert complex(floquet_exponent(-2.0)) == complex(0.0, math.pi)
        # the same D in scaled form: mantissa 0.5, scale 4
        assert complex(floquet_exponent(-0.5, math.log(4.0))) == complex(0.0, math.pi)

    @pytest.mark.parametrize("eps", [4.440892098500626e-16, 1e-12, 1e-6, 0.5])
    def test_just_outside_two(self, eps):
        for d, phase in ((2.0 + eps, 0.0), (-2.0 - eps, math.pi)):
            w = _matches_oracle(d)
            assert w.real > 0.0
            assert w.imag == phase

    def test_complex_traces(self, rng):
        for _ in range(300):
            m = complex(rng.normal(), rng.normal())
            m /= max(abs(m.real), abs(m.imag))
            _matches_oracle(m, float(rng.uniform(-5.0, 38.0)))

    def test_log_form_beyond_40(self):
        # 987/1597 at E = 5: log |D| is about 2300, far past the float range
        m, log_s = monodromy_scaled(am(987, 1597, 2.0, 0.0), 5.0)
        w = _matches_oracle(m.trace(), log_s)
        assert w.real > 2000.0 and w.imag in (0.0, math.pi)
        # either side of the switch at log |D| = 40
        for log_s in (39.5, 40.5):
            assert _matches_oracle(-1.0, log_s).imag == math.pi

    def test_real_and_complex_energies(self, rng):
        for _ in range(10):
            spec = OperatorSpec.almost_mathieu(random_reduced(rng, 30), 2.0, rng.uniform(0, 2 * math.pi))
            for z in (rng.uniform(-4.5, 4.5), complex(rng.uniform(-4.5, 4.5), rng.uniform(-1, 1))):
                m, log_s = monodromy_scaled(spec, z)
                _matches_oracle(m.trace(), log_s)

    def test_negative_zero_imaginary_part(self):
        # the trace of a real-energy monodromy may carry -0.0 as its
        # imaginary part; the phase still comes out in [0, pi]
        for d in (0.5, -1.5, -3.0, 3.0):
            w = complex(floquet_exponent(complex(d, -0.0)))
            assert w == complex(floquet_exponent(d))
            assert math.copysign(1.0, w.imag) > 0.0
        w = floquet_exponent(np.array([complex(0.5, -0.0), complex(-3.0, -0.0)]))
        assert w[0].imag == pytest.approx(math.acos(0.25), abs=1e-15)
        assert w[1].imag == math.pi
