import cmath
import math

import numpy as np
import pytest

from almost_mathieu.core import Mat2
from almost_mathieu.products import (
    NonHyperbolicError,
    _solve_u,
    align_phases,
    eigensystem_2x2,
    hypothesis_margins,
    product_growth,
    random_drift_chain,
)
from conftest import random_complex_mat
from oracles import reference_drift_chain


def diag_factor(gamma):
    return eigensystem_2x2(Mat2(math.exp(gamma), 0.0, 0.0, math.exp(-gamma)))


def real_sl2(rng, trace):
    """A random real det-1 matrix with the given trace."""
    a, b = rng.normal(size=2) * 2.0
    d = trace - a
    return Mat2(float(a), float(b), float((a * d - 1.0) / b), float(d))


def assert_matches_numpy_eig(f):
    """gamma, zeta and both eigenvectors (up to phase) against numpy.linalg.eig.

    The tolerance follows the conditioning: the eigenvalues e^{+-w} lie
    2 sinh(gamma) apart, so rounding in the entries moves gamma, zeta and
    the eigenvectors by about eps |T|^2 / sinh(gamma).
    """
    a = np.array([[f.T.a11, f.T.a12], [f.T.a21, f.T.a22]])
    ev, vecs = np.linalg.eig(a)
    i = int(np.argmax(np.abs(ev)))
    tol = 1e-14 * np.linalg.norm(a) ** 2 / math.sinh(f.gamma)
    assert abs(f.gamma - math.log(abs(ev[i]))) <= tol
    assert abs(cmath.exp(1j * f.zeta) - ev[i] / abs(ev[i])) <= tol
    for v, u in ((f.phi_plus, vecs[:, i]), (f.phi_minus, vecs[:, 1 - i])):
        v = np.array(v)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        # v lies on u's line: nothing is left after removing its u part
        assert np.linalg.norm(v - np.vdot(u, v) * u) <= tol


class TestEigensystem:
    def test_diagonal(self):
        f = diag_factor(1.0)
        assert f.gamma == pytest.approx(1.0, rel=1e-14)
        assert f.zeta == pytest.approx(0.0, abs=1e-14)
        assert f.phi_plus == pytest.approx((1.0, 0.0))
        assert f.phi_minus == pytest.approx((0.0, 1.0))

    def test_free_transfer_at_three(self):
        f = eigensystem_2x2(Mat2(3.0, -1.0, 1.0, 0.0))
        assert f.gamma == pytest.approx(math.acosh(1.5), rel=1e-12)
        for v in (f.phi_plus, f.phi_minus):
            assert abs(v[0].imag) < 1e-14 and abs(v[1].imag) < 1e-14

    def test_parabolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            eigensystem_2x2(Mat2(1.0, 1.0, 0.0, 1.0))

    def test_elliptic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            eigensystem_2x2(Mat2(0.5, -1.0, 1.0, 0.0))

    def test_bad_determinant_rejected(self):
        with pytest.raises(ValueError):
            eigensystem_2x2(Mat2(2.0, 0.0, 0.0, 1.0))

    def test_eigen_residuals(self, rng):
        for _ in range(50):
            chain = random_drift_chain(rng, 1, 0.5)
            f = eigensystem_2x2(chain[0].T)
            lam = cmath.exp(complex(f.gamma, f.zeta))
            for v, ev in ((f.phi_plus, lam), (f.phi_minus, 1.0 / lam)):
                out = f.T.apply(v)
                res = math.hypot(abs(out[0] - ev * v[0]), abs(out[1] - ev * v[1]))
                assert res <= 1e-10
            assert math.hypot(abs(f.phi_plus[0]), abs(f.phi_plus[1])) == pytest.approx(1.0, abs=1e-12)

    def test_complex_matches_numpy(self, rng):
        for _ in range(300):
            assert_matches_numpy_eig(eigensystem_2x2(random_complex_mat(rng, True)))

    def test_real_matches_numpy(self, rng):
        for trace in np.concatenate((rng.normal(size=100) * 8.0, -2.0 - rng.exponential(3.0, 100))):
            if abs(trace) > 2.0:
                f = eigensystem_2x2(real_sl2(rng, trace))
                assert f.zeta == (math.pi if trace < -2.0 else 0.0)
                assert_matches_numpy_eig(f)

    @pytest.mark.parametrize("side", [2.0, -2.0])
    def test_real_trace_next_to_two(self, side, rng):
        for offset in np.geomspace(1e-12, 1e-9, 40):
            trace = side + math.copysign(offset, side)
            f = eigensystem_2x2(real_sl2(rng, trace))
            assert f.gamma > 0.0 and f.zeta == (math.pi if side < 0.0 else 0.0)
            assert_matches_numpy_eig(f)

    def test_real_trace_inside_rejected(self, rng):
        for trace in np.linspace(-1.999999, 1.999999, 41):
            with pytest.raises(NonHyperbolicError):
                eigensystem_2x2(real_sl2(rng, trace))


class TestAlignPhases:
    def test_constant_chain_unchanged(self):
        f = diag_factor(0.8)
        out = align_phases([f, f, f])
        for g in out:
            assert g.phi_plus == pytest.approx(f.phi_plus)
            assert g.phi_minus == pytest.approx(f.phi_minus)

    def test_phase_twist_removed(self):
        f = eigensystem_2x2(Mat2(3.0, -1.0, 1.0, 0.0))
        tw = cmath.exp(1j * math.pi / 3)
        twisted = f.with_phases(tw, tw)
        out = align_phases([twisted, f])
        a_plus, _ = _solve_u(out[1], out[0].phi_plus)
        _, a_minus = _solve_u(out[1], out[0].phi_minus)
        assert a_plus.imag == pytest.approx(0.0, abs=1e-12)
        assert a_plus.real >= 0.0
        assert a_minus.imag == pytest.approx(0.0, abs=1e-12)
        assert a_minus.real >= 0.0

    def test_random_chain_all_diagonal_coeffs_nonnegative(self, rng):
        chain = random_drift_chain(rng, 10, 0.5)
        for j in range(len(chain) - 1):
            a_plus, _ = _solve_u(chain[j + 1], chain[j].phi_plus)
            _, a_minus = _solve_u(chain[j + 1], chain[j].phi_minus)
            assert a_plus.real >= 0.0 and abs(a_plus.imag) < 1e-10
            assert a_minus.real >= 0.0 and abs(a_minus.imag) < 1e-10

    def test_verify_chains_need_no_alignment(self):
        # the 200 chains of verify's growth-sandwich check at seed 7: every
        # diagonal coefficient a_j^+- is already real and positive, so
        # align_phases moves no eigenvector entry past rounding
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            chain = random_drift_chain(rng, n, 0.5)
            for cur, nxt in zip(chain, chain[1:]):
                a_plus, _ = _solve_u(nxt, cur.phi_plus)
                _, a_minus = _solve_u(nxt, cur.phi_minus)
                for a in (a_plus, a_minus):
                    assert abs(a.imag) <= 1e-14 * abs(a) and a.real > 0.0
            for f, g in zip(chain, align_phases(chain)):
                for u, v in zip(f.phi_plus + f.phi_minus, g.phi_plus + g.phi_minus):
                    assert abs(u - v) <= 1e-14


class TestHypothesisMargins:
    def test_constant_chain(self):
        f = diag_factor(1.0)
        for beta in (0.1, 0.5, 0.9):
            margins = hypothesis_margins([f, f, f], beta)
            assert margins == pytest.approx([beta * math.exp(-1.0)] * 3)

    def test_violent_drift_flagged(self):
        f = diag_factor(1.0)
        g = eigensystem_2x2(Mat2(0.0, -0.5, 2.0, 3.0))
        margins = hypothesis_margins([f, g], 0.5)
        assert margins[0] < 0.0

    def test_generated_chains_all_positive(self, rng):
        for _ in range(20):
            chain = random_drift_chain(rng, 30, 0.5)
            assert all(m > 0.0 for m in hypothesis_margins(chain, 0.5))


class TestProductGrowth:
    def test_diagonal_exact(self):
        gamma, beta, n = 0.7, 0.3, 25
        cert = product_growth([diag_factor(gamma)] * n, beta)
        assert cert.passed
        assert cert.norm_final_log == pytest.approx(n * gamma, abs=1e-12)
        assert cert.lower_log <= cert.norm_final_log <= cert.upper_log

    def test_single_factor(self, rng):
        for beta in (0.1, 0.5, 0.9):
            chain = random_drift_chain(rng, 1, beta)
            cert = product_growth(chain, beta)
            assert cert.passed
            assert cert.norm_final_log == pytest.approx(chain[0].gamma, abs=1e-10)

    def test_random_chains_sandwich_and_induction(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 100))
            chain = random_drift_chain(rng, n, 0.5)
            cert = product_growth(chain, 0.5)
            assert cert.passed, cert.fail_location
            assert cert.induction_ok
            assert cert.lower_chain_ok
            for a, b in zip(cert.A, cert.B):
                assert abs(b) <= 0.5 * abs(a) + 1e-12

    def test_recomposition_matches_direct_product(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 25))
            chain = random_drift_chain(rng, n, 0.5)
            if sum(f.gamma for f in chain) > 30:
                continue
            cert = product_growth(chain, 0.5)
            phi = chain[0].phi_plus
            prod = Mat2.identity()
            for f in chain:
                prod = f.T @ prod
            direct = prod.apply(phi)
            k = len(chain)
            last = chain[-1]
            scale = math.exp(cert.scale_log[k])
            recomposed = (
                scale * (cert.A[k] * last.phi_plus[0] + cert.B[k] * last.phi_minus[0]),
                scale * (cert.A[k] * last.phi_plus[1] + cert.B[k] * last.phi_minus[1]),
            )
            norm = math.hypot(abs(direct[0]), abs(direct[1]))
            err = math.hypot(
                abs(direct[0] - recomposed[0]), abs(direct[1] - recomposed[1])
            )
            assert err <= 1e-8 * norm

    def test_huge_sum_gamma_survives(self, rng):
        chain = random_drift_chain(rng, 800, 0.5, gamma_range=(1.2, 1.5))
        cert = product_growth(chain, 0.5)
        assert cert.passed
        assert cert.sum_gamma > 900.0
        assert math.isfinite(cert.norm_final_log)

    def test_violated_hypothesis_fails_with_location(self):
        f = diag_factor(1.0)
        g = eigensystem_2x2(Mat2(0.0, -0.5, 2.0, 3.0))
        cert = product_growth([f, f, g, g], 0.5)
        assert not cert.passed
        assert cert.verdict == "fail"
        assert cert.fail_location == 2

    def test_lower_chain_bound(self, rng):
        for _ in range(20):
            chain = random_drift_chain(rng, 50, 0.5)
            cert = product_growth(chain, 0.5)
            k = len(chain)
            log_a = cert.scale_log[k] + math.log(abs(cert.A[k]))
            assert log_a >= (1.0 - 0.5) * cert.sum_gamma - 1e-9


def factor_bits(f):
    """Every field of a factor as exact hex strings, signed zeros told apart."""
    numbers = (f.T.a11, f.T.a12, f.T.a21, f.T.a22, f.gamma, f.zeta, *f.phi_plus, *f.phi_minus)
    return [(complex(x).real.hex(), complex(x).imag.hex()) for x in numbers]


class TestDriftChainBitwise:
    @pytest.mark.parametrize("gamma_range", [None, (0.05, 3.0)])
    def test_matches_reference_chain(self, gamma_range):
        extra = {} if gamma_range is None else {"gamma_range": gamma_range}
        for seed in range(50):
            n = 1 + (37 * seed) % 100
            beta = (0.1, 0.5, 0.9)[seed % 3]
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_drift_chain(rng_a, n, beta, **extra)
            want = reference_drift_chain(rng_b, n, beta, **extra)
            assert len(got) == len(want) == n
            for f, g in zip(got, want):
                assert factor_bits(f) == factor_bits(g)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
