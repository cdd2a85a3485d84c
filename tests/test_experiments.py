import math

import numpy as np
import pytest

from almost_mathieu.bands import SpectralSet, spectral_union_S
from almost_mathieu.core import reduce_fraction
from almost_mathieu.experiments import (
    BUTTERFLY_QMAX_GUARD,
    CoverFamily,
    CoverLevel,
    approximant_family,
    box_counting_dimension,
    butterfly_generate,
    cover_dimension_bound,
    measure_decay,
)

HALF = reduce_fraction(1, 2)
ZERO = reduce_fraction(0, 1)


def totient(q):
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


class TestApproximantFamily:
    def test_half_children(self):
        fam = approximant_family(HALF, 3, 6)
        assert [(f.p, f.q) for f in fam] == [(3, 7), (4, 9), (5, 11), (6, 13)]

    def test_zero_children(self):
        fam = approximant_family(ZERO, 2, 4)
        assert [(f.p, f.q) for f in fam] == [(1, 2), (1, 3), (1, 4)]

    def test_two_fifths_children_are_reduced(self):
        for f in approximant_family(reduce_fraction(2, 5), 2, 12):
            assert math.gcd(f.p, f.q) == 1
            assert abs(f.value - 0.4) < 1.0 / (2 * 25)


class TestMeasureDecay:
    def test_half_family_decays(self):
        fam = approximant_family(HALF, 3, 15)
        rep = measure_decay(HALF, 0.5, fam)
        assert len(rep.rows) == 13
        assert all(r.measure >= 0.0 for r in rep.rows)
        assert rep.fitted_rate < 0.0
        assert rep.r_squared > 0.5

    def test_free_base_large_delta(self):
        fam = approximant_family(ZERO, 3, 10)
        rep = measure_decay(ZERO, 3.9, fam)
        # J_delta barely clips [-4, 4]; only band tips survive
        assert all(r.measure < 0.8 for r in rep.rows)

    def test_degenerate_approximant_flagged(self):
        rep = measure_decay(HALF, 0.5, [HALF])
        assert not rep.rows[0].gate_ok

    def test_exact_and_deterministic(self):
        fam = approximant_family(HALF, 3, 8)
        rep_a = measure_decay(HALF, 0.5, fam)
        rep_b = measure_decay(HALF, 0.5, list(reversed(fam)))
        for ra, rb in zip(rep_a.rows, rep_b.rows):
            assert ra.measure == rb.measure

    def test_collapsed_bands_counted(self):
        # at 100/201 the edge solve returns 151 of the 201 bands of S at
        # zero width, and their measure is missing from the row's
        rep = measure_decay(HALF, 0.5, approximant_family(HALF, 100, 100))
        s = spectral_union_S(reduce_fraction(100, 201), 2.0)
        lo, hi = s.edges.T
        assert rep.rows[0].collapsed_bands == int(np.count_nonzero(hi == lo)) == 151
        rep = measure_decay(HALF, 0.5, approximant_family(HALF, 3, 4))
        assert [r.collapsed_bands for r in rep.rows] == [0, 0]


class TestBoxCounting:
    def test_unit_interval(self):
        s = SpectralSet.from_intervals([(0.0, 1.0)])
        rep = box_counting_dimension(s, [2.0**-k for k in range(1, 11)])
        assert rep.estimate == pytest.approx(1.0, abs=0.02)

    def test_finite_point_set(self):
        pts = [0.1, 0.37, 0.62, 0.9]
        s = SpectralSet.from_intervals([(p, p) for p in pts], merge_overlaps=False)
        rep = box_counting_dimension(s, [2.0**-k for k in range(3, 13)])
        assert abs(rep.estimate) <= 0.05

    def test_scale_validation(self):
        s = SpectralSet.from_intervals([(0.0, 1.0)])
        with pytest.raises(ValueError):
            box_counting_dimension(s, [0.5])
        with pytest.raises(ValueError):
            box_counting_dimension(s, [0.25, 0.5])
        with pytest.raises(ValueError):
            box_counting_dimension(s, [0.5, 1e-15])

    def test_cantor_like_midscale(self):
        # q = 55 critical spectrum: box dimension lands well below 1
        s = spectral_union_S(reduce_fraction(34, 55), 2.0)
        rep = box_counting_dimension(s, list(np.geomspace(1e-4, 1e-1, 10)[::-1]))
        assert 0.2 <= rep.estimate <= 0.8


class TestCoverBound:
    def _family(self, n_levels, beta1, beta2, c1=1.0, c2=1.0, rng=None):
        rng = rng or np.random.default_rng(0)
        levels = []
        for n in range(1, n_levels + 1):
            q_n = 8 * 2**n
            qt_n = 12 * 2**n
            m1 = 0.9 * c1 / q_n**beta1
            m2 = 0.9 * c2 / qt_n**beta2
            f1 = []
            x = 0.0
            for w in rng.dirichlet(np.ones(q_n)) * m1:
                f1.append((x, x + w))
                x += w + 0.01
            f2 = []
            x = 100.0
            for w in rng.dirichlet(np.ones(qt_n)) * m2:
                f2.append((x, x + w))
                x += w + 0.01
            levels.append(CoverLevel(n, q_n, qt_n, tuple(f1), tuple(f2)))
        return CoverFamily(tuple(levels), c1, c2, beta1, beta2)

    def test_equal_betas(self):
        cf = self._family(3, 1.0, 1.0)
        rep = cover_dimension_bound(cf)
        assert rep.bound == pytest.approx(0.5)

    def test_max_rule(self):
        cf = self._family(3, 1.0, 3.0)
        assert cover_dimension_bound(cf).bound == pytest.approx(0.5)

    def test_jensen_step_holds(self):
        cf = self._family(4, 0.5, 2.0)
        rep = cover_dimension_bound(cf)
        for lhs, rhs in zip(rep.jensen_lhs, rep.jensen_rhs):
            assert lhs <= rhs * (1 + 1e-12)
            assert rhs <= rep.c_t * (1 + 1e-12)

    def test_violated_hypothesis_names_level(self):
        cf = self._family(3, 1.0, 1.0)
        bad = CoverLevel(
            2,
            cf.levels[1].q_n,
            cf.levels[1].qt_n,
            ((0.0, 10.0),),
            cf.levels[1].family2,
        )
        broken = CoverFamily(
            (cf.levels[0], bad, cf.levels[2]), cf.c1, cf.c2, cf.beta1, cf.beta2
        )
        with pytest.raises(ValueError, match="level 2.*family 1"):
            cover_dimension_bound(broken)

    def test_inverted_interval_rejected(self):
        cf = self._family(3, 1.0, 1.0)
        lev = cf.levels[1]
        inverted = ((101.0, 100.5),) + lev.family2[1:]
        bad = CoverLevel(lev.n, lev.q_n, lev.qt_n, lev.family1, inverted)
        broken = CoverFamily(
            (cf.levels[0], bad, cf.levels[2]), cf.c1, cf.c2, cf.beta1, cf.beta2
        )
        with pytest.raises(ValueError, match="level 2: interval .*hi < lo"):
            cover_dimension_bound(broken)

    def test_zero_dim_construction_levels(self):
        # synthetic covers shaped like the frequency-construction argument:
        # q_{j+1} intervals of total measure ~ q_{j+1}^{-(j-1)/2} and q_j of
        # measure ~ q_j^{-(j-1)}, for levels j = 1, 3
        rng = np.random.default_rng(5)
        for j, (qj, qj1) in ((1, (8, 300)), (3, (300, 27_000_000))):
            beta1 = (j - 1) / 2.0
            beta2 = float(j - 1)
            size1 = min(qj1, 2000)
            size2 = min(qj, 2000)
            m1 = 0.9 / qj1**beta1
            m2 = 0.9 / qj**beta2
            lev = []
            for n, scale in ((1, 1.0), (2, 2.0)):
                f1, x = [], 0.0
                for w in rng.dirichlet(np.ones(size1)) * m1 / scale**beta1:
                    f1.append((x, x + w))
                    x += w + 1e-5
                f2, x = [], 1e6
                for w in rng.dirichlet(np.ones(size2)) * m2 / scale**beta2:
                    f2.append((x, x + w))
                    x += w + 1e-5
                lev.append(
                    CoverLevel(n, int(qj1 * scale), int(qj * scale), tuple(f1), tuple(f2))
                )
            cf = CoverFamily(tuple(lev), 1.0, 1.0, beta1, beta2)
            rep = cover_dimension_bound(cf)
            assert rep.bound == pytest.approx(1.0 / (1.0 + (j - 1) / 2.0))


class TestButterfly:
    def test_qmax_one(self):
        ds = butterfly_generate(1, 2.0)
        assert ds.rows == ((0, 1, 1, pytest.approx(-4.0), pytest.approx(4.0)),)

    def test_qmax_two_adds_half(self):
        ds = butterfly_generate(2, 2.0)
        assert len(ds.rows) == 3
        r8 = 2.0 * math.sqrt(2.0)
        half_rows = [r for r in ds.rows if r[1] == 2]
        assert half_rows[0][3] == pytest.approx(-r8, abs=1e-9)
        assert half_rows[1][4] == pytest.approx(r8, abs=1e-9)

    def test_row_count_matches_totient_sum(self):
        qmax = 20
        ds = butterfly_generate(qmax, 2.0)
        want = 1 + sum(q * totient(q) for q in range(2, qmax + 1))
        assert len(ds.rows) == want
        assert not ds.failures

    def test_guard(self):
        with pytest.raises(ValueError):
            butterfly_generate(BUTTERFLY_QMAX_GUARD + 1, 2.0)

    def test_union_needs_positive_coupling(self):
        with pytest.raises(ValueError, match="coupling must be positive"):
            butterfly_generate(5, 0.0)
        assert len(butterfly_generate(2, 0.0, theta_mode="fixed-theta").rows) == 3

    def test_only_root_finding_errors_are_cell_failures(self, monkeypatch):
        import almost_mathieu.experiments as experiments

        def broken(alpha, lam):
            raise TypeError("not a cell failure")

        monkeypatch.setattr(experiments, "spectral_union_S", broken)
        with pytest.raises(TypeError, match="not a cell failure"):
            butterfly_generate(3, 2.0)

    def test_fixed_theta_mode(self):
        ds = butterfly_generate(3, 2.0, theta_mode="fixed-theta", theta=0.0)
        assert len(ds.rows) == 1 + 2 * 1 + 3 * 2


class TestKnownLimits:
    def test_lambda_one_measure_limit(self):
        # measure of S approaches |4 - 2 lam| = 2 along golden convergents
        s = spectral_union_S(reduce_fraction(144, 233), 1.0)
        assert abs(s.measure - 2.0) <= 0.2

    def test_critical_measure_trend_decreasing(self):
        # F_n / F_{n+1} for n = 5..16 with F_1 = 1, F_2 = 2
        fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
        meas = []
        for fn, fn1 in zip(fib[4:], fib[5:]):
            meas.append(spectral_union_S(reduce_fraction(fn, fn1), 2.0).measure)
        assert all(b <= a + 1e-6 for a, b in zip(meas, meas[1:]))
