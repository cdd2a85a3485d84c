import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import almost_mathieu.bands as bands_module
from almost_mathieu.bands import (
    RootFindingError,
    SpectralSet,
    band_edge_bound_check,
    band_parity,
    ids_profile,
    jdelta_sets,
    jdelta_sweep,
    last_wilkinson_sum,
    sminus_points,
    spectral_union_S,
    spectrum_bands,
)
from almost_mathieu.core import (
    OperatorSpec,
    delta_spec,
    discriminant_and_derivative_grid,
    discriminant_grid,
    reduce_fraction,
)
from almost_mathieu.experiments import butterfly_generate
from conftest import plain_discriminant, random_reduced
from oracles import (
    brute_force_zeros,
    dense_floquet_zeros,
    eig_band_edges,
    exact_discriminant,
    fixed_bisect,
    jdelta_edges,
    mp_critical_offset,
    mp_discriminant,
    mp_edge_offset,
    sminus_edges,
    union_s_edges,
)

from fractions import Fraction

HALF = reduce_fraction(1, 2)
THIRD = reduce_fraction(1, 3)
ZERO = reduce_fraction(0, 1)


def am(p, q, lam, theta):
    return OperatorSpec.almost_mathieu(reduce_fraction(p, q), lam, theta)


class TestSpectrumBands:
    def test_touching_central_bands(self):
        s = spectrum_bands(am(1, 2, 2.0, math.pi / 2))
        assert len(s) == 2
        np.testing.assert_allclose(
            s.edges.ravel(),
            [-2.0, 0.0, 0.0, 2.0],
            atol=1e-10,
        )

    def test_two_separated_bands(self):
        s = spectrum_bands(am(1, 2, 2.0, 0.0))
        r8 = 2.0 * math.sqrt(2.0)
        np.testing.assert_allclose(
            s.edges.ravel(),
            [-r8, -2.0, 2.0, r8],
            atol=1e-10,
        )

    def test_free_operator(self):
        s = spectrum_bands(am(0, 1, 2.0, math.pi / 2))
        assert len(s) == 1
        np.testing.assert_allclose(s.edges[0], [-2, 2], atol=1e-12)

    def test_explicit_free_period_two(self):
        s = spectrum_bands(OperatorSpec.explicit([0.0, 0.0]))
        np.testing.assert_allclose(
            s.edges.T.ravel(),
            [-2.0, 0.0, 0.0, 2.0],
            atol=1e-10,
        )

    def test_exactly_q_bands_and_edge_residuals(self, rng):
        for _ in range(200):
            r = random_reduced(rng, 50)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            theta = rng.uniform(0, 2 * math.pi)
            spec = OperatorSpec.almost_mathieu(r, lam, theta)
            s = spectrum_bands(spec)
            assert len(s) == r.q
            hull = 2.0 + lam + 1e-9
            prev_hi = -math.inf
            for lo, hi in s.edges.tolist():
                assert -hull <= lo <= hi <= hull
                assert lo >= prev_hi - 1e-9
                prev_hi = hi

    def test_edges_within_1e10_of_true_edges(self, rng):
        # |D(edge)| = 2 within 1e-10 read as edge placement: the float64
        # evaluation noise of D near gap spikes makes the residual itself
        # unmeasurable in doubles, so the check runs at 40 digits
        for _ in range(25):
            r = random_reduced(rng, 40)
            lam = float(rng.choice([1.0, 2.0, 3.0]))
            spec = OperatorSpec.almost_mathieu(r, lam, rng.uniform(0, 2 * math.pi))
            s = spectrum_bands(spec)
            for E in s.edges.ravel().tolist():
                d = plain_discriminant(spec, E)
                target = 2.0 if d.real > 0 else -2.0
                assert mp_edge_offset(spec, E, target) <= 1e-10

    def test_matches_eigenvalue_oracle(self, rng):
        for _ in range(25):
            r = random_reduced(rng, 40)
            spec = OperatorSpec.almost_mathieu(
                r, float(rng.choice([1.0, 2.0, 3.0])), rng.uniform(0, 2 * math.pi)
            )
            s = spectrum_bands(spec)
            mine = np.sort(s.edges.ravel())
            oracle = eig_band_edges(spec)
            np.testing.assert_allclose(mine, oracle, rtol=0, atol=1e-12)

    # fixed thetas whose touching edges once missed by up to 7.4e-5 (the
    # first three) or lost bands and raised RootFindingError (the last two)
    @pytest.mark.parametrize(
        "p,q,lam,theta",
        [
            (4, 51, 1.0, 0.29496916787078636),
            (31, 33, 1.0, 2.4028256679265296),
            (5, 53, 1.0, 2.697277959873883),
            (3, 55, 2.0, 3.189665801522499),
            (55, 58, 2.0, 3.3537466245204013),
        ],
    )
    def test_touching_edges_match_eigenvalue_oracle(self, p, q, lam, theta):
        spec = am(p, q, lam, theta)
        s = spectrum_bands(spec)
        assert len(s) == q
        mine = np.sort(s.edges.ravel())
        np.testing.assert_allclose(mine, eig_band_edges(spec), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            am(0, 1, 2.0, 0.3),
            am(1, 2, 2.0, 0.0),
            am(1, 2, 1.0, 1.1),
            OperatorSpec.explicit([0.7]),
            OperatorSpec.explicit([0.3, -1.2]),
            OperatorSpec.explicit([0.7, -1.3, 0.0, 2.5, -0.2, 1.1, -2.0]),
            am(3, 7, 1.0, 0.4),
            am(5, 13, 2.0, 2.0),
            am(8, 21, 3.0, 5.0),
            am(13, 34, 2.0, 0.0),
        ],
        ids=lambda spec: (
            f"{spec.alpha.p}-{spec.alpha.q}-lam{spec.lam:g}"
            if spec.is_almost_mathieu
            else f"explicit-q{spec.period}"
        ),
    )
    def test_monotonicity_is_the_sign_of_the_derivative(self, spec):
        # band i of q has parity (-1)^(q - i); D' read at the band
        # midpoints by the transfer recurrence must carry that sign
        s = spectrum_bands(spec)
        q = spec.period
        lo, hi = s.edges.T
        _, dtr, _ = discriminant_and_derivative_grid(spec, 0.5 * (lo + hi))
        assert band_parity(q).tolist() == [(-1) ** (q - i) for i in range(1, q + 1)]
        assert np.array_equal(np.sign(dtr), band_parity(q))

    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
    def test_fixed_theta_butterfly_matches_eigenvalue_oracle(self, lam):
        # every cell at theta = 0 up to q = 30: q bands, no failed cell, and
        # edges within 1e-12 of dense Floquet eigenvalues
        ds = butterfly_generate(30, lam, "fixed-theta", 0.0)
        assert ds.failures == ()
        cells = {}
        for p, q, _, lo, hi in ds.rows:
            cells.setdefault((p, q), []).extend((lo, hi))
        assert len(cells) == sum(1 for q in range(1, 31) for p in range(q) if math.gcd(p, q) == 1)
        for (p, q), edges in cells.items():
            assert len(edges) == 2 * q
            np.testing.assert_allclose(
                np.sort(edges), eig_band_edges(am(p, q, lam, 0.0)), rtol=0, atol=1e-12
            )

    def test_delta_parity(self, rng):
        # Delta(-E) = (-1)^q Delta(E); exact for ideal cosines, so the
        # Fraction-arithmetic oracle sees only the eps-level rounding of the
        # potential samples
        for _ in range(8):
            r = random_reduced(rng, 8)
            spec = OperatorSpec.almost_mathieu(r, 2.0, math.pi / (2 * r.q))
            E = Fraction(rng.integers(-300, 300).item(), 100)
            sign = (-1) ** r.q
            lhs = exact_discriminant(spec, -E)
            rhs = sign * exact_discriminant(spec, E)
            assert abs(float(lhs - rhs)) <= 1e-12 * (1.0 + abs(float(lhs)))


# the sets of Delta that the sublevel solve builds, by name
SUBLEVEL_SETS = {
    "S-lam2": lambda r: spectral_union_S(r, 2.0),
    "S-lam3": lambda r: spectral_union_S(r, 3.0),
    "Sminus-lam1.3": lambda r: sminus_points(r, 1.3),
    "J-0.5": lambda r: jdelta_sets(r, 0.5).complement,
    "J-4": lambda r: jdelta_sets(r, 4.0).complement,
    "J-6": lambda r: jdelta_sets(r, 6.0).complement,
}

# the same sets with their eigenvalue edges, where those are known
ORACLE_SETS = {
    "S-lam2": (SUBLEVEL_SETS["S-lam2"], lambda p, q: union_s_edges(p, q, 2.0)),
    "Sminus-lam1.3": (SUBLEVEL_SETS["Sminus-lam1.3"], lambda p, q: sminus_edges(p, q, 1.3)),
    "J-0.5": (SUBLEVEL_SETS["J-0.5"], lambda p, q: jdelta_edges(p, q, 0.5)),
    "J-4": (SUBLEVEL_SETS["J-4"], lambda p, q: jdelta_edges(p, q, 4.0)),
}

# odd-q cells of `amo butterfly --qmax 25 --lambda 2` whose edge next to a
# real gap of 2.5e-10 to 2.6e-7 was off by more than 1e-10 while the upper
# half of S was bisected too
FORMER_BUTTERFLY_FAILURES = [
    (2, 17), (15, 17), (2, 19), (17, 19), (2, 21), (19, 21), (2, 23), (21, 23), (2, 25),
]


def assert_within_readme_bound(s: SpectralSet, ref: np.ndarray, cell) -> None:
    """Every band of ``s`` within 1e-10 of ``ref``, or 1e-8 on a band of ``ref`` narrower than 1e-8."""
    tol = np.where(ref[:, 1] - ref[:, 0] >= 1e-8, 1e-10, 1e-8)
    err = np.abs(s.edges - ref).max(axis=1)
    assert np.all(err <= tol), (cell, err.max())


class TestReflection:
    """The sublevel sets are solved on E <= 0 and reflected."""

    @pytest.mark.parametrize("name", SUBLEVEL_SETS)
    def test_exactly_symmetric(self, name, rng):
        # edge k is 0.0 - edge 2q - 1 - k bit for bit, so an edge at 0 is
        # +0.0; q = 1 and 2 and random odd and even q
        cells = [ZERO, HALF] + [random_reduced(rng, 40) for _ in range(12)]
        assert {r.q % 2 for r in cells[2:]} == {0, 1}
        for r in cells:
            e = SUBLEVEL_SETS[name](r).edges.ravel()
            assert np.array_equal(e.view(np.int64), (0.0 - e[::-1]).view(np.int64)), r

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_edges_match_eigenvalues(self, name):
        # every reduced p/q with q <= 25; the upper half of each set is all
        # reflections, so this checks them against edges found independently
        get, oracle = ORACLE_SETS[name]
        for q in range(1, 26):
            for p in range(q):
                if math.gcd(p, q) == 1:
                    assert_within_readme_bound(get(reduce_fraction(p, q)), oracle(p, q), (p, q))

    @pytest.mark.parametrize(
        "p,q", FORMER_BUTTERFLY_FAILURES, ids=[f"{p}-{q}" for p, q in FORMER_BUTTERFLY_FAILURES]
    )
    def test_former_butterfly_failures(self, p, q):
        s = spectral_union_S(reduce_fraction(p, q), 2.0)
        assert_within_readme_bound(s, union_s_edges(p, q, 2.0), (p, q))


class TestSpectralUnion:
    def test_no_overflow_warning_at_233_377_lam3(self):
        # the saturated outer readings of D (about 1e304) meet thresholds of
        # about 1e66 here; deciding a crossing must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = spectral_union_S(reduce_fraction(233, 377), 3.0)
        assert len(s) == 377

    def test_thouless_constant_at_fibonacci_ratios(self):
        # q |S(p/q, 2)| tends to 32 G / pi (Thouless, PRB 28, 1983), from
        # either side: q times the gap reads 0.220, 0.031, 0.182, 0.091 and
        # 0.012 here, so only the size of the gap is bounded
        limit = 32.0 * float(mpmath.catalan) / math.pi
        for p, q in ((144, 233), (233, 377), (377, 610), (610, 987), (987, 1597)):
            s = spectral_union_S(reduce_fraction(p, q), 2.0)
            assert abs(q * s.measure - limit) <= 0.5 / q, (p, q, q * s.measure)

    def test_half_critical(self):
        s = spectral_union_S(HALF, 2.0)
        r8 = 2.0 * math.sqrt(2.0)
        assert s.edges[0, 0] == pytest.approx(-r8, abs=1e-10)
        assert s.edges[-1, 1] == pytest.approx(r8, abs=1e-10)
        assert s.measure == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)

    def test_free_union(self):
        s = spectral_union_S(ZERO, 2.0)
        np.testing.assert_allclose(s.edges[0], [-4, 4], atol=1e-12)

    def test_half_lambda_one(self):
        # Delta_{1/2,1}(E) = E^2 - 5/2 by the 2x2 product, threshold 5/2,
        # so S = [-sqrt5, sqrt5] as two bands touching at 0
        s = spectral_union_S(HALF, 1.0)
        r5 = math.sqrt(5.0)
        assert len(s) == 2
        np.testing.assert_allclose(
            s.edges.ravel(),
            [-r5, 0.0, 0.0, r5],
            atol=1e-10,
        )
        assert s.measure == pytest.approx(2.0 * r5, abs=1e-9)

    def test_inclusion_chain(self, rng):
        for _ in range(8):
            r = random_reduced(rng, 16)
            lam = 2.0
            union = spectral_union_S(r, lam)
            zeros = sminus_points(r, lam)
            for _ in range(20):
                theta = rng.uniform(0, 2 * math.pi)
                sigma = spectrum_bands(OperatorSpec.almost_mathieu(r, lam, theta))
                for E in zeros.tolist():
                    assert sigma.distance(E) <= 1e-8
                for lo, hi in sigma.edges.tolist():
                    for E in (lo, 0.5 * (lo + hi), hi):
                        assert union.distance(E) <= 1e-8


    # cells whose union set once came back with fewer than q bands or
    # raised RootFindingError, and (last five) cells whose top two bands
    # once showed a gap of up to 2.1e-5 where they touch
    @pytest.mark.parametrize(
        "p,q,lam",
        [
            pytest.param(p, q, lam, id=f"{p}-{q}" if lam == 2.0 else f"{p}-{q}-lam{lam:g}")
            for p, q, lam in [
                *[(p, q, 2.0) for p, q in [(49, 52), (2, 53), (50, 53), (51, 53), (2, 55),
                                           (52, 55), (53, 55), (2, 57), (55, 57), (57, 59)]],
                *[(p, q, 3.0) for p, q in [(2, 35), (33, 35), (2, 37), (35, 37), (2, 39),
                                           (37, 39), (43, 45), (2, 47), (45, 47), (2, 49),
                                           (47, 49), (2, 51), (49, 51), (2, 53), (50, 53),
                                           (51, 53), (2, 55), (3, 55), (53, 55), (2, 57),
                                           (55, 57), (3, 58), (55, 58), (2, 59), (3, 59),
                                           (56, 59), (57, 59)]],
                *[(p, q, 2.0) for p, q in [(2, 21), (2, 23), (21, 23), (2, 25), (23, 25)]],
            ]
        ],
    )
    def test_q_bands_or_root_finding_error(self, p, q, lam):
        s = spectral_union_S(reduce_fraction(p, q), lam)
        assert len(s) == q
        np.testing.assert_allclose(
            np.array(s.intervals()), union_s_edges(p, q, lam), rtol=0, atol=2e-8
        )

    def test_missing_bands_raise(self, monkeypatch):
        sublevel = bands_module._sublevel_bands

        def one_band_short(spec, thr):
            s = sublevel(spec, thr)
            return SpectralSet(s.edges[:-1])

        monkeypatch.setattr(bands_module, "_sublevel_bands", one_band_short)
        with pytest.raises(RootFindingError, match="2 bands, expected 3"):
            spectral_union_S(reduce_fraction(1, 3), 2.0)


def count_grid_work(monkeypatch) -> list[int]:
    """Energy-steps of every grid call the band code makes from now on."""
    steps = []
    for name in ("discriminant_grid", "discriminant_and_derivative_grid"):
        grid = getattr(bands_module, name)

        def counted(spec, energies, grid=grid):
            steps.append(spec.period * np.size(energies))
            return grid(spec, energies)

        monkeypatch.setattr(bands_module, name, counted)
    return steps


# the smallest batch size for each block depth 9, 8, ..., 1, plus larger ones
BATCH_SIZES = (1, 2, 3, 5, 9, 17, 35, 40, 74, 300, 1000)
# the largest batch that the tree takes from its first call (3 n <= 512);
# larger ones take one ITP point a bracket until this few are live
TREE_BATCH = bands_module._BLOCK_ENERGIES // 3


class TestVectorBisect:
    """Tree batches give the brackets of halving each to 1e-10; ITP batches keep the bracket
    contract within one call more than bisection."""

    def check(self, f, lo, hi, targets):
        # a batch the tree takes whole: bitwise the brackets of halving each
        # on its own, and no residual, since no ITP point is placed
        assert len(lo) <= TREE_BATCH
        got = bands_module._vector_bisect(f, lo, hi, targets, f(lo) - targets, f(hi) - targets)
        want = fixed_bisect(f, lo, hi, targets)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert np.isnan(got[2]).all() and np.isnan(got[3]).all()
        return got

    def check_itp(self, f, lo, hi, targets):
        # a batch that starts with ITP points; returns the brackets, their
        # residuals and the sizes of the calls of f
        assert len(lo) > TREE_BATCH
        calls = []

        def counted(E):
            calls.append(np.size(E))
            return f(E)

        r_lo, r_hi = f(lo) - targets, f(hi) - targets
        got = bands_module._vector_bisect(counted, lo, hi, targets, r_lo, r_hi)
        got_lo, got_hi, got_r_lo, got_r_hi = got
        # at most 1e-10 wide, or two neighbouring floats (from |E| = 2^19 on)
        assert np.all((got_hi - got_lo <= 1e-10) | ~(np.nextafter(got_lo, np.inf) < got_hi))
        assert np.all((lo <= got_lo) & (got_hi <= hi))
        # the sign change kept: f - target keeps its sign at the lower end and
        # has another at the upper end
        end_lo, end_hi = f(got_lo) - targets, f(got_hi) - targets
        change = np.sign(r_lo) * np.sign(r_hi) < 0
        assert np.array_equal(np.sign(end_lo[change]), np.sign(r_lo[change]))
        assert np.all(np.sign(end_hi[change]) != np.sign(r_lo[change]))
        # a residual, where one comes back, is bitwise f - target at that end
        for got_r, end in ((got_r_lo, end_lo), (got_r_hi, end_hi)):
            read = ~np.isnan(got_r)
            assert got_r[read].tobytes() == end[read].tobytes()
        # no bracket past its ITP limit, ceil(log2(w_0 / 1e-10)) + 1 calls
        wide = hi - lo > 1e-10
        assert len(calls) <= (np.ceil(np.log2((hi - lo)[wide] / 1e-10)) + 1).max(initial=0)
        return got, calls

    def test_random_brackets(self, rng):
        spec = am(3, 8, 2.0, math.pi / 16)
        f = lambda E: bands_module._d_values(spec, E)
        lo = rng.uniform(-4.0, 0.0, TREE_BATCH)
        hi = lo + 10.0 ** rng.uniform(-15.0, 0.5, TREE_BATCH)
        got_lo, got_hi, _, _ = self.check(f, lo, hi, rng.uniform(-3.0, 3.0, TREE_BATCH))
        assert np.all(got_hi - got_lo <= 1e-10)
        assert np.all((lo <= got_lo) & (got_hi <= hi))

    def test_random_brackets_itp(self, rng):
        # 1000 brackets of D, with and without a sign change: every end an
        # ITP point placed comes back with its residual
        spec = am(3, 8, 2.0, math.pi / 16)
        f = lambda E: bands_module._d_values(spec, E)
        lo = rng.uniform(-4.0, 0.0, 1000)
        hi = lo + 10.0 ** rng.uniform(-15.0, 0.5, 1000)
        (got_lo, got_hi, got_r_lo, got_r_hi), calls = self.check_itp(
            f, lo, hi, rng.uniform(-3.0, 3.0, 1000)
        )
        assert np.all(got_hi - got_lo <= 1e-10)
        assert calls[0] == np.count_nonzero(hi - lo > 1e-10)
        assert np.count_nonzero(~np.isnan(got_r_lo) | ~np.isnan(got_r_hi)) > 500

    def test_block_depths(self):
        depths = [bands_module._block_depth(n, 60) for n in BATCH_SIZES]
        assert depths == [9, 8, 7, 6, 5, 4, 3, 3, 2, 1, 1]
        for n in BATCH_SIZES:
            d = bands_module._block_depth(n, 60)
            assert d == 1 or n * (2**d - 1) <= bands_module._BLOCK_ENERGIES
            assert n * (2 ** (d + 1) - 1) > bands_module._BLOCK_ENERGIES
        # never past the halvings still to do
        assert [bands_module._block_depth(1, left) for left in (1, 2, 6, 9)] == [1, 2, 6, 9]

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_every_block_depth(self, n):
        rng = np.random.default_rng(n)
        spec = am(5, 12, 2.0, 0.3)
        f = lambda E: bands_module._d_values(spec, E)
        lo = rng.uniform(-4.0, 0.0, n)
        hi = lo + 10.0 ** rng.uniform(-12.0, 0.6, n)
        (self.check if n <= TREE_BATCH else self.check_itp)(f, lo, hi, rng.uniform(-2.5, 2.5, n))

    def test_spectral_set_brackets(self):
        # brackets between consecutive zeros of Delta, with and without a
        # crossing of the target
        spec = am(13, 21, 2.0, math.pi / 42)
        f = lambda E: bands_module._d_values(spec, E)
        zeros = bands_module._band_zeros(spec)
        for targets in (np.full(20, 2.0), np.full(20, -2.0), np.zeros(20)):
            self.check(f, zeros[:-1], zeros[1:], targets)

    # a root at a bracket end (f(lo) = 0), no sign change, one ulp, zero
    # width, f returning NaN, signed zeros, and several roots
    EDGE_F = staticmethod(lambda E: np.where(E > 0.5, np.nan, E**3 - E))
    EDGE_LO = np.array([-1.5, 0.0, 2.0, 0.3, 0.3, 0.2, -0.0, -2.0])
    EDGE_HI = np.array([-0.5, 0.5, 3.0, np.nextafter(0.3, 1.0), 0.3, 0.9, 0.0, 2.0])

    def test_edge_cases(self):
        self.check(self.EDGE_F, self.EDGE_LO, self.EDGE_HI, np.zeros(8))

    def test_edge_cases_itp(self):
        # the same brackets 25 times over: where f is NaN at an end or has
        # no sign change the ITP point is the midpoint, so those brackets are
        # bitwise those of halving, and the brackets that take no point are
        # returned as given, signed zeros included; the root at -1 stays in
        # its bracket and the root at the lower end 0 is that bracket's end
        f, lo, hi = self.EDGE_F, np.tile(self.EDGE_LO, 25), np.tile(self.EDGE_HI, 25)
        (got_lo, got_hi, _, _), _ = self.check_itp(f, lo, hi, np.zeros(len(lo)))
        want_lo, want_hi = fixed_bisect(f, lo, hi, np.zeros(len(lo)))
        halving = np.tile([False, False, True, True, True, True, True, True], 25)
        assert got_lo[halving].tobytes() == want_lo[halving].tobytes()
        assert got_hi[halving].tobytes() == want_hi[halving].tobytes()
        assert np.all((got_lo[0::8] <= -1.0) & (-1.0 <= got_hi[0::8]))
        assert np.all(got_lo[1::8] == 0.0)

    def test_brackets_wider_than_1e10_at_every_halving(self):
        # from |E| = 2^19 on an ulp exceeds 1e-10: such a bracket stops at
        # two neighbouring floats around the crossing; one across 2^19
        # stops there too, and one at 2^18, where 1e-10 holds three ulps,
        # at 1e-10; the same 50 times over in one ITP batch
        f = lambda E: E
        lo = np.array([2.0**20, -(2.0**21), 2.0**19 - 0.5, 2.0**18 - 0.5])
        hi = lo + np.array([1.0, 1.0, 1.0, 0.3])
        crossings = np.array([2.0**20 + 0.3, -(2.0**21) + 0.6, 2.0**19 + 0.25, 2.0**18 - 0.25])
        got_lo, got_hi, _, _ = self.check(f, lo, hi, crossings)
        (itp_lo, itp_hi, _, _), _ = self.check_itp(
            f, np.tile(lo, 50), np.tile(hi, 50), np.tile(crossings, 50)
        )
        for got_lo, got_hi, crossings in ((got_lo, got_hi, crossings),
                                          (itp_lo, itp_hi, np.tile(crossings, 50))):
            neighbours = np.nextafter(got_lo, np.inf) == got_hi
            assert neighbours.reshape(-1, 4).tolist() == [[True, True, True, False]] * (
                len(got_lo) // 4
            )
            assert np.all(got_hi[3::4] - got_lo[3::4] <= 1e-10)
            assert np.all((got_lo < crossings) & (crossings <= got_hi))

    @pytest.mark.parametrize("n_random", [0, 4, 30, 300])
    def test_brackets_settling_inside_a_block(self, n_random):
        # brackets that reach 1e-10 after 0 to 12 halvings, so that they
        # are done at every level of a block: around the root at -1,
        # without a sign change (0.45) and where f is NaN (0.7); and the
        # edge cases of test_edge_cases mixed in with random brackets; with
        # 300 random ones the batch starts with ITP points
        f = lambda E: np.where(E > 0.5, np.nan, E**3 - E)
        special_lo = [0.7, 0.7, 0.0, -0.0, 0.2, -0.3, -0.0, 0.0]
        special_hi = [np.nextafter(0.7, 1.0), 0.7, 0.5, 0.0, 0.9, 0.7, 0.1, -0.0]
        for k in range(12):
            for width in (0.9999e-10 * 2.0**k, 1.0001e-10 * 2.0**k):
                special_lo += [x - width / 3.0 for x in (-1.0, 0.45, 0.7)]
                special_hi += [x + 2.0 * width / 3.0 for x in (-1.0, 0.45, 0.7)]
        rng = np.random.default_rng(n_random)
        lo = np.concatenate((special_lo, rng.uniform(-1.5, 0.0, n_random)))
        hi = np.concatenate((special_hi, lo[len(special_lo):] + rng.uniform(0.0, 1.5, n_random)))
        order = rng.permutation(len(lo))
        check = self.check if len(lo) <= TREE_BATCH else self.check_itp
        check(f, lo[order], hi[order], np.zeros(len(lo)))

    ITP_FUNCTIONS = {
        # a smooth crossing, where the regula falsi point is near the root
        "cube": lambda E: E * E * E,
        # a step of width 1e-9 at -0.3, where it stalls at the far end
        "step": lambda E: np.arctan(1e9 * (E + 0.3)),
    }

    @pytest.mark.parametrize("name", ITP_FUNCTIONS)
    def test_itp_calls_within_one_of_bisection(self, name):
        f = self.ITP_FUNCTIONS[name]
        # 400 brackets of width 1 around roots spread over (-0.9, 0), or
        # around the step: halving to 1e-10 takes 34 calls, and no bracket
        # may take more than 35; the step hides its root from the
        # interpolation and takes all 35, the cube does not (24 calls)
        rng = np.random.default_rng(7)
        roots = np.full(400, -0.3) if name == "step" else rng.uniform(-0.9, 0.0, 400)
        lo = roots - rng.uniform(0.0, 1.0, 400)
        hi = lo + 1.0
        targets = f(roots)
        (got_lo, got_hi, _, _), calls = self.check_itp(f, lo, hi, targets)
        assert np.all((got_lo <= roots + 2e-16) & (roots - 2e-16 <= got_hi))
        assert len(calls) <= (35 if name == "step" else 33)

    def test_one_call_per_block_of_needed_halvings(self):
        # one bracket that needs 5 halvings takes one call of 31 midpoints,
        # not a block of 9 levels; brackets already at 1e-10 take none
        calls = []
        f = lambda E: calls.append(np.size(E)) or E - 0.1
        lo, hi = np.array([0.0]), np.array([31.0e-10])
        got = bands_module._vector_bisect(f, lo, hi, np.array([0.0]), lo - 0.1, hi - 0.1)
        assert calls == [31]
        assert got[1] - got[0] <= 1e-10 < 2.0 * (got[1] - got[0])
        calls.clear()
        hi = lo + 1e-10
        bands_module._vector_bisect(f, lo, hi, np.array([0.0]), lo - 0.1, hi - 0.1)
        assert calls == []

    def test_grid_calls_at_13_21(self, monkeypatch):
        # 13 calls: the separators take none, the bisection several
        # halvings a call down to brackets 1e-10 wide, and the Newton
        # finish at most two; bisecting to the last bit took 18, one
        # halving a call would take 61
        steps = count_grid_work(monkeypatch)
        s = spectral_union_S(reduce_fraction(13, 21), 2.0)
        assert len(s) == 21
        assert len(steps) <= 13

    def test_work_budget_at_233_377(self, monkeypatch):
        # 60 fixed halvings of every edge cost 26.7M energy-steps here;
        # bisecting to the last bit, both halves took 13,046,462 over 52
        # calls and the edges at or below 0 alone 6,715,501 over 50;
        # bisecting those to 1e-10 and finishing with Newton steps,
        # 3,843,138 over 29; this code, which takes ITP points while more
        # than 170 edges are live, 2,245,035 over 19
        steps = count_grid_work(monkeypatch)
        s = spectral_union_S(reduce_fraction(233, 377), 2.0)
        assert len(s) == 377
        assert sum(steps) <= 2.25e6
        assert len(steps) <= 19


class TestNewtonFinish:
    """Up to two Newton steps from the nearer end, or the midpoint, each kept inside the bracket."""

    # derivatives that send the Newton step out of the bracket
    BAD_DERIVATIVES = {
        "reversed": lambda dp: -1e3 * dp,
        "nan": lambda dp: np.full_like(dp, np.nan),
        "zero": lambda dp: np.zeros_like(dp),
        "tiny": lambda dp: np.full_like(dp, 1e-300),
    }

    @pytest.mark.parametrize("bad", BAD_DERIVATIVES)
    def test_bad_derivative_stays_in_the_bracket(self, bad, monkeypatch):
        finish = bands_module._newton_finish
        brackets = []

        def bad_finish(fd, lo, hi, targets, *signs_and_ends):
            def bad_fd(E):
                d, dp = fd(E)
                return d, self.BAD_DERIVATIVES[bad](dp)

            x = finish(bad_fd, lo, hi, targets, *signs_and_ends)
            brackets.append((lo, hi, x))
            return x

        monkeypatch.setattr(bands_module, "_newton_finish", bad_finish)
        for p, q in ((13, 21), (233, 377)):
            s = spectral_union_S(reduce_fraction(p, q), 2.0)
            lo, hi, x = brackets.pop()
            assert np.all(hi - lo <= 1e-10)
            assert np.all((lo <= x) & (x <= hi))
            # the bracket holds D's float crossing, within 1e-12 of the edge
            assert np.abs(s.edges - union_s_edges(p, q, 2.0)).max() <= 1e-10 + 1e-12, (p, q)

    def test_steps_to_the_root(self):
        # from a 1e-10 bracket, the root of E^3 - E at -1 to an ulp, with
        # the bracket updated from the sign at each iterate; one edge whose
        # step is at most 2 ulp stops and is not read again; from the
        # midpoint where no residual was read, from the nearer end where
        # one was
        reads = []

        def fd(E):
            reads.append(np.size(E))
            return E**3 - E, 3.0 * E**2 - 1.0

        lo = np.array([-1.0 - 3e-11, -0.5 - 4e-11])
        hi = lo + 1e-10
        targets, sign_lo = np.array([0.0, 0.375]), np.array([-1.0, 1.0])
        unread = np.full(2, np.nan)
        x = bands_module._newton_finish(fd, lo, hi, targets, sign_lo, unread, unread)
        assert abs(x[0] + 1.0) <= np.spacing(1.0)
        assert abs(x[1] + 0.5) <= np.spacing(0.5)
        assert reads == [2, 2]
        r_lo, r_hi = fd(lo)[0] - targets, fd(hi)[0] - targets
        for ends in ((r_lo, r_hi), (r_lo, unread), (unread, r_hi)):
            x = bands_module._newton_finish(fd, lo, hi, targets, sign_lo, *ends)
            assert abs(x[0] + 1.0) <= np.spacing(1.0)
            assert abs(x[1] + 0.5) <= np.spacing(0.5)

    @pytest.mark.parametrize("beyond", [0, 1], ids=["at-end", "one-ulp-beyond"])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_crossing_at_a_bracket_end(self, end, beyond):
        # an ITP bracket whose float crossing lies at an end, or one ulp
        # beyond it where the read at the end has the inner sign, as float
        # noise leaves it: Newton from anywhere inside steps out of the
        # bracket; started at that end and clamped onto the bracket, the
        # edge stays within 2 ulp of the end; started at the midpoint, with
        # every step that leaves the bracket halved, it ended 1.25e-11 off
        # one ulp beyond
        lo, hi = np.array([-2.3 - 1e-10]), np.array([-2.3])
        at, outward = (lo, -np.inf) if end == "lo" else (hi, np.inf)
        crossing = np.nextafter(at, outward) if beyond else at
        inner = -1e-300 if end == "lo" else 1e-300  # D read at the end, with the inside's sign

        def fd(E):
            d = 1e7 * (E - crossing)
            return (np.where(E == at, inner, d) if beyond else d), np.full_like(E, 1e7)

        targets, sign_lo = np.zeros(1), np.array([-1.0])
        r_lo, r_hi = fd(lo)[0], fd(hi)[0]
        # both ends placed by ITP points, or only the one at the crossing
        one_end = (r_lo, np.full(1, np.nan)) if end == "lo" else (np.full(1, np.nan), r_hi)
        for ends in ((r_lo, r_hi), one_end):
            x = bands_module._newton_finish(fd, lo, hi, targets, sign_lo, *ends)
            assert abs(x[0] - at[0]) <= 2.0 * np.spacing(abs(at[0]))

    @pytest.mark.parametrize(
        "p,q,bound", [(233, 377, 2e-13), (987, 1597, 2.2e-12)], ids=["233-377", "987-1597"]
    )
    def test_worst_edge(self, p, q, bound):
        # this code reads 9.9e-14 at 233/377 and 1.2e-12 at 987/1597 (1.3e-13
        # and 2.2e-12 bisecting to 1e-10, 1.5e-13 and 2.8e-12 to the last
        # bit); finished from the midpoint with every step out of the bracket
        # halved, the ITP brackets left the worst edge at 233/377 off by
        # 1.2e-11; at 987/1597 the float crossings of D scatter over about
        # 4e-12 around the worst edges
        s = spectral_union_S(reduce_fraction(p, q), 2.0)
        assert np.abs(s.edges - union_s_edges(p, q, 2.0)).max() <= bound


# the cells of every reduced p/q with q <= 30 that have an edge off the
# README's promise, by set, as this code reads them: 1, 0, 2, 0 and 0 (at
# q <= 60: 445, 17, 107, 19 and 0); the bisection to the last bit with one
# clipped derivative step read 3, 0, 2, 0 and 0 (506, 21, 117, 23 and 0)
PROMISE_BREAKING_CELLS = {
    "S-lam1": (lambda r: spectral_union_S(r, 1.0), lambda p, q: union_s_edges(p, q, 1.0), 1),
    "S-lam2": (SUBLEVEL_SETS["S-lam2"], lambda p, q: union_s_edges(p, q, 2.0), 0),
    "S-lam3": (SUBLEVEL_SETS["S-lam3"], lambda p, q: union_s_edges(p, q, 3.0), 2),
    "Sminus-lam1.3": (*ORACLE_SETS["Sminus-lam1.3"], 0),
    "J-0.5": (*ORACLE_SETS["J-0.5"], 0),
}


@pytest.mark.parametrize("name", PROMISE_BREAKING_CELLS)
def test_promise_breaking_cells_do_not_grow(name):
    # a cell breaks the promise where an edge is off the dense eigenvalue
    # oracle by more than 1e-10, or 1e-8 on a band narrower than 1e-8
    get, oracle, allowed = PROMISE_BREAKING_CELLS[name]
    broken = []
    for q in range(1, 31):
        for p in range(q):
            if math.gcd(p, q) == 1:
                ref = oracle(p, q)
                tol = np.where(ref[:, 1] - ref[:, 0] >= 1e-8, 1e-10, 1e-8)
                if np.any(np.abs(get(reduce_fraction(p, q)).edges - ref).max(axis=1) > tol):
                    broken.append((p, q))
    assert len(broken) <= allowed, broken


def exact_log_derivative_sign(E: float, zeros) -> int:
    """Sign of sum_j 1/(E - z_j) over the float zeros, in exact rationals."""
    x = Fraction(E)
    total = sum(Fraction(1) / (x - Fraction(z)) for z in zeros.tolist())
    return (total > 0) - (total < 0)


class TestSeparators:
    """The critical points of Delta between its zeros, from g = D'/D = sum 1/(E - z_j)."""

    @pytest.mark.parametrize(
        "p,q,indices",
        [
            # every fourth separator, the two furthest off over all 376 (338,
            # 339) and the top three
            (233, 377, sorted(set(range(0, 376, 4)) | {338, 339, 373, 374, 375})),
            # the gaps where 60 halvings of D' were furthest off, and a sample
            (987, 1597, sorted(set(range(0, 1596, 100)) | {373, 374, 1592, 1593, 1594, 1595})),
        ],
        ids=["233-377", "987-1597"],
    )
    def test_against_50_digit_critical_points(self, p, q, indices):
        # bisecting D' placed these to 5.4e-13 at 987/1597
        spec = delta_spec(reduce_fraction(p, q), 2.0)
        seps = bands_module._interior_extrema(bands_module._band_zeros(spec), q - 1)
        assert len(seps) == q - 1
        offsets = [mp_critical_offset(spec, seps[i]) for i in indices]
        assert max(offsets) <= 1e-14

    @given(
        st.integers(2, 40).flatmap(
            lambda q: st.tuples(
                st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1), st.just(q)
            )
        ),
        st.floats(0.1, 3.0),
    )
    # the even-q middle separator, once solved from the float zeros: the
    # root of g on them lies below -2 ulp of its bracket's larger end
    @example((23, 40), 2.121116639739161)
    @settings(max_examples=60, deadline=None)
    def test_root_of_g_in_its_gap(self, pq, lam):
        p, q = pq
        zeros = bands_module._band_zeros(delta_spec(reduce_fraction(p, q), lam))
        seps = bands_module._interior_extrema(zeros, q - 1)
        assert np.all((zeros[:-1] < seps) & (seps < zeros[1:]))
        # for even q Delta is even, and its middle critical point is exactly
        # 0, though the float zeros are symmetric only to within their
        # rounding; every other separator is solved: g falls through 0
        # within 2 ulp (of the larger bracket end) of it, read in exact
        # arithmetic on the same float zeros
        middle = q // 2 - 1 if q % 2 == 0 else None
        if middle is not None:
            assert seps[middle] == 0.0
        for i, s in enumerate(seps.tolist()):
            if i == middle:
                continue
            tol = 2.0 * np.spacing(max(abs(zeros[i]), abs(zeros[i + 1])))
            assert exact_log_derivative_sign(s - tol, zeros) > 0, (i, s)
            assert exact_log_derivative_sign(s + tol, zeros) < 0, (i, s)
        # the sublevel sets solve only the separators below 0
        half = (q - 1) // 2
        assert np.array_equal(bands_module._interior_extrema(zeros, half), seps[:half])

    def test_unconverged_separator_raises(self, monkeypatch):
        monkeypatch.setattr(bands_module, "_NEWTON_ITERS", 2)
        zeros = bands_module._band_zeros(delta_spec(reduce_fraction(13, 21), 2.0))
        with pytest.raises(RootFindingError, match="not converged") as info:
            bands_module._interior_extrema(zeros, 20)
        lo, hi = info.value.bracket
        assert lo < hi

    def test_sums_in_bounded_blocks(self):
        # no (q - 1) x q array: every block holds at most _SUM_BLOCK entries
        zeros = bands_module._band_zeros(delta_spec(reduce_fraction(233, 377), 2.0))
        E = 0.5 * (zeros[:-1] + zeros[1:])
        tracemalloc.start()
        g, dg = bands_module._log_derivative(E, zeros)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 4 * 8 * bands_module._SUM_BLOCK + 8 * 8 * len(E)
        want = [math.fsum(1.0 / (e - z) for z in zeros.tolist()) for e in E.tolist()]
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-9)
        assert np.all(dg < 0.0)


# the even-q cells of `amo butterfly --qmax 25 --lambda 2` whose touching
# centre edges the bisection once placed to about sqrt(eps)
EVEN_BUTTERFLY_CELLS = [
    (1, 4), (1, 6), (5, 6), (7, 8), (1, 10), (3, 10), (7, 10), (9, 10), (5, 12),
    (7, 12), (1, 14), (13, 14), (9, 16), (1, 18), (17, 18), (3, 20), (7, 20),
    (11, 20), (13, 20), (17, 20), (19, 20), (5, 22), (7, 22), (15, 22), (19, 22),
    (21, 22),
]


class TestEvenCentre:
    """For even q, Delta is even: S's middle bands touch at exactly 0."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
    def test_middle_bands_meet_at_zero(self, lam):
        for q in range(2, 61, 2):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                s = spectral_union_S(reduce_fraction(p, q), lam)
                c = q // 2
                assert s.edges[c - 1, 1] == 0.0 and s.edges[c, 0] == 0.0, (p, q)
                ref = union_s_edges(p, q, lam)
                assert abs(ref[c - 1, 1]) <= 1e-12 and abs(ref[c, 0]) <= 1e-12, (p, q)

    @pytest.mark.parametrize(
        "p,q", EVEN_BUTTERFLY_CELLS, ids=[f"{p}-{q}" for p, q in EVEN_BUTTERFLY_CELLS]
    )
    def test_butterfly_cells_within_1e10(self, p, q):
        # a band narrower than 1e-8 may collapse onto its zero
        s = spectral_union_S(reduce_fraction(p, q), 2.0)
        assert_within_readme_bound(s, union_s_edges(p, q, 2.0), (p, q))

    def test_centre_value_is_the_threshold(self):
        # |Delta(0)| = 2 + 2 (lam/2)^q, the sign (-1)^(q/2), at 60 digits
        for p, q, lam in [(1, 2, 3.0), (1, 4, 0.5), (5, 12, 2.0), (7, 22, 1.0), (13, 30, 3.0)]:
            got = mp_discriminant(p, q, lam, None, 0.0)
            want = (-1) ** (q // 2) * (2 + 2 * (mpmath.mpf(lam) / 2) ** q)
            assert abs(got - want) <= mpmath.mpf(10) ** -40 * abs(want)


class TestBandZeros:
    """The banded Floquet eigensolve behind every set, against a dense one."""

    def test_small_periods_match_dense(self):
        for p, q in [(0, 1), (1, 2), (1, 3), (2, 3)]:
            for lam in (0.5, 1.0, 2.0, 3.0):
                for theta in (0.0, 0.3, math.pi / (2 * q)):
                    spec = am(p, q, lam, theta)
                    zeros = bands_module._band_zeros(spec)
                    assert zeros.shape == (q,)
                    np.testing.assert_allclose(
                        zeros, dense_floquet_zeros(spec), rtol=0, atol=1e-12
                    )

    def test_random_periods_match_dense(self, rng):
        for _ in range(12):
            r = random_reduced(rng, 200)
            for lam in (1.0, 2.0, 3.0):
                for theta in (math.pi / (2 * r.q), rng.uniform(0, 2 * math.pi)):
                    spec = OperatorSpec.almost_mathieu(r, lam, theta)
                    np.testing.assert_allclose(
                        bands_module._band_zeros(spec),
                        dense_floquet_zeros(spec),
                        rtol=0,
                        atol=1e-12,
                    )

    def test_explicit_potential_matches_dense(self):
        spec = OperatorSpec.explicit([0.7, -1.3, 0.0, 2.5, -0.2, 1.1, -2.0])
        np.testing.assert_allclose(
            bands_module._band_zeros(spec), dense_floquet_zeros(spec), rtol=0, atol=1e-12
        )

    def test_zeros_certified_at_377_610(self):
        spec = am(377, 610, 2.0, math.pi / (2 * 610))
        zeros = bands_module._band_zeros(spec)
        assert zeros.shape == (610,)
        assert np.all(np.diff(zeros) > 0)
        for E in zeros[::10]:
            assert mp_edge_offset(spec, float(E), 0.0) <= 1e-12

    def test_memory_linear_in_q(self):
        # the dense 1597 x 1597 complex matrix alone is 41 MB
        spec = am(987, 1597, 2.0, math.pi / (2 * 1597))
        bands_module._band_zeros(am(1, 3, 2.0, 0.0))  # first-call imports
        tracemalloc.start()
        try:
            bands_module._band_zeros(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSminus:
    def test_half(self):
        zeros = sminus_points(HALF, 2.0)
        np.testing.assert_allclose(zeros, [-2.0, 2.0], atol=1e-10)

    def test_free(self):
        zeros = sminus_points(ZERO, 2.0)
        np.testing.assert_allclose(zeros, [0.0], atol=1e-12)

    def test_third_symmetric(self):
        zeros = sminus_points(reduce_fraction(1, 3), 2.0)
        r6 = math.sqrt(6.0)
        np.testing.assert_allclose(zeros, [-r6, 0.0, r6], atol=1e-10)

    def test_strictly_increasing_and_refined(self, rng):
        for _ in range(10):
            r = random_reduced(rng, 30)
            e = sminus_points(r, 2.0)
            assert e.dtype == np.float64 and e.shape == (r.q,)
            assert not e.flags.writeable
            assert np.all(np.diff(e) > 0)
            for E in e:
                assert abs(plain_discriminant(delta_spec(r, 2.0), complex(E))) <= 1e-8

    def test_brute_force_scan_oracle(self, rng):
        for _ in range(5):
            r = random_reduced(rng, 10)
            zeros = sminus_points(r, 2.0)
            roots = brute_force_zeros(
                lambda E: plain_discriminant(delta_spec(r, 2.0), E).real, -4.5, 4.5, 4000
            )
            assert len(roots) == r.q
            np.testing.assert_allclose(zeros, roots, atol=1e-8)

    def test_zeros_within_1e12_of_true_zeros(self, rng):
        for _ in range(6):
            r = random_reduced(rng, 40)
            spec = OperatorSpec.almost_mathieu(r, 2.0, math.pi / (2 * r.q))
            for E in sminus_points(r, 2.0).tolist():
                assert mp_edge_offset(spec, E, 0.0) <= 1e-12

    def test_subcritical_returns_set(self):
        s = sminus_points(HALF, 1.0)
        assert isinstance(s, SpectralSet)
        # {|E^2 - 5/2| <= 3/2} = [-2, -1] u [1, 2]
        np.testing.assert_allclose(
            s.edges.T.ravel(),
            [-2.0, 1.0, -1.0, 2.0],
            atol=1e-10,
        )

    def test_subcritical_touching_edges(self):
        # S-(25/27, 1) has touching bands whose edges once missed by 1.8e-5
        s = sminus_points(reduce_fraction(25, 27), 1.0)
        assert len(s) == 27
        np.testing.assert_allclose(
            np.array(s.intervals()), sminus_edges(25, 27, 1.0), rtol=0, atol=1e-8
        )

    def test_supercritical_empty(self):
        s = sminus_points(HALF, 3.0)
        assert isinstance(s, SpectralSet)
        assert len(s) == 0


class TestLastWilkinson:
    def test_free(self):
        assert last_wilkinson_sum(ZERO) == pytest.approx(1.0, rel=1e-12)

    def test_half(self):
        assert last_wilkinson_sum(HALF) == pytest.approx(0.5, rel=1e-10)

    def test_two_fifths(self):
        assert last_wilkinson_sum(reduce_fraction(2, 5)) == pytest.approx(
            0.2, rel=1e-8
        )

    def test_identity_up_to_q15(self):
        for q in range(1, 16):
            for p in range(q):
                if math.gcd(p, q) == 1 or (p == 0 and q == 1):
                    s = last_wilkinson_sum(reduce_fraction(p, q))
                    assert abs(s - 1.0 / q) <= 1e-8 / q


class TestJDelta:
    def test_variant1_half(self):
        res = jdelta_sets(HALF, 0.5)
        lo1, hi1 = math.sqrt(3.5), math.sqrt(4.5)
        np.testing.assert_allclose(
            res.complement.edges.T.ravel(),
            [-hi1, lo1, -lo1, hi1],
            atol=1e-10,
        )
        want = 2.0 * (hi1 - lo1)
        assert res.measure_complement == pytest.approx(want, abs=1e-9)
        assert res.bound == pytest.approx(2.0 * math.e * 0.5 / 2.0)
        assert res.bound_ok

    def test_measure_bound_sweep(self):
        for q in (3, 7, 12, 20):
            alpha = reduce_fraction(1, q)
            for delta_ in np.geomspace(1e-3, 0.5, 6):
                res = jdelta_sets(alpha, float(delta_))
                assert res.bound_ok, (q, delta_, res.measure_complement, res.bound)

    def test_huge_delta_still_valid(self):
        res = jdelta_sets(HALF, 6.0)
        assert res.measure_complement > 0
        assert res.bound_ok in (True, False)

    def test_sweep_equals_single_sets(self):
        # the sweep is jdelta_sets delta by delta.  Up to delta = 4
        # (touching bands) the sets are the q bands of the Chambers
        # eigenvalue edges, within 1e-10, or 1e-8 for a band narrower than
        # 1e-8; above it, where bands merge, every edge solves |Delta| =
        # delta at 40 digits and every zero of Delta stays inside
        deltas = [1e-3, 0.1, 0.5, 2.0, 4.0, 4.001, 5.0, 6.0, 8.0]
        for q in range(1, 16):
            for p in range(q):
                if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                    continue
                alpha = reduce_fraction(p, q)
                spec = delta_spec(alpha, 2.0)
                zeros = sminus_points(alpha, 2.0)
                for res, d in zip(jdelta_sweep(alpha, deltas), deltas):
                    assert res.delta == d
                    s = res.complement
                    if d <= 4.0:
                        want = jdelta_edges(p, q, d)
                        tol = np.where(want[:, 1] - want[:, 0] < 1e-8, 1e-8, 1e-10)
                        assert np.all(np.abs(s.edges - want) <= tol[:, None]), (alpha, d)
                        continue
                    assert np.all(s.contains(zeros)), (alpha, d)
                    for E in s.edges.ravel().tolist():
                        target = math.copysign(d, plain_discriminant(spec, E).real)
                        assert mp_edge_offset(spec, E, target) <= 1e-10, (alpha, d, E)

    def test_delta_four_is_union_S(self):
        # 2 + 2 (lam/2)^q = 4 at lam = 2: J_4^c and S(p/q, 2) are one set
        for q in range(1, 16):
            for p in range(q):
                if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                    continue
                alpha = reduce_fraction(p, q)
                union = spectral_union_S(alpha, 2.0)
                assert jdelta_sweep(alpha, [0.1, 4.0])[1].complement == union, alpha
                assert jdelta_sets(alpha, 4.0).complement == union, alpha

    def test_delta_six_merges_third(self):
        # at delta = 6 the three bands of 1/3 merge into one, |Delta| <= 6
        # being E^3 - 6 E in [-6, 6] for E in [-r, r], r^3 - 6 r = 6
        r = float(np.max(np.roots([1.0, 0.0, -6.0, -6.0]).real))
        for res in (jdelta_sets(THIRD, 6.0), jdelta_sweep(THIRD, [6.0])[0]):
            assert len(res.complement) == 1
            np.testing.assert_allclose(res.complement.edges[0], [-r, r], atol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            jdelta_sets(HALF, -0.1)
        with pytest.raises(ValueError):
            jdelta_sets(HALF, 0.0)
        with pytest.raises(ValueError):
            spectral_union_S(HALF, -1.0)


class TestBandEdgeBound:
    def test_half_worked_example(self):
        rep = band_edge_bound_check(HALF, 0.5)
        assert rep.all_ok
        upper_last = [
            e for e in rep.edges if e.band_index == 2 and e.side == "upper"
        ][0]
        assert upper_last.energy == pytest.approx(math.sqrt(4.5), abs=1e-9)
        want_margin = math.e * 0.5 / (2.0 * math.sqrt(4.5)) - (math.sqrt(4.5) - 2.0)
        assert upper_last.margin == pytest.approx(want_margin, abs=1e-9)

    def test_free_always_true(self):
        rep = band_edge_bound_check(ZERO, 0.7)
        assert all(e.ok for e in rep.edges)

    def test_two_fifths_all_edges(self):
        rep = band_edge_bound_check(reduce_fraction(2, 5), 0.2)
        assert len(rep.edges) == 10
        assert all(e.ok for e in rep.edges)

    def test_merged_bands_rejected(self):
        # J_6^c of 1/3 is one merged band: no edge can be paired with a zero
        with pytest.raises(ValueError, match="1 bands, expected 3"):
            band_edge_bound_check(THIRD, 6.0)


class TestSetMeasure:
    def test_single_interval(self):
        s = SpectralSet.from_intervals([(-2 * math.sqrt(2), 2 * math.sqrt(2))])
        assert s.measure == pytest.approx(4 * math.sqrt(2))

    def test_touching(self):
        s = SpectralSet.from_intervals([(-2.0, 0.0), (0.0, 2.0)], merge_overlaps=False)
        assert s.measure == 4.0

    def test_empty(self):
        assert SpectralSet(()).measure == 0.0


class TestIds:
    def test_free_half_filling(self):
        spec = OperatorSpec.explicit([0.0])
        assert ids_profile(spec, np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_central_gap(self):
        assert ids_profile(am(1, 2, 2.0, 0.0), np.array([0.0]))[0] == pytest.approx(0.5)

    def test_below_spectrum(self):
        assert ids_profile(am(1, 2, 2.0, 0.3), np.array([-10.0, 10.0])).tolist() == [0.0, 1.0]

    def test_monotone_profile(self):
        for spec in [am(1, 2, 2.0, 0.9), am(2, 5, 2.0, 0.0), am(1, 3, 1.0, 2.0)]:
            E = np.linspace(-5.0, 5.0, 10001)
            ids = ids_profile(spec, E)
            assert np.all(np.diff(ids) >= -1e-12)
            assert ids[0] == 0.0 and ids[-1] == 1.0

    def test_eval_is_profile(self):
        # gaps, bands and both tails of a three-band spectrum: each energy
        # alone gives what it gives on the grid
        spec = am(1, 3, 2.0, 0.4)
        s = spectrum_bands(spec)
        assert s.edges[0, 0] > -5.0 and s.edges[-1, 1] < 5.0
        assert np.any(s.edges[:-1, 1] < s.edges[1:, 0])
        E = np.linspace(-5.0, 5.0, 201)
        prof = ids_profile(spec, E)
        single = np.array([ids_profile(spec, E[i : i + 1])[0] for i in range(len(E))])
        np.testing.assert_array_equal(single, prof)

    def test_constant_on_gaps(self):
        spec = am(1, 2, 2.0, 0.0)
        gap = ids_profile(spec, np.linspace(-1.5, 1.5, 101))
        assert np.all(gap == 0.5)

    def test_phase_is_arccos_of_half_d(self):
        # on band j the profile is (j - phi/pi)/q where D increases and
        # (j - 1 + phi/pi)/q where it decreases, phi = arccos(D/2); D is
        # rebuilt from its scaled form as sign * exp(log |D|), as the
        # package does, since near a band edge phi magnifies a 1-ulp change
        # of D to sqrt(ulp)
        for spec in (am(1, 3, 2.0, 0.4), am(2, 5, 1.0, 0.0), am(5, 13, 2.0, 1.1)):
            q = spec.period
            s = spectrum_bands(spec)
            E = np.concatenate([np.linspace(lo, hi, 203)[1:-1] for lo, hi in s.edges.tolist()])
            tr, logs = discriminant_grid(spec, E)
            d = np.sign(tr) * np.exp(np.log(np.abs(tr)) + logs)
            phi = np.arccos(np.clip(d / 2.0, -1.0, 1.0))
            j = np.repeat(np.arange(1, q + 1), 201)
            mono = (-1.0) ** (q - j)
            want = np.where(mono > 0, j - phi / math.pi, j - 1 + phi / math.pi) / q
            np.testing.assert_allclose(ids_profile(spec, E), want, rtol=0.0, atol=1e-15)

