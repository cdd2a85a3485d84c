"""SpectralSet on its edge arrays, against plain loops over (lo, hi) pairs."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almost_mathieu.bands import SpectralSet, spectral_union_S
from almost_mathieu.core import reduce_fraction
from almost_mathieu.experiments import box_counting_dimension
from oracles import (
    loop_box_counts,
    loop_contains,
    loop_distance,
    loop_from_intervals,
    loop_intersection_measure,
)

# energies on a coarse grid, so that edges coincide (touching bands,
# zero-width bands, energies exactly on an edge), mixed with arbitrary floats
energies = st.one_of(
    st.integers(-48, 48).map(lambda k: k / 8.0),
    st.floats(-6.0, 6.0, allow_nan=False),
)


@st.composite
def disjoint_sets(draw, min_size=0):
    """Sorted bands, disjoint up to touching ends, zero widths allowed."""
    points = sorted(draw(st.lists(energies, min_size=2 * min_size, max_size=40)))
    points = points[: len(points) // 2 * 2]
    return [(points[i], points[i + 1]) for i in range(0, len(points), 2)]


pairs = st.lists(st.tuples(energies, energies), max_size=30)


def edges_of(s: SpectralSet) -> list[tuple[float, float]]:
    return [tuple(row) for row in s.edges.tolist()]


class TestAgainstLoops:
    @settings(max_examples=200, deadline=None)
    @given(pairs, st.booleans())
    def test_from_intervals(self, intervals, merge):
        s = SpectralSet.from_intervals(intervals, merge_overlaps=merge)
        assert edges_of(s) == loop_from_intervals(intervals, merge)
        assert s.intervals() == loop_from_intervals(intervals, merge)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(disjoint_sets(), pairs.map(lambda p: loop_from_intervals(p, False))),
           st.lists(energies, max_size=20))
    def test_contains_and_distance(self, bands, points):
        # merged and unmerged sets alike: overlapping and nested bands too;
        # every edge and midpoint is probed besides the drawn energies
        s = SpectralSet(bands)
        points = points + [x for lo, hi in bands for x in (lo, 0.5 * (lo + hi), hi)]
        for E in points:
            assert s.contains(E) is loop_contains(bands, E)
            assert s.distance(E) == loop_distance(bands, E)
        d = s.distance(np.array(points, dtype=float))
        assert d.tolist() == [loop_distance(bands, E) for E in points]
        assert s.contains(np.array(points, dtype=float)).tolist() == [
            loop_contains(bands, E) for E in points
        ]

    def test_nested_bands(self):
        bands = [(0.0, 5.0), (1.0, 2.0), (3.0, 3.0)]
        s = SpectralSet(bands)
        for E in (-1.0, 0.0, 1.5, 2.5, 3.0, 4.0, 5.0, 6.0):
            assert s.contains(E) is loop_contains(bands, E)
            assert s.distance(E) == loop_distance(bands, E)

    @settings(max_examples=200, deadline=None)
    @given(disjoint_sets(), disjoint_sets())
    def test_intersection_measure(self, mine, theirs):
        a, b = SpectralSet(mine), SpectralSet(theirs)
        # the same overlaps added in the same order: bitwise equal
        assert a.intersection_measure(b) == loop_intersection_measure(mine, theirs)
        assert b.intersection_measure(a) == loop_intersection_measure(theirs, mine)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(disjoint_sets(min_size=1),
                     pairs.filter(bool).map(lambda p: loop_from_intervals(p, False)).filter(bool)),
           st.lists(st.floats(0.01, 2.0), min_size=2, max_size=6, unique=True))
    def test_box_counts(self, bands, scales):
        scales = sorted(scales, reverse=True)
        rep = box_counting_dimension(SpectralSet(bands), scales)
        assert list(rep.counts) == loop_box_counts(bands, scales)

    def test_box_counts_touching_overlapping_and_zero_width(self):
        # bands that touch, overlap, nest, sit on a box boundary or have
        # zero width, alone or inside another band
        bands = [(0.0, 0.25), (0.25, 0.5), (0.3, 0.7), (0.4, 0.45), (0.75, 0.75),
                 (0.8, 0.8), (0.9, 1.3), (1.0, 1.0), (1.6, 1.6)]
        scales = [0.5, 0.25, 0.2, 0.125, 0.1, 0.05]
        rep = box_counting_dimension(SpectralSet(bands), scales)
        assert list(rep.counts) == loop_box_counts(bands, scales)

    @pytest.mark.parametrize("p, q", [(233, 377), (987, 1597)])
    def test_box_counts_at_fibonacci_ratios(self, p, q):
        # the default scales of `amo dimension` and the ends of the ranges
        # the fibonacci benchmark draws its scales from
        s = spectral_union_S(reduce_fraction(p, q), 2.0)
        bands = s.intervals()
        for scales in (np.geomspace(1e-1, 1e-6, 12), np.geomspace(0.2, 10**-6.3, 14),
                       np.geomspace(0.05, 10**-5.7, 10)):
            rep = box_counting_dimension(s, list(scales))
            assert list(rep.counts) == loop_box_counts(bands, scales), (p, q)

    @settings(max_examples=100, deadline=None)
    @given(disjoint_sets())
    def test_measure_is_a_sequential_sum(self, bands):
        want = 0
        for lo, hi in bands:
            want += hi - lo
        assert SpectralSet(bands).measure == float(want)


class TestLayout:
    def test_arrays_are_read_only(self):
        s = SpectralSet([(0.0, 1.0), (2.0, 3.0)])
        assert s.edges.dtype == np.float64 and s.edges.shape == (2, 2)
        with pytest.raises(ValueError):
            s.edges[0, 0] = 5.0

    def test_input_is_copied(self):
        edges = np.array([[0.0, 1.0]])
        s = SpectralSet(edges)
        edges[0, 0] = -1.0
        assert s.edges[0, 0] == 0.0

    def test_len_eq_hash(self):
        a = SpectralSet([(0.0, 1.0), (2.0, 3.0)])
        assert len(a) == 2 and len(SpectralSet(())) == 0
        assert a == SpectralSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert hash(a) == hash(SpectralSet(np.array([[0.0, 1.0], [2.0, 3.0]])))
        assert a != SpectralSet([(0.0, 1.0)])
        assert a != SpectralSet([(0.0, 1.0), (2.0, 3.5)])
        assert pickle.loads(pickle.dumps(a)) == a
        assert repr(a) == "SpectralSet([[0.0, 1.0], [2.0, 3.0]])"
        assert SpectralSet([(-0.0, 1.0)]) == SpectralSet([(0.0, 1.0)])
        assert hash(SpectralSet([(-0.0, 1.0)])) == hash(SpectralSet([(0.0, 1.0)]))

    def test_rejects_bad_layouts(self):
        with pytest.raises(ValueError, match="ascending"):
            SpectralSet([(2.0, 3.0), (0.0, 1.0)])

    def test_empty_set(self):
        s = SpectralSet(())
        assert s.measure == 0.0 and s.intervals() == [] and s.edges.shape == (0, 2)
        assert s.distance(0.0) == np.inf and s.contains(0.0) is False
        assert s.intersection_measure(SpectralSet([(0.0, 1.0)])) == 0.0


class TestFootprint:
    N = 10_000

    def retained_per_band(self, build) -> float:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = build()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(s) == self.N
        return (after - before) / self.N

    def test_at_most_24_bytes_a_band(self):
        points = np.sort(np.random.default_rng(3).uniform(-4.0, 4.0, 2 * self.N))
        edges = points.reshape(-1, 2)
        assert self.retained_per_band(lambda: SpectralSet(edges)) <= 24.0
        pairs = [tuple(row) for row in edges.tolist()]
        assert self.retained_per_band(lambda: SpectralSet.from_intervals(pairs)) <= 24.0


class TestNoBandObjects:
    """A set is its edge array, with no object per band."""

    def test_union_set_is_ordered(self):
        # contains and distance bisect on the lower edges
        for p, q in ((1, 2), (2, 21), (233, 377)):
            lo, hi = spectral_union_S(reduce_fraction(p, q), 2.0).edges.T
            assert np.all(np.diff(lo) > 0.0) and np.all(lo[1:] >= hi[:-1])
