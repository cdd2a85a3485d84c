"""Band structure and spectral sets of periodic almost Mathieu operators.

The spectrum of a period-q operator is {E : |D(E)| <= 2}, a union of q
closed bands on which the discriminant D is strictly monotone.  D(E) =
2 cos(kappa) exactly at the eigenvalues of the q x q Floquet matrix with
boundary phase e^{i kappa}; in zigzag site order (1, q, 2, q-1, ...) that
cyclic tridiagonal matrix has bandwidth 2, so one banded eigensolve
(:func:`_band_zeros`) finds those roots in O(q) memory and O(q^2) time,
however close they cluster.  The spectrum's edges are the roots at
kappa = 0 and pi: the periodic and antiperiodic eigenvalues, which sorted
pair up into the q bands, touching ones included.

The union and intersection over the phase theta, for lam > 0, are
sublevel sets of Chambers' Delta at thresholds 2 +- 2(lam/2)^q, and
J_delta^c one at threshold delta.  Delta(-E) = (-1)^q Delta(E), so each
set is symmetric under E -> -E: only its q edges at or below 0 are
kept, and the other q are their reflections.  By Chambers, D_theta =
Delta - 2 (lam/2)^q cos(q theta), so every edge of S- (lam < 2) and of
J_delta^c (delta <= 4) is a periodic or antiperiodic eigenvalue at a
shifted theta, paired as the spectrum's are (:func:`_chambers_bands`).
The union S is still solved by bisection, one call at its own threshold
(:func:`_sublevel_bands`), in three steps, the last two on E <= 0:

  1. anchor the q simple real zeros of Delta, the roots at kappa = pi/2
     (grid sign-change scans provably miss clustered zeros at critical
     coupling),
  2. solve the separators, the critical points of Delta between
     consecutive zeros, as the roots of D'/D = sum_j 1/(E - z_j) over all
     q zeros (:func:`_interior_extrema`),
  3. from each zero walk out to the enclosing separators and narrow the
     monotone piece down to |D| = threshold; where D does not cross the
     threshold before the separator, the band ends there (a touching
     edge).  All these edges are narrowed in one batch, of about q
     brackets.  While more than 170 are live (512 / 3), one kernel call
     takes each bracket's ITP point, which interpolates D between
     the bracket's ends and is projected so that the bracket needs at
     most one call more than bisection.  Fewer brackets are bisected,
     several halvings to a call: for n brackets, one call takes the
     2^d - 1 midpoints of the next d levels of each bracket's bisection
     tree, with n (2^d - 1) <= 512, and since the sign of D - threshold
     at a bracket's lower end never changes, the signs at those midpoints
     walk it down all d levels.  An edge leaves the batch once its
     bracket is at most 1e-10 wide (from a batch that is bisected from
     the start, bitwise the bracket of halving it on its own), and is
     finished by at most two Newton steps on D - threshold, each kept
     inside the bracket, from the end an ITP point placed nearer the
     crossing, or else from the bracket's midpoint.

No threshold used here swallows a gap.  D_theta' does not vanish where
|D_theta| < 2, so every critical point E* of Delta has |Delta(E*)| >=
2 + 2 (lam/2)^q, the threshold of S, above that of S-.  At lam = 2 the
bound is 4, so J_delta^c = {|Delta| <= delta} keeps its q bands for
delta <= 4; above 4, its edges are the real eigenvalues of a
non-symmetric Floquet matrix, and bands merge into fewer components
(:func:`_merged_sublevel`).

Delta' at the zeros, and Delta/Delta' anywhere, are read off the zeros
z_j of the monic Delta: Delta'(z_i) = prod_{j != i} (z_i - z_j) and
Delta'/Delta (E) = sum_j 1/(E - z_j).  The bisection of S evaluates
Delta with the scaled vectorized transfer recurrence from
:mod:`almost_mathieu.core`, so nothing overflows at large q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    OperatorSpec,
    ReducedRational,
    delta_spec,
    discriminant_and_derivative_grid,
    discriminant_grid,
    floquet_exponent,
)

_EDGE_BRACKET = 1e-10  # width of a bracket that leaves the bisection, the edge promise
_FINISH_STEPS = 2  # Newton steps that finish an edge inside its bracket
_BLOCK_ENERGIES = 512  # midpoints one bisection call of f may take
_NEWTON_ITERS = 100  # steps a separator may take before RootFindingError
_SUM_BLOCK = 4096  # entries one block of a sum over the zeros of D holds

__all__ = [
    "SpectralSet",
    "JDeltaResult",
    "EdgeMargin",
    "BandEdgeReport",
    "RootFindingError",
    "spectrum_bands",
    "band_parity",
    "spectral_union_S",
    "sminus_points",
    "last_wilkinson_sum",
    "jdelta_sets",
    "jdelta_sweep",
    "band_edge_bound_check",
    "ids_profile",
]


class RootFindingError(RuntimeError):
    """Raised when the grid cannot isolate the expected number of roots."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class SpectralSet:
    """Ordered union of closed bands, disjoint except for touching endpoints.

    The bands are held as one read-only array, ``edges``, float64 of shape
    (n, 2) with row i = (lo, hi) of band i + 1, in ascending order of the
    lower edge.  That is 16 bytes a band.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges=()):
        e = np.array(edges, dtype=np.float64).reshape(-1, 2)
        if np.any(e[1:, 0] < e[:-1, 0]):
            raise ValueError("bands must come in ascending order of their lower edges")
        e.flags.writeable = False
        self._edges = e

    @property
    def edges(self) -> np.ndarray:
        """(n, 2) float64 array, row i = (lo, hi) of band i + 1; read-only."""
        return self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralSet):
            return NotImplemented
        return np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash(tuple(self._edges.ravel().tolist()))

    def __reduce__(self):
        return SpectralSet, (self._edges,)

    def __repr__(self) -> str:
        return f"SpectralSet({self._edges.tolist()!r})"

    @property
    def measure(self) -> float:
        # added band by band in order, bitwise the sum of a plain loop
        return float(sum((self._edges[:, 1] - self._edges[:, 0]).tolist()))

    def intervals(self) -> list[tuple[float, float]]:
        return [(lo, hi) for lo, hi in self._edges.tolist()]

    def distance(self, E):
        """Distance from E to the set, 0 inside and inf for the empty set.

        Elementwise over an array of energies; a float for a scalar.  The
        bands starting at or below E are found by bisection on the lower
        edges; of those, the one reaching furthest up is the nearest, and of
        the others, the first one above E.
        """
        E = np.asarray(E, dtype=np.float64)
        lo, hi = self._edges[:, 0], self._edges[:, 1]
        if not len(lo):
            d = np.full(E.shape, math.inf)
        else:
            k = np.searchsorted(lo, E, side="right")  # bands [0, k) start at or below E
            reach = np.maximum.accumulate(hi)[np.maximum(k - 1, 0)]
            below = np.where(k > 0, np.maximum(E - reach, 0.0), math.inf)
            above = np.where(k < len(lo), lo[np.minimum(k, len(lo) - 1)] - E, math.inf)
            d = np.minimum(below, above)
        return float(d) if d.ndim == 0 else d

    def contains(self, E):
        """Whether E lies in a band; elementwise over an array of energies."""
        inside = self.distance(E) == 0.0
        return bool(inside) if np.ndim(inside) == 0 else inside

    def intersection_measure(self, other: "SpectralSet") -> float:
        """Lebesgue measure of the intersection, exact interval clipping.

        Both sets must be disjoint up to touching endpoints.  The band pairs
        that overlap come from bisection on the edges, and the lengths of
        the overlaps are added in ascending order of position.
        """
        a, b = self._edges, other._edges
        # the bands of ``other`` that can overlap band i: j0[i] <= j < j1[i]
        j0 = np.searchsorted(b[:, 1], a[:, 0], side="right")
        j1 = np.searchsorted(b[:, 0], a[:, 1], side="left")
        count = np.maximum(j1 - j0, 0)
        i = np.repeat(np.arange(len(a)), count)
        j = np.repeat(j0 - np.cumsum(count) + count, count) + np.arange(count.sum())
        lo = np.maximum(a[i, 0], b[j, 0])
        hi = np.minimum(a[i, 1], b[j, 1])
        keep = hi > lo
        return float(sum((hi[keep] - lo[keep]).tolist()))

    @staticmethod
    def from_intervals(intervals, merge_overlaps: bool = True) -> "SpectralSet":
        """The set of the (lo, hi) pairs with hi >= lo, sorted, overlaps merged.

        ``intervals`` is a sequence of pairs or an (n, 2) array.  With
        ``merge_overlaps`` the pairs that meet or overlap become one band.
        """
        ivs = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
        ivs = ivs[ivs[:, 1] >= ivs[:, 0]]
        ivs = ivs[np.lexsort((ivs[:, 1], ivs[:, 0]))]
        if merge_overlaps and len(ivs):
            # a band starts where its lower edge lies above every upper edge before it
            reach = np.maximum.accumulate(ivs[:, 1])
            starts = np.flatnonzero(np.concatenate(([True], ivs[1:, 0] > reach[:-1])))
            ends = np.append(starts[1:], len(ivs)) - 1
            ivs = np.column_stack((ivs[starts, 0], reach[ends]))
        return SpectralSet(ivs)


@dataclass(frozen=True)
class JDeltaResult:
    """J_delta represented through its bounded complement J_delta^c."""

    delta: float
    complement: SpectralSet
    measure_complement: float
    bound: float
    bound_ok: bool


@dataclass(frozen=True)
class EdgeMargin:
    band_index: int
    side: str
    energy: float
    margin: float
    mandated: bool

    @property
    def ok(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class BandEdgeReport:
    delta: float
    edges: tuple[EdgeMargin, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.edges if e.mandated)


# ---------------------------------------------------------------------------
# scaled-evaluation helpers


def _dense(tr: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Saturating float values from scaled (mantissa, log) form."""
    mag = np.abs(tr)
    safe = np.where(mag > 0.0, mag, 1.0)
    log_val = np.where(mag > 0.0, np.log(safe) + logs, -np.inf)
    return np.sign(tr) * np.exp(np.minimum(log_val, 700.0))


def _d_values(spec: OperatorSpec, E: np.ndarray) -> np.ndarray:
    tr, logs = discriminant_grid(spec, E)
    return _dense(tr, logs)


def _d_and_deriv_values(spec: OperatorSpec, E: np.ndarray):
    tr, dtr, logs = discriminant_and_derivative_grid(spec, E)
    return _dense(tr, logs), _dense(dtr, logs)


def _block_depth(n: int, left: int) -> int:
    """Levels of the bisection tree one call of f evaluates for n brackets.

    The largest d with n (2^d - 1) <= _BLOCK_ENERGIES, at least 1 and at
    most the ``left`` halvings that the widest live bracket still needs.
    """
    d = 1
    while d < left and n * (2 ** (d + 1) - 1) <= _BLOCK_ENERGIES:
        d += 1
    return d


def _bracket_done(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each bracket is at most _EDGE_BRACKET wide, or holds no float
    but its ends, so that no halving narrows it (possible only at
    |E| >= 2^19, where an ulp exceeds 1e-10).  A NaN bracket is done."""
    return ~(hi - lo > _EDGE_BRACKET) | ~(np.nextafter(lo, hi) < hi)


def _itp_points(lo, hi, r_lo, r_hi, kappa1, reach) -> np.ndarray:
    """One ITP point in each bracket [lo, hi] of a function with end values r_lo, r_hi.

    Interpolate, truncate, project (Oliveira and Takahashi, ACM TOMS 47,
    2020): the regula falsi point x_f, moved towards the midpoint by
    delta = kappa1 w^2 (w the width), then pulled into the ball of radius
    reach - w/2 around the midpoint, which keeps the minmax bound of
    bisection.  Where x_f is not in the bracket (no sign change, a NaN
    end value) the point is the midpoint.
    """
    mid = 0.5 * (lo + hi)
    w = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_f = lo + w * (r_lo / (r_lo - r_hi))
    x_f = np.where((lo <= x_f) & (x_f <= hi), x_f, mid)
    sigma = np.sign(mid - x_f)
    delta = kappa1 * w * w
    x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
    r = np.maximum(reach - 0.5 * w, 0.0)
    return np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)


def _vector_bisect(f, lo, hi, targets, r_lo, r_hi):
    """Narrow every [lo_i, hi_i] bracket of f - targets down to a width of at most 1e-10.

    ``r_lo`` and ``r_hi`` are f - target at the bracket ends, which the
    caller has read.  Each call of f takes points inside the live
    brackets, and each bracket keeps the part whose ends differ in sign:
    the lower end moves only onto a point where f - target has the sign
    it has at the lower end, so that sign decides every step.  A bracket
    is done once it is at most 1e-10 wide (:func:`_bracket_done`); one
    that starts that narrow takes no point.  Returns the final
    (lo, hi, r_lo, r_hi), with f - target at each end that an ITP point
    placed and NaN at the other ends, those given and those the tree
    placed.

    While more than _BLOCK_ENERGIES / 3 brackets are live, a call takes
    one point a bracket, its ITP point (:func:`_itp_points`) with
    kappa1 = 0.2 / w_0, kappa2 = 2 and n0 = 1 (w_0 the start width), and
    eps the half-width w_0 2^-(n + 1) that the n = ceil(log2(w_0 / 1e-10))
    halvings of bisection end at: the bracket is at most w_0 2^(1 - k)
    wide after k calls, so done after at most n + 1, one more than
    bisection, and after far fewer where f is smooth across it.

    Fewer brackets are halved in blocks of d levels (:func:`_block_depth`,
    with the halvings that the widest live bracket still needs): one call
    of f takes, for every live bracket, the 2^d - 1 midpoints of its
    d-level tree, the same floats that d halvings in turn would compute,
    and the signs of those values walk each bracket down the tree,
    stopping at the first node that is done.  f acts on each energy on
    its own, so a batch the tree takes from its first call gives bitwise
    the brackets of halving each one on its own until it is done.
    """
    out_lo, out_hi = lo.copy(), hi.copy()
    # the last ITP point placed at each end, and f - target there
    read_lo, read_hi, out_r_lo, out_r_hi = np.full((4, len(lo)), np.nan)
    live = np.flatnonzero(~_bracket_done(lo, hi))
    lo, hi, targets, r_lo, r_hi = (x[live] for x in (lo, hi, targets, r_lo, r_hi))
    sign_lo = np.sign(r_lo)
    # the width a bracket may have after the next ITP point, eps 2^(n + 1 - j)
    # before the j-th, j = 0, 1, ...
    reach = hi - lo
    kappa1 = 0.2 / reach
    while live.size:
        n = live.size
        if 3 * n > _BLOCK_ENERGIES:
            x = _itp_points(lo, hi, r_lo, r_hi, kappa1, reach)
            r = f(x) - targets
            upper = np.sign(r) == sign_lo
            lo, r_lo = np.where(upper, x, lo), np.where(upper, r, r_lo)
            hi, r_hi = np.where(upper, hi, x), np.where(upper, r_hi, r)
            read_lo[live[upper]], out_r_lo[live[upper]] = x[upper], r[upper]
            read_hi[live[~upper]], out_r_hi[live[~upper]] = x[~upper], r[~upper]
            leaving = _bracket_done(lo, hi)
            stay = ~leaving
            r_lo, r_hi, kappa1, reach = (v[stay] for v in (r_lo, r_hi, kappa1, 0.5 * reach))
        else:
            left = int(np.ceil(np.log2(np.max(hi - lo) / _EDGE_BRACKET)))
            d = _block_depth(n, left)
            # each bracket's tree of the next d halvings in heap order: node k
            # is the bracket [L[:, k], H[:, k]] with midpoint M[:, k] and
            # children 2k + 1 (the lower half) and 2k + 2 (the upper half)
            L = np.empty((n, 2 ** (d + 1) - 1))
            H = np.empty_like(L)
            M = np.empty((n, 2**d - 1))
            L[:, 0], H[:, 0] = lo, hi
            a = 0  # the first node of the level
            for _ in range(d):
                b = 2 * a + 1  # the first node of the next level
                m = M[:, a:b]
                np.multiply(0.5, L[:, a:b] + H[:, a:b], out=m)
                L[:, b : 2 * b : 2], L[:, b + 1 : 2 * b + 1 : 2] = L[:, a:b], m
                H[:, b : 2 * b : 2], H[:, b + 1 : 2 * b + 1 : 2] = m, H[:, a:b]
                a = b
            fm = f(M.ravel()).reshape(n, -1) - targets[:, None]
            upper = (np.sign(fm) == sign_lo[:, None]).ravel()
            # walk down with flat indices into the (n, ...) arrays, staying on
            # a node once it is done
            row_m = np.arange(0, M.size, M.shape[1])
            row_n = np.arange(0, L.size, L.shape[1])
            L, H = L.ravel(), H.ravel()
            done = _bracket_done(L, H)
            k = np.zeros(n, dtype=np.intp)
            for _ in range(d):
                k = np.where(done[row_n + k], k, 2 * k + 1 + upper[row_m + k])
            lo, hi = L[row_n + k], H[row_n + k]
            leaving = done[row_n + k]
        out_lo[live[leaving]], out_hi[live[leaving]] = lo[leaving], hi[leaving]
        stay = ~leaving
        live, lo, hi, targets, sign_lo = (x[stay] for x in (live, lo, hi, targets, sign_lo))
    # the tree reads only signs: an end it moved has no residual
    out_r_lo[out_lo != read_lo] = np.nan
    out_r_hi[out_hi != read_hi] = np.nan
    return out_lo, out_hi, out_r_lo, out_r_hi


def _band_zeros(spec: OperatorSpec, corner: complex | float = -1.0j) -> np.ndarray:
    """The q real roots of D(E) = 2 cos(kappa), ascending, via the Floquet eigenproblem.

    det(E - H(w)) = 0 with unimodular boundary phase w = e^{i kappa},
    ``corner`` = w at (site 1, site q) and its conjugate at (site q, site 1),
    is equivalent to D(E) = 2 cos(kappa).  The corner -i (kappa = pi/2)
    picks out the zeros of D; +1 and -1 (kappa = 0 and pi) the periodic and
    antiperiodic eigenvalues, where D = 2 and D = -2, which are the band
    edges of the spectrum.  The matrix is Hermitian, so clustered roots are
    resolved exactly; a real ``corner`` makes it real symmetric.

    Taken in zigzag order (sites 1, q, 2, q-1, ...) the cyclic tridiagonal
    matrix has bandwidth 2: every hopping, the corner included, joins
    positions at most two apart.  It is stored in upper band form, a (3, q)
    array, and solved by a banded eigensolve: O(q) memory and O(q^2) time,
    with no dense q x q matrix.  For q = 1 the matrix is the single entry
    V(1) + 2 cos(kappa).
    """
    q = spec.period
    V = spec.period_potential
    if q == 1:
        return V + 2.0 * corner.real
    # upper band form: entry (r, c), r <= c, of the reordered matrix at
    # ab[2 + r - c, c]; sites 1, 2, ... sit at the even positions and sites
    # q, q-1, ... at the odd ones
    ab = np.zeros((3, q), dtype=np.result_type(float, corner))
    ab[2, 0::2] = V[: (q + 1) // 2]
    ab[2, 1::2] = V[: (q - 1) // 2 : -1]
    # the hoppings 1 between neighbours on either side of the fold, two
    # positions apart; the corner at (site 1, site q), positions (0, 1)
    # above the diagonal, so no entry needs conjugating; and the hopping
    # across the fold, on the last two positions (q = 2: onto the corner)
    ab[0, 2:] = 1.0
    ab[1, 1] += corner
    ab[1, q - 1] += 1.0
    return scipy.linalg.eigvals_banded(ab)


def _log_derivative(E: np.ndarray, zeros: np.ndarray):
    """g = sum_j 1/(E - z_j) and g' = -sum_j 1/(E - z_j)^2, elementwise over E.

    For D = prod_j (E - z_j), g = D'/D.  The sums run over blocks of rows
    of the (len(E), len(zeros)) array of 1/(E - z_j), at most
    _SUM_BLOCK entries each, so no such array is ever held whole.
    """
    g = np.empty(len(E))
    dg = np.empty(len(E))
    rows = max(1, _SUM_BLOCK // len(zeros))
    for s in range(0, len(E), rows):
        r = 1.0 / (E[s : s + rows, None] - zeros)
        g[s : s + rows] = r.sum(axis=1)
        dg[s : s + rows] = -(r * r).sum(axis=1)
    return g, dg


def _interior_extrema(zeros: np.ndarray, n: int) -> np.ndarray:
    """The critical point of D between each of the first n pairs of consecutive zeros.

    D is monic with the simple real ``zeros`` z_1 < ... < z_q, so between
    z_i and z_i+1 its one critical point is the one root of
    g(E) = D'/D = sum_j 1/(E - z_j), which falls from +inf to -inf across
    the gap (g' < 0).  The n roots (at most q - 1) are solved
    together from the midpoints by Newton steps on
    phi = (E - z_i)(E - z_i+1) g, which has the
    same root without the two poles, each kept inside the bracket that the
    signs of g have left, with a bisection step wherever Newton would leave
    it.  A root is done once its step is at most 2 ulp of the larger end of
    its gap (5 steps from q = 5 to 1597 at lam = 2); one that is not done
    after _NEWTON_ITERS steps raises :class:`RootFindingError` rather than
    being returned unconverged.  The sums cost O(q^2) a step, in blocks of
    at most _SUM_BLOCK entries (:func:`_log_derivative`), and no evaluation
    of D is needed.  The separators are as accurate as the zeros: moving
    z_j moves a critical point by at most as much.  Each root takes its own
    steps, so the first n come out bitwise the same whatever n is.

    A gap with no float strictly inside (two float zeros equal or one ulp
    apart, as at 3/133 and 3/142, where bands are far narrower than an
    ulp) is not solved: its separator is the midpoint, which rounds onto
    one of its zeros.

    The ``zeros`` are those of Chambers' Delta, and Delta(-E) =
    (-1)^q Delta(E): for even q the middle critical point, between
    z_q/2 and z_q/2+1, is exactly 0 and is returned as 0.0, not solved
    (the float zeros are symmetric only to within their rounding, which
    would move it off 0).
    """
    if n < 1:
        return np.empty(0)
    lo, hi = zeros[:n].copy(), zeros[1 : n + 1].copy()
    E = 0.5 * (lo + hi)
    tol = 2.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    # the roots still being solved; where the two float zeros are equal or
    # one ulp apart, no float lies strictly inside the gap and the midpoint
    # rounds onto a zero, where g divides by zero: that separator is
    # already resolved to an ulp, and is returned as the midpoint
    live = np.flatnonzero((lo < E) & (E < hi))
    middle = len(zeros) // 2 - 1
    if len(zeros) % 2 == 0 and middle < n:
        E[middle] = 0.0
        live = live[live != middle]
    for _ in range(_NEWTON_ITERS):
        x = E[live]
        g, dg = _log_derivative(x, zeros)
        # g > 0: the root lies above x, g < 0: below it
        a = lo[live] = np.where(g > 0.0, x, lo[live])
        b = hi[live] = np.where(g < 0.0, x, hi[live])
        # Newton on phi = (x - z_i)(x - z_i+1) g, free of the two poles
        u, v = x - zeros[live], x - zeros[live + 1]
        new = x - u * v * g / ((u + v) * g + u * v * dg)
        # x itself is a bracket end once g is read there; any other end may
        # still be a zero of D, so Newton must land strictly inside
        bisect = ~(((new > a) & (new < b)) | (new == x))
        new[bisect] = 0.5 * (a[bisect] + b[bisect])
        E[live] = new
        done = np.abs(new - x) <= tol[live]
        live = live[~done]
        if not live.size:
            return E
    k = int(live[0])
    raise RootFindingError(
        f"{live.size} separators not converged after {_NEWTON_ITERS} Newton steps",
        (float(lo[k]), float(hi[k])),
    )


def _newton_finish(values_and_derivs, lo, hi, targets, sign_lo, r_lo, r_hi) -> np.ndarray:
    """Roots of D - targets inside their brackets, by Newton steps from the nearer end.

    ``values_and_derivs`` gives D and D' at an array of energies,
    ``sign_lo`` is the sign of D - target at each lower end, and ``r_lo``,
    ``r_hi`` are D - target at the ends that an ITP point placed, NaN at
    the others (:func:`_vector_bisect`).  The first iterate is the end
    with the smaller such |D - target|, or the midpoint where neither end
    has one.  At most _FINISH_STEPS steps: each reads D and D' at the
    iterate x, moves the end on x's side of the crossing onto x, and
    steps to x - (D - target) / D'.  A step that leaves the bracket is
    clamped onto it for an edge started at an end, since ITP leaves the
    crossing close to that end (a median 21 ulps at 233/377, in brackets
    some 66,000 ulps wide), where the float noise of D can put the step
    just outside; it goes to the bracket's midpoint for an edge started
    at the midpoint, and where it is NaN.  An edge stops once its step is
    at most 2 ulp.  Every iterate stays in the bracket it started from,
    so whatever D' reads, the edge stays within the bracket's width of
    the crossing.
    """
    lo, hi = lo.copy(), hi.copy()
    from_end = ~(np.isnan(r_lo) & np.isnan(r_hi))
    nearer_lo = ~(np.abs(r_lo) > np.abs(r_hi)) & ~np.isnan(r_lo)  # NaN: no residual
    x = np.where(from_end, np.where(nearer_lo, lo, hi), 0.5 * (lo + hi))
    live = np.arange(len(x))
    for _ in range(_FINISH_STEPS):
        xl = x[live]
        d, dp = values_and_derivs(xl)
        r = d - targets[live]
        upper = np.sign(r) == sign_lo[live]  # x lies below the crossing
        a = lo[live] = np.where(upper, xl, lo[live])
        b = hi[live] = np.where(upper, hi[live], xl)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = xl - r / dp
        new = np.where(from_end[live], np.minimum(np.maximum(new, a), b), new)
        outside = ~((new >= a) & (new <= b))
        new[outside] = 0.5 * (a[outside] + b[outside])
        x[live] = new
        live = live[np.abs(new - xl) > 2.0 * np.spacing(np.abs(xl))]
        if not live.size:
            break
    return x


def _sublevel_bands(spec: OperatorSpec, thr: float) -> SpectralSet:
    """The q pieces of {|D| <= thr} around the zeros of D.

    Only the union S of Chambers' Delta comes from here; the spectrum, S-
    and J_delta^c take their edges from eigenvalues
    (:func:`_floquet_bands`).  This function and the bisection engine it
    drives stay for S alone until S can take eigen edges too: its faster
    solve makes the benchmark run more rounds, and the benchmark harness
    keeps every round's output, so its peak memory would grow with the
    speed-up.  ``spec`` must be ``delta_spec(alpha, lam)``,
    whose D is Delta.  Every crossing edge is narrowed in one vectorized
    batch to a bracket at most 1e-10 wide (:func:`_vector_bisect`), then
    finished by Newton steps inside it (:func:`_newton_finish`).  The
    values of D - threshold at the bracket ends are those already read
    at the separators and the zeros (the plain and the derivative kernel
    give bitwise the same D), except at the even-q middle separator,
    where Delta is known exactly (below).

    Piece i runs from zero i outwards to where D crosses the threshold, or
    to the separator (the critical point between two zeros, from
    :func:`_interior_extrema`) where it does not.

    Delta(-E) = (-1)^q Delta(E), so the set is symmetric under E -> -E,
    and only the q edges at or below 0 are solved: the separators, zeros
    and bisections of the lower half.  The upper q edges are their
    reflections, 0.0 - edge, which keeps an edge at 0 at +0.0.  The same
    fact fixes the middle: for even q the middle separator is exactly 0
    with Delta(0) = (-1)^(q/2) (2 + 2 (lam/2)^q), the closed central gap,
    so the two middle bands of S end at exactly 0; for odd q Delta is odd
    and its middle zero is exactly 0, so a collapsed middle band is
    [0.0, 0.0].  These are taken from the symmetry and not from the float
    kernel.

    No set the package computes swallows a gap, so a separator that reads
    below its threshold is a touching edge read with evaluation noise.  By
    Chambers, D_theta = Delta - 2 (lam/2)^q cos(q theta) has the same
    critical points E* for every theta, and D_theta' vanishes only where
    |D_theta| >= 2, so |Delta(E*)| >= 2 + 2 (lam/2)^q, the threshold of S.
    A piece narrower than double-precision resolution collapses onto its
    zero.
    """
    q = spec.period
    thr = float(thr)
    if q == 1:  # Delta(E) = E
        return SpectralSet([(-thr, thr)])

    outer = 2.0 + spec.coupling + max(2.5, spec.coupling / 2.0 + 2.0, thr ** (1.0 / q) + 1.5)

    f = lambda E: _d_values(spec, E)
    fd = lambda E: _d_and_deriv_values(spec, E)
    h = (q + 1) // 2  # the pieces with a lower edge at or below 0
    zeros = _band_zeros(spec)
    # the separators below 0, piece i between separators i and i + 1
    sep = np.concatenate(([-outer], _interior_extrema(zeros, q // 2)))
    sep_vals = f(sep)
    zeros = zeros[:h]
    if q % 2 == 0:
        # the closed central gap, from the symmetry of Delta (docstring)
        sep_vals[-1] = (-1.0) ** (q // 2) * (2.0 + 2.0 * (spec.lam / 2.0) ** q)
    else:
        zeros[-1] = 0.0  # the odd middle zero (docstring)
    d_at_zeros, slope = fd(zeros)
    mono = np.where(slope >= 0.0, 1, -1)

    # target value of D at the lower/upper edge of each piece
    lower_target = np.where(mono > 0, -thr, thr)
    upper_target = np.where(mono > 0, thr, -thr)

    # every crossing edge of the lower half is narrowed in one vectorized
    # batch; slot 2 i + which is edge ``which`` of piece i
    batch_lo: list[float] = []
    batch_hi: list[float] = []
    batch_target: list[float] = []
    batch_r_lo: list[float] = []  # D - target at the lower end
    batch_r_hi: list[float] = []  # and at the upper end
    batch_slot: list[int] = []
    found = np.empty(2 * q)
    for i in range(h):
        est_width = 2.0 * thr / max(abs(slope[i]), 1e-300)
        if abs(d_at_zeros[i]) >= thr * (1.0 - 1e-12) or est_width < 1e-8:
            # band at or below double-precision resolution (readings of
            # D around it are noise); both edges collapse onto the zero,
            # which the eigensolve knows exactly -- the measure lost is
            # below 1e-8 per band
            found[2 * i : 2 * i + 2] = zeros[i]
            continue
        for which, target in ((0, lower_target[i]), (1, upper_target[i])):
            if 2 * i + which == q:  # the odd middle piece's upper edge, a reflection
                break
            s, s_val = sep[i + which], sep_vals[i + which]
            # compare, not multiply: the product of the two offsets
            # overflows where a saturated outer value meets a large target
            if min(s_val, d_at_zeros[i]) < target < max(s_val, d_at_zeros[i]):
                lo_i, hi_i, lo_val, hi_val = (
                    (s, zeros[i], s_val, d_at_zeros[i])
                    if which == 0
                    else (zeros[i], s, d_at_zeros[i], s_val)
                )
                batch_slot.append(2 * i + which)
                batch_lo.append(lo_i)
                batch_hi.append(hi_i)
                batch_target.append(target)
                batch_r_lo.append(lo_val - target)
                batch_r_hi.append(hi_val - target)
            else:
                # D does not cross the threshold before the separator
                found[2 * i + which] = s

    if batch_slot:
        targets, r_lo = np.asarray(batch_target), np.asarray(batch_r_lo)
        lo, hi, r_lo_end, r_hi_end = _vector_bisect(
            f, np.asarray(batch_lo), np.asarray(batch_hi), targets, r_lo, np.asarray(batch_r_hi)
        )
        found[batch_slot] = _newton_finish(
            fd, lo, hi, targets, np.sign(r_lo), r_lo_end, r_hi_end
        )

    found[q:] = 0.0 - found[q - 1 :: -1]
    found = found.reshape(q, 2)
    swap = found[:, 1] < found[:, 0]
    found[swap] = found[swap, ::-1]
    return SpectralSet(found)


# ---------------------------------------------------------------------------
# edges from eigenvalues, and Delta' from the zeros


def _floquet_bands(periodic: OperatorSpec, antiperiodic: OperatorSpec) -> np.ndarray:
    """(q, 2) bands from the periodic eigenvalues of one operator and the antiperiodic ones of another.

    The q roots of D = 2 of ``periodic`` (corner +1) and the q roots of
    D = -2 of ``antiperiodic`` (corner -1), both of period q, sorted
    together and paired in order.  Given one operator twice, these are its
    q spectral bands; given Chambers' shifted phases, the bands of a
    sublevel set of Delta (:func:`_chambers_bands`).
    """
    edges = np.sort(
        np.concatenate((_band_zeros(periodic, 1.0), _band_zeros(antiperiodic, -1.0)))
    )
    return edges.reshape(periodic.period, 2)


def _reflected(lower: np.ndarray) -> SpectralSet:
    """The set symmetric under E -> -E whose edges at or below 0 are ``lower``, ascending.

    The other edges are the reflections 0.0 - edge, in reverse order.
    Each edge of ``lower`` lies at or below 0 in exact arithmetic, so one
    that reads at or above 0 (a middle edge at 0, read with rounding) is
    taken as +0.0, and the set is symmetric bit for bit.
    """
    lower = np.where(lower >= 0.0, 0.0, lower)
    return SpectralSet(np.concatenate((lower, 0.0 - lower[::-1])).reshape(-1, 2))


def _chambers_bands(
    alpha: ReducedRational, lam: float, theta_plus: float, theta_minus: float
) -> SpectralSet:
    """The q bands of {|Delta| <= thr}, thr <= 2 + 2 (lam/2)^q, from eigenvalues.

    D_theta = Delta - 2 (lam/2)^q cos(q theta) (Chambers), so Delta = thr
    where D_theta = 2 at a ``theta_plus`` with 2 (lam/2)^q cos(q theta_plus)
    = thr - 2, and Delta = -thr where D_theta = -2 at a ``theta_minus``
    with 2 (lam/2)^q cos(q theta_minus) = 2 - thr: the periodic eigenvalues
    at theta_plus and the antiperiodic ones at theta_minus, paired into q
    bands (:func:`_floquet_bands`), touching ones as double eigenvalues.
    Only the q lowest edges are kept, the rest are their reflections
    (:func:`_reflected`).
    """
    edges = _floquet_bands(
        OperatorSpec.almost_mathieu(alpha, lam, theta_plus),
        OperatorSpec.almost_mathieu(alpha, lam, theta_minus),
    )
    return _reflected(edges.ravel()[: alpha.q])


def _merged_sublevel(alpha: ReducedRational, thr: float) -> SpectralSet:
    """{|Delta| <= thr} at lam = 2 for thr > 4, where bands merge into fewer components.

    Delta = +-thr has fewer than q real roots here, so no phase shift
    reaches them.  At theta = pi/(2q) (:func:`delta_spec`) D is Delta, and
    the Floquet matrix with the real corner w at (site 1, site q) and 1/w
    at (site q, site 1) has det(E - H) = D(E) - (w + 1/w).  With w + 1/w =
    thr and = -thr, its real eigenvalues are the real roots of Delta = thr
    and of Delta = -thr: the edges of the set, which sorted pair into its
    components.  The matrix is real and not symmetric, so it is solved
    dense, in O(q^2) memory; a real eigenvalue comes with an imaginary
    part of exactly 0.  Of the commands, only `measure-decay` with
    `--delta` above 4 reaches this, at the base q.  The edges below 0 are
    kept and reflected
    (:func:`_reflected`): |Delta(0)| <= 4 < thr, so the middle component
    holds 0.
    """
    q = alpha.q
    H = np.diag(delta_spec(alpha, 2.0).period_potential) + np.eye(q, k=1) + np.eye(q, k=-1)
    w = 0.5 * (thr + math.sqrt(thr * thr - 4.0))
    roots = []
    for corner in (w, -w):
        Hc = H.copy()
        Hc[0, q - 1] += corner  # q = 1 and 2: onto the diagonal and the hopping
        Hc[q - 1, 0] += 1.0 / corner
        ev = scipy.linalg.eigvals(Hc)
        roots.append(ev.real[ev.imag == 0.0])
    edges = np.sort(np.concatenate(roots))
    return _reflected(edges[edges < 0.0])


def _log_abs_derivative_at_zeros(zeros: np.ndarray) -> np.ndarray:
    """ln |D'(z_i)| = sum_{j != i} ln |z_i - z_j| at each of the simple ``zeros`` of a monic D.

    The sums run over blocks of rows of the (q, q) array of |z_i - z_j|,
    at most _SUM_BLOCK entries each, so no such array is ever held whole.
    """
    q = len(zeros)
    out = np.empty(q)
    rows = max(1, _SUM_BLOCK // q)
    for s in range(0, q, rows):
        d = np.abs(zeros[s : s + rows, None] - zeros)
        k = np.arange(len(d))
        d[k, s + k] = 1.0  # the term j = i
        out[s : s + rows] = np.log(d).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# public operations


def spectrum_bands(spec: OperatorSpec) -> SpectralSet:
    """The q bands {|D_theta| <= 2} of a period-q operator, from eigenvalues.

    Every band runs between a root of D = 2 and one of D = -2, the q
    periodic and q antiperiodic Floquet eigenvalues, so the 2q of them
    sorted pair up into the q bands (:func:`_floquet_bands`); touching
    bands share a double eigenvalue.  Band i of q is oriented by
    :func:`band_parity`: D runs up across it where (-1)^(q - i) = 1 and
    down where it is -1.
    """
    return SpectralSet(_floquet_bands(spec, spec))


def band_parity(q: int) -> np.ndarray:
    """The sign of D' on bands 1..q of a period-q spectrum: (-1)^(q - i) on band i.

    D is monic of degree q, so it increases on the top band and alternates
    below it.
    """
    return np.where((q - np.arange(1, q + 1)) % 2 == 0, 1, -1)


def spectral_union_S(alpha: ReducedRational, lam: float) -> SpectralSet:
    """Union over theta of the spectra: {|Delta| <= 2 + 2 (lam/2)^q}, by bisection."""
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    thr = 2.0 + 2.0 * (lam / 2.0) ** alpha.q
    s = _sublevel_bands(delta_spec(alpha, lam), thr)
    if len(s) != alpha.q:  # fewer bands would mean lost measure
        raise RootFindingError(f"S({alpha}) came out with {len(s)} bands, expected {alpha.q}")
    return s


def sminus_points(alpha: ReducedRational, lam: float = 2.0):
    """Intersection over theta of the spectra, for a coupling lam > 0.

    At lam = 2 this degenerates to the q zeros of Delta, the roots of the
    Floquet eigenproblem at kappa = pi/2, and comes as a read-only float64
    array, ascending; for 0 < lam < 2 the set is {|Delta| <= 2 - 2
    (lam/2)^q}, whose edges are the periodic eigenvalues at theta = pi/q
    and the antiperiodic ones at theta = 0 (:func:`_chambers_bands`), and
    a SpectralSet is returned; for lam > 2 it is empty.
    """
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    if lam > 2.0:
        return SpectralSet(())
    if lam < 2.0:
        return _chambers_bands(alpha, lam, math.pi / alpha.q, 0.0)

    # The Hermitian eigensolve places every zero within a few ulp (backward
    # stable, perfectly conditioned); a derivative polish would only chase
    # the noise-shifted crossing of the double-precision Delta, so the
    # eigenvalues are returned as-is.  Placement is certified against
    # 40-digit arithmetic in the test suite.
    zeros = _band_zeros(delta_spec(alpha, lam))
    zeros.flags.writeable = False
    return zeros


def last_wilkinson_sum(alpha: ReducedRational) -> float:
    """sum_n 1 / |Delta'(E_n)| over the q zeros of Delta at lam = 2.

    Equals 1/q identically for every reduced p/q.  Delta is monic with
    the zeros z_i, so each term is exp(-sum_{j != i} ln |z_i - z_j|)
    (:func:`_log_abs_derivative_at_zeros`), read off the zeros alone.
    """
    zeros = sminus_points(alpha, 2.0)
    return float(np.sum(np.exp(-_log_abs_derivative_at_zeros(zeros))))


def jdelta_sets(alpha: ReducedRational, delta_: float) -> JDeltaResult:
    """J_delta = {|Delta| > delta} at lam = 2, via its complement.

    J^c = {|Delta| <= delta}: q closed intervals around the zeros of Delta
    for delta <= 4, where every extremum of Delta reads at least 4 in
    absolute value; their edges are the periodic eigenvalues at theta =
    acos((delta - 2)/2)/q and the antiperiodic ones at acos((2 - delta)/2)/q
    (:func:`_chambers_bands`).  Above 4, intervals merge into fewer
    components (:func:`_merged_sublevel`).  The 2 e delta / q measure
    bound is reported, never raised.
    """
    if delta_ <= 0.0:
        raise ValueError("delta must be positive")
    q = alpha.q
    if delta_ <= 4.0:
        theta_plus = math.acos((delta_ - 2.0) / 2.0) / q
        theta_minus = math.acos((2.0 - delta_) / 2.0) / q
        comp = _chambers_bands(alpha, 2.0, theta_plus, theta_minus)
    else:
        comp = _merged_sublevel(alpha, delta_)
    meas = comp.measure
    bound = 2.0 * math.e * delta_ / q
    return JDeltaResult(delta_, comp, meas, bound, meas <= bound * (1 + 1e-12))


def jdelta_sweep(alpha: ReducedRational, deltas: list[float]) -> list[JDeltaResult]:
    """:func:`jdelta_sets` at each delta in turn."""
    return [jdelta_sets(alpha, d) for d in deltas]


def band_edge_bound_check(alpha: ReducedRational, delta_: float) -> BandEdgeReport:
    """Check |E - E_nu| <= e |Delta(E)| / |Delta'(E)| at J_delta^c band edges.

    The inequality is guaranteed at interior-band edges and at the inward
    side of the two extremal bands; outward extremal edges are evaluated and
    reported but not mandated.  |Delta / Delta'| (E) is 1 / |sum_j 1/(E -
    z_j)| over the zeros z_j of Delta (:func:`_log_derivative`).  A delta
    so large that J_delta^c does not come back as q bands (one around each
    zero) raises ValueError.
    """
    res = jdelta_sets(alpha, delta_)
    zeros = sminus_points(alpha, 2.0)
    q = alpha.q
    n_bands = len(res.complement)
    if n_bands != q:
        raise ValueError(
            f"J_delta^c of {alpha} at delta {delta_} has {n_bands} bands, expected {q}"
        )
    E = res.complement.edges.ravel()
    ratio = 1.0 / np.abs(_log_derivative(E, zeros)[0])
    edges = []
    for j, zero in enumerate(zeros.tolist()):
        for s, side in enumerate(("lower", "upper")):
            n = 2 * j + s
            margin = math.e * ratio[n] - abs(E[n] - zero)
            outward = (j == 0 and side == "lower") or (j == q - 1 and side == "upper")
            edges.append(
                EdgeMargin(j + 1, side, float(E[n]), float(margin), not outward)
            )
    return BandEdgeReport(delta_, tuple(edges))


def ids_profile(spec: OperatorSpec, energies: np.ndarray) -> np.ndarray:
    """Integrated density of states via Floquet band counting, on a grid.

    On band j the IDS interpolates between (j-1)/q and j/q through the Bloch
    phase arccos(D/2), the imaginary part of the Floquet exponent, oriented
    by :func:`band_parity`; it is constant on gaps, 0 below and 1 above
    the spectrum.  The bands are computed once.
    """
    bands = spectrum_bands(spec)
    q = spec.period
    E = np.asarray(energies, dtype=np.float64)
    phi = floquet_exponent(*discriminant_grid(spec, E)).imag
    lows, his = bands.edges.T
    pos = np.searchsorted(lows, E, side="right")
    idx = np.maximum(pos - 1, 0)
    below = pos == 0
    in_gap = ~below & (E > his[idx])
    inside = ~below & ~in_gap
    out = np.zeros(E.shape)
    out[in_gap] = (idx[in_gap] + 1.0) / q
    j = idx[inside] + 1.0
    m = band_parity(q)[idx[inside]]
    out[inside] = np.where(
        m > 0,
        (j - phi[inside] / math.pi) / q,
        (j - 1.0 + phi[inside] / math.pi) / q,
    )
    return out

