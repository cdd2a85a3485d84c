"""Band structure and spectral sets of periodic almost Mathieu operators.

The spectrum of a period-q operator is {E : |D(E)| <= 2}, a union of q
closed bands on which the discriminant D is strictly monotone.  The union
and intersection over the phase theta are sublevel sets of Chambers' Delta
at thresholds 2 +- 2(lam/2)^q.  All of those are found the same way here:

  1. anchor the q simple real zeros of the polynomial: D(E) = 2 cos(kappa)
     exactly at the eigenvalues of the q x q Floquet matrix with boundary
     phase e^{i kappa}, so kappa = pi/2 hands over the zeros even when
     neighbouring zeros cluster exponentially close (grid sign-change
     scans provably miss those at critical coupling),
  2. locate the q-1 interior extrema (sign changes of the derivative
     between consecutive zeros),
  3. from each zero walk out to the enclosing separators and bisect the
     monotone piece down to |D| = threshold, finishing with one derivative
     step; an extremum already sitting at the threshold is a touching band
     edge and is taken verbatim.

Evaluation uses the scaled vectorized transfer recurrence from
:mod:`almost_mathieu.core`, so nothing overflows at large q.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    DualComplex,
    OperatorSpec,
    ReducedRational,
    discriminant,
    discriminant_and_derivative_grid,
    discriminant_grid,
    potential_array,
    potential_eval,
    delta as chambers_delta,
    _mp_trace,
)

_BISECT_ITERS = 60

__all__ = [
    "Band",
    "SpectralSet",
    "SminusPoints",
    "JDeltaResult",
    "EdgeMargin",
    "BandEdgeReport",
    "HolderReport",
    "RootFindingError",
    "spectrum_bands",
    "spectral_union_S",
    "sminus_points",
    "last_wilkinson_sum",
    "jdelta_sets",
    "jdelta_sweep",
    "band_edge_bound_check",
    "set_measure",
    "ids_eval",
    "ids_profile",
    "holder_inclusion_check",
]


class RootFindingError(RuntimeError):
    """Raised when the grid cannot isolate the expected number of roots."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class Band:
    """One closed band [lo, hi]; monotonicity is the sign of D' on it."""

    lo: float
    hi: float
    index: int
    monotonicity: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, E: float) -> bool:
        return self.lo <= E <= self.hi


@dataclass(frozen=True)
class SpectralSet:
    """Ordered union of closed bands, disjoint except for touching endpoints."""

    bands: tuple[Band, ...]

    @property
    def measure(self) -> float:
        return float(sum(b.width for b in self.bands))

    def intervals(self) -> list[tuple[float, float]]:
        return [(b.lo, b.hi) for b in self.bands]

    def contains(self, E: float, slack: float = 0.0) -> bool:
        return any(b.lo - slack <= E <= b.hi + slack for b in self.bands)

    def distance(self, E: float) -> float:
        if not self.bands:
            return math.inf
        best = math.inf
        for b in self.bands:
            if b.lo <= E <= b.hi:
                return 0.0
            best = min(best, abs(E - b.lo), abs(E - b.hi))
        return best

    def intersection_measure(self, other: "SpectralSet") -> float:
        """Lebesgue measure of the intersection, exact interval clipping."""
        total = 0.0
        mine = self.intervals()
        theirs = other.intervals()
        i = j = 0
        while i < len(mine) and j < len(theirs):
            lo = max(mine[i][0], theirs[j][0])
            hi = min(mine[i][1], theirs[j][1])
            if hi > lo:
                total += hi - lo
            if mine[i][1] < theirs[j][1]:
                i += 1
            else:
                j += 1
        return total

    @staticmethod
    def from_intervals(intervals, merge_overlaps: bool = True) -> "SpectralSet":
        ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
        if merge_overlaps:
            merged: list[list[float]] = []
            for lo, hi in ivs:
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            ivs = [(lo, hi) for lo, hi in merged]
        bands = tuple(
            Band(lo, hi, k + 1, 0) for k, (lo, hi) in enumerate(ivs)
        )
        return SpectralSet(bands)


@dataclass(frozen=True)
class SminusPoints:
    """The q zeros of Chambers' Delta at critical coupling."""

    energies: tuple[float, ...]


@dataclass(frozen=True)
class JDeltaResult:
    """J_delta represented through its bounded complement J_delta^c."""

    variant: int
    delta: float
    complement: SpectralSet
    measure_complement: float
    bound: float | None
    bound_ok: bool | None


@dataclass(frozen=True)
class EdgeMargin:
    band_index: int
    side: str
    energy: float
    zero: float
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


@dataclass(frozen=True)
class HolderReport:
    bound: float
    max_distance: float
    max_ratio: float
    n_samples: int
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


# ---------------------------------------------------------------------------
# scaled-evaluation helpers


def _mp_discriminant_value(spec: OperatorSpec, E: float) -> float:
    """D(E) in extended precision, for noise-free tangency decisions.

    Potential samples are the same binary rationals the float path uses, so
    this evaluates the identical polynomial without the eps * (internal
    growth) evaluation noise of the double recurrence.
    """
    import mpmath

    q = spec.period
    dps = 35 + int(q * math.log10(abs(E) + spec.coupling + 3.0)) + 1
    with mpmath.workdps(dps):
        potentials = [mpmath.mpf(potential_eval(spec, j)) for j in range(1, q + 1)]
        return float(_mp_trace(mpmath.mpf(E), potentials))


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


def _vector_bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of a vectorized sign-changing f, one per [lo_i, hi_i] bracket."""
    flo = f(lo)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _band_zeros(spec: OperatorSpec) -> np.ndarray:
    """The q simple real zeros of D, via the Floquet eigenproblem.

    det(E - H(w)) = 0 with unimodular boundary phase w = e^{i kappa} is
    equivalent to D(E) = 2 cos(kappa); kappa = pi/2 picks out the zeros.
    The matrix is Hermitian, so clustered zeros are resolved exactly.
    """
    q = spec.period
    V = potential_array(spec, 1, q)
    if q == 1:
        return V.astype(np.float64)
    H = np.zeros((q, q), dtype=np.complex128)
    H[np.arange(q), np.arange(q)] = V
    idx = np.arange(q - 1)
    H[idx, idx + 1] = 1.0
    H[idx + 1, idx] = 1.0
    H[0, q - 1] += -1.0j
    H[q - 1, 0] += 1.0j
    return np.sort(np.linalg.eigvalsh(H).real)


def _interior_extrema(spec: OperatorSpec, zeros: np.ndarray, deriv) -> np.ndarray:
    """One extremum of D between each pair of consecutive zeros."""
    if len(zeros) < 2:
        return np.empty(0)
    return _vector_bisect(deriv, zeros[:-1].copy(), zeros[1:].copy())


def _newton_polish(values_and_derivs, roots: np.ndarray, target: np.ndarray) -> np.ndarray:
    d, dp = values_and_derivs(roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (d - target) / dp
    step = np.where(np.isfinite(step), step, 0.0)
    step = np.clip(step, -1e-9, 1e-9)
    return roots - step


def _merged_components(f, seps: np.ndarray, sep_vals: np.ndarray, thr: float) -> list[Band]:
    """Components of {|D| <= thr} when the threshold swallows some gaps.

    Walks the monotone segments between separators; every crossing of
    D = +thr or D = -thr toggles membership, so sorted crossings pair up
    into component boundaries.
    """
    batch_lo, batch_hi, batch_t = [], [], []
    for i in range(len(seps) - 1):
        for level in (thr, -thr):
            if (sep_vals[i] - level) * (sep_vals[i + 1] - level) < 0.0:
                batch_lo.append(seps[i])
                batch_hi.append(seps[i + 1])
                batch_t.append(level)
    targets = np.asarray(batch_t)
    crossings = np.sort(
        _vector_bisect(lambda E: f(E) - targets, np.asarray(batch_lo), np.asarray(batch_hi))
    )
    if len(crossings) % 2 != 0:
        raise RootFindingError(
            f"odd number of threshold crossings ({len(crossings)})"
        )
    return [
        Band(float(crossings[2 * k]), float(crossings[2 * k + 1]), k + 1, 0)
        for k in range(len(crossings) // 2)
    ]


def _sublevel_bands(spec: OperatorSpec, thr: float) -> list[Band]:
    """The q closed components of {|D| <= thr}, anchored on the zeros of D.

    Every threshold used by the spectral sets satisfies |D| >= thr at the
    interior extrema (equality produces touching bands); thresholds beyond
    that regime fall back to the merged-component walk.
    """
    q = spec.period
    if q == 1:
        center = float(_band_zeros(spec)[0])
        return [Band(center - thr, center + thr, 1, +1)]

    bound = 2.0 + spec.coupling
    margin = max(2.5, spec.coupling / 2.0 + 2.0, thr ** (1.0 / q) + 1.5)
    lo_b, hi_b = -bound - margin, bound + margin

    f = lambda E: _d_values(spec, E)
    fd = lambda E: _d_and_deriv_values(spec, E)
    zeros = _band_zeros(spec)
    extrema = _interior_extrema(spec, zeros, lambda E: fd(E)[1])

    # Double-precision readings of D at threshold-tangent extrema carry
    # evaluation noise far above eps near gap spikes; any extremum whose
    # reading dips below the threshold is re-evaluated in extended
    # precision, which cleanly separates touching bands (a closed gap,
    # exactly at the threshold) from genuinely swallowed ones.
    ext_vals = f(extrema) if len(extrema) else np.empty(0)
    suspicious = np.nonzero(thr - np.abs(ext_vals) > 1e-9 * thr)[0]
    for i in suspicious:
        ext_vals[i] = _mp_discriminant_value(spec, float(extrema[i]))
    if np.any(thr - np.abs(ext_vals) > max(2e-5, 1e-9 * thr)):
        seps = np.concatenate(([lo_b], extrema, [hi_b]))
        return _merged_components(f, seps, f(seps), thr)

    left_sep = np.concatenate(([lo_b], extrema))
    right_sep = np.concatenate((extrema, [hi_b]))
    _, slope = fd(zeros)
    mono = np.where(slope >= 0.0, 1, -1)

    bound_vals = f(np.array([lo_b, hi_b]))
    sep_vals_left = np.concatenate(([bound_vals[0]], ext_vals))
    sep_vals_right = np.concatenate((ext_vals, [bound_vals[1]]))
    d_at_zeros = f(zeros)

    # target value of D at the lower/upper edge of each band
    lower_target = np.where(mono > 0, -thr, thr)
    upper_target = np.where(mono > 0, thr, -thr)

    lower = np.empty(q)
    upper = np.empty(q)

    # all crossing edges are bisected in one vectorized batch
    batch_lo: list[float] = []
    batch_hi: list[float] = []
    batch_target: list[float] = []
    batch_slot: list[tuple[int, int]] = []
    for i in range(q):
        est_width = 2.0 * thr / max(abs(slope[i]), 1e-300)
        if abs(d_at_zeros[i]) >= thr * (1.0 - 1e-12) or est_width < 1e-8:
            # band at or below double-precision resolution (readings of D
            # around it are noise); both edges collapse onto the zero, which
            # the eigensolve knows exactly -- the measure lost is below
            # 1e-8 per band
            lower[i] = zeros[i]
            upper[i] = zeros[i]
            continue
        for which, sep, sep_val, target in (
            (0, left_sep[i], sep_vals_left[i], lower_target[i]),
            (1, right_sep[i], sep_vals_right[i], upper_target[i]),
        ):
            if (sep_val - target) * (d_at_zeros[i] - target) < 0.0:
                lo_i, hi_i = (sep, zeros[i]) if which == 0 else (zeros[i], sep)
                batch_slot.append((i, which))
                batch_lo.append(lo_i)
                batch_hi.append(hi_i)
                batch_target.append(target)
                continue
            # no crossing: the separator sits on the threshold (touching band)
            if abs(abs(sep_val) - thr) > max(2e-5, 1e-9 * thr) and math.isfinite(
                sep_val
            ):
                raise RootFindingError(
                    f"separator value {sep_val} inconsistent with threshold {thr}",
                    bracket=(min(sep, zeros[i]), max(sep, zeros[i])),
                )
            if which == 0:
                lower[i] = sep
            else:
                upper[i] = sep

    if batch_slot:
        targets = np.asarray(batch_target)
        g = lambda E: f(E) - targets
        roots = _vector_bisect(g, np.asarray(batch_lo), np.asarray(batch_hi))
        roots = _newton_polish(fd, roots, targets)  # one derivative step
        for (i, which), r in zip(batch_slot, roots):
            if which == 0:
                lower[i] = float(r)
            else:
                upper[i] = float(r)

    bands = []
    for i in range(q):
        lo, hi = float(lower[i]), float(upper[i])
        if hi < lo:
            lo, hi = hi, lo
        bands.append(Band(lo, hi, i + 1, int(mono[i])))
    return bands


# ---------------------------------------------------------------------------
# public operations


def _q_bands(bands: list[Band], q: int, name: str) -> SpectralSet:
    """The set of ``bands``, which must number q: fewer means lost measure."""
    if len(bands) != q:
        raise RootFindingError(f"{name} came out with {len(bands)} bands, expected {q}")
    return SpectralSet(tuple(bands))


def spectrum_bands(spec: OperatorSpec) -> SpectralSet:
    """The q bands {|D_theta| <= 2} of a period-q operator."""
    return _q_bands(_sublevel_bands(spec, 2.0), spec.period, "spectrum")


def _delta_spec(alpha: ReducedRational, lam: float) -> OperatorSpec:
    return OperatorSpec.almost_mathieu(alpha, lam, math.pi / (2.0 * alpha.q))


def spectral_union_S(alpha: ReducedRational, lam: float) -> SpectralSet:
    """Union over theta of the spectra: {|Delta| <= 2 + 2 (lam/2)^q}."""
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    thr = 2.0 + 2.0 * (lam / 2.0) ** alpha.q
    return _q_bands(_sublevel_bands(_delta_spec(alpha, lam), thr), alpha.q, f"S({alpha})")


def sminus_points(alpha: ReducedRational, lam: float = 2.0):
    """Intersection over theta of the spectra.

    At lam = 2 this degenerates to the q zeros of Delta, found directly by
    zero-finding rather than as a sublevel set at threshold zero; for
    lam < 2 the set is {|Delta| <= 2 - 2 (lam/2)^q} and a SpectralSet is
    returned; for lam > 2 it is empty.
    """
    spec = _delta_spec(alpha, lam)
    if lam > 2.0:
        return SpectralSet(())
    if lam < 2.0:
        thr = 2.0 - 2.0 * (lam / 2.0) ** alpha.q
        return SpectralSet(tuple(_sublevel_bands(spec, thr)))

    # The Hermitian eigensolve places every zero within a few ulp (backward
    # stable, perfectly conditioned); a derivative polish would only chase
    # the noise-shifted crossing of the double-precision Delta, so the
    # eigenvalues are returned as-is.  Placement is certified against
    # 40-digit arithmetic in the test suite.
    zeros = np.sort(_band_zeros(spec))
    return SminusPoints(tuple(float(z) for z in zeros))


def last_wilkinson_sum(alpha: ReducedRational) -> float:
    """sum_n 1 / |Delta'(E_n)| over the q zeros of Delta at lam = 2.

    Equals 1/q identically for every reduced p/q.
    """
    pts = sminus_points(alpha, 2.0)
    spec = _delta_spec(alpha, 2.0)
    zeros = np.asarray(pts.energies)
    _, dp = _d_and_deriv_values(spec, zeros)
    return float(np.sum(1.0 / np.abs(dp)))


def jdelta_sets(alpha: ReducedRational, delta_: float, variant: int) -> JDeltaResult:
    """J_delta (energies far from the critical set) via its complement.

    Variant 1: J^c = {|Delta| <= delta}, q closed intervals around the zeros
    of Delta.  Variant 2: J^c = the closed delta-neighbourhood of the q
    zeros, merged when overlapping.  The 2 e delta / q measure bound applies
    to variant 1 and is reported, never raised.
    """
    if delta_ <= 0.0:
        raise ValueError("delta must be positive")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if variant == 1:
        spec = _delta_spec(alpha, 2.0)
        bands = _sublevel_bands(spec, delta_)
        comp = SpectralSet(tuple(bands))
        meas = comp.measure
        bound = 2.0 * math.e * delta_ / alpha.q
        return JDeltaResult(1, delta_, comp, meas, bound, meas <= bound * (1 + 1e-12))
    pts = sminus_points(alpha, 2.0)
    comp = SpectralSet.from_intervals(
        [(E - delta_, E + delta_) for E in pts.energies]
    )
    return JDeltaResult(2, delta_, comp, comp.measure, None, None)


def jdelta_sweep(
    alpha: ReducedRational, deltas: list[float], variant: int = 1
) -> list[JDeltaResult]:
    """jdelta_sets over many deltas with one shared zero/extremum structure.

    All edges of all sublevels are bisected in a single vectorized batch,
    which is what makes full (q, delta) grids cheap.  Results match
    jdelta_sets delta by delta.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    if variant != 1:
        return [jdelta_sets(alpha, d, variant) for d in deltas]
    spec = _delta_spec(alpha, 2.0)
    q = alpha.q
    zeros = np.sort(_band_zeros(spec))

    if q == 1:
        out = []
        for d in deltas:
            comp = SpectralSet(
                (Band(float(zeros[0] - d), float(zeros[0] + d), 1, +1),)
            )
            bound = 2.0 * math.e * d / q
            out.append(
                JDeltaResult(1, d, comp, comp.measure, bound, comp.measure <= bound * (1 + 1e-12))
            )
        return out

    f = lambda E: _d_values(spec, E)
    fd = lambda E: _d_and_deriv_values(spec, E)
    extrema = _interior_extrema(spec, zeros, lambda E: fd(E)[1])
    _, slope = fd(zeros)
    mono = np.where(slope >= 0.0, 1, -1)
    d_at_zeros = f(zeros)
    bound_lo = -(2.0 + 2.0) - 2.5
    bound_hi = -bound_lo
    left_sep = np.concatenate(([bound_lo], extrema))
    right_sep = np.concatenate((extrema, [bound_hi]))

    batch_lo, batch_hi, batch_t, batch_slot = [], [], [], []
    edges = {}
    for k, d in enumerate(deltas):
        for i in range(q):
            est_width = 2.0 * d / max(abs(slope[i]), 1e-300)
            if abs(d_at_zeros[i]) >= d * (1.0 - 1e-12) or est_width < 1e-8:
                edges[(k, i, 0)] = float(zeros[i])
                edges[(k, i, 1)] = float(zeros[i])
                continue
            lo_t = -d if mono[i] > 0 else d
            hi_t = d if mono[i] > 0 else -d
            batch_slot.append((k, i, 0))
            batch_lo.append(left_sep[i])
            batch_hi.append(zeros[i])
            batch_t.append(lo_t)
            batch_slot.append((k, i, 1))
            batch_lo.append(zeros[i])
            batch_hi.append(right_sep[i])
            batch_t.append(hi_t)
    if batch_slot:
        targets = np.asarray(batch_t)
        roots = _vector_bisect(
            lambda E: f(E) - targets, np.asarray(batch_lo), np.asarray(batch_hi)
        )
        roots = _newton_polish(fd, roots, targets)
        for slot, r in zip(batch_slot, roots):
            edges[slot] = float(r)

    out = []
    for k, d in enumerate(deltas):
        bands = []
        for i in range(q):
            lo, hi = edges[(k, i, 0)], edges[(k, i, 1)]
            if hi < lo:
                lo, hi = hi, lo
            bands.append(Band(lo, hi, i + 1, int(mono[i])))
        comp = SpectralSet(tuple(bands))
        meas = comp.measure
        bound = 2.0 * math.e * d / q
        out.append(JDeltaResult(1, d, comp, meas, bound, meas <= bound * (1 + 1e-12)))
    return out


def band_edge_bound_check(alpha: ReducedRational, delta_: float) -> BandEdgeReport:
    """Check |E - E_nu| <= e |Delta(E)| / |Delta'(E)| at J_delta^c band edges.

    The inequality is guaranteed at interior-band edges and at the inward
    side of the two extremal bands; outward extremal edges are evaluated and
    reported but not mandated.
    """
    res = jdelta_sets(alpha, delta_, 1)
    pts = sminus_points(alpha, 2.0)
    q = alpha.q
    edges = []
    for band, zero in zip(res.complement.bands, pts.energies):
        for side, E in (("lower", band.lo), ("upper", band.hi)):
            dual = chambers_delta(alpha, 2.0, DualComplex.variable(complex(E)))
            val = abs(dual.value)
            dval = abs(dual.deriv)
            margin = math.e * val / dval - abs(E - zero)
            outward = (band.index == 1 and side == "lower") or (
                band.index == q and side == "upper"
            )
            edges.append(
                EdgeMargin(band.index, side, E, zero, margin, not outward)
            )
    return BandEdgeReport(delta_, tuple(edges))


def set_measure(s: SpectralSet) -> float:
    """Lebesgue measure of a finite union of bands."""
    return s.measure


def ids_eval(spec: OperatorSpec, E: float, bands: SpectralSet | None = None) -> float:
    """Integrated density of states via Floquet band counting.

    On band j the IDS interpolates between (j-1)/q and j/q through the Bloch
    phase arccos(D/2), oriented by the monotonicity of D; it is constant on
    gaps, 0 below and 1 above the spectrum.
    """
    if bands is None:
        bands = spectrum_bands(spec)
    q = spec.period
    E = float(E)
    lows = [b.lo for b in bands.bands]
    pos = bisect_right(lows, E)
    if pos == 0:
        return 0.0
    band = bands.bands[pos - 1]
    if E > band.hi:
        return band.index / q
    d = float(_d_values(spec, np.array([E]))[0])
    phi = math.acos(min(1.0, max(-1.0, d / 2.0)))
    if band.monotonicity > 0:
        return (band.index - phi / math.pi) / q
    return (band.index - 1 + phi / math.pi) / q


def ids_profile(spec: OperatorSpec, energies: np.ndarray) -> np.ndarray:
    """Vectorized ids_eval over an energy grid (bands computed once)."""
    bands = spectrum_bands(spec)
    q = spec.period
    E = np.asarray(energies, dtype=np.float64)
    d = _d_values(spec, E)
    phi = np.arccos(np.clip(d / 2.0, -1.0, 1.0))
    lows = np.array([b.lo for b in bands.bands])
    his = np.array([b.hi for b in bands.bands])
    mono = np.array([b.monotonicity for b in bands.bands])
    pos = np.searchsorted(lows, E, side="right")
    idx = np.maximum(pos - 1, 0)
    below = pos == 0
    in_gap = ~below & (E > his[idx])
    inside = ~below & ~in_gap
    out = np.zeros(E.shape)
    out[in_gap] = (idx[in_gap] + 1.0) / q
    j = idx[inside] + 1.0
    m = mono[idx[inside]]
    out[inside] = np.where(
        m > 0,
        (j - phi[inside] / math.pi) / q,
        (j - 1.0 + phi[inside] / math.pi) / q,
    )
    return out


def holder_inclusion_check(
    alpha: ReducedRational,
    alpha2: ReducedRational,
    lam: float,
    n_samples: int,
) -> HolderReport:
    """Continuity of S in the frequency: sampled Hausdorff-type distances.

    For energies sampled uniformly (by measure) over S(alpha, lam), the
    distance to S(alpha2, lam) is compared against 6 sqrt(lam |alpha -
    alpha2|); violations are counted, not raised.
    """
    s1 = spectral_union_S(alpha, lam)
    s2 = spectral_union_S(alpha2, lam)
    gap = abs(alpha.as_fraction() - alpha2.as_fraction())
    bound = 6.0 * math.sqrt(lam * float(gap))
    total = s1.measure
    widths = np.array([b.width for b in s1.bands])
    cum = np.concatenate(([0.0], np.cumsum(widths)))
    max_dist = 0.0
    violations = 0
    for i in range(n_samples):
        t = (i + 0.5) / n_samples * total
        j = int(np.searchsorted(cum, t, side="right") - 1)
        j = min(j, len(s1.bands) - 1)
        E = s1.bands[j].lo + (t - cum[j])
        d = s2.distance(E)
        max_dist = max(max_dist, d)
        if gap > 0 and d >= bound:
            violations += 1
        elif gap == 0 and d > 0.0:
            violations += 1
    ratio = max_dist / bound if bound > 0 else (math.inf if max_dist > 0 else 0.0)
    return HolderReport(bound, max_dist, ratio, n_samples, violations)
