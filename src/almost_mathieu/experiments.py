"""Measure decay along rational approximants, fractal dimension estimates,
interval-cover dimension bounds, and Hofstadter-butterfly datasets.

The central experiment: fix a coarse rational p/q and delta > 0, and watch
meas(S(p~/q~, 2) intersect J_delta) shrink as the approximants p~/q~ sharpen.
The decay rate is fitted, never assumed; the covering machinery turns
families of interval covers with power-law measures into Hausdorff
dimension upper bounds max(1/(1+beta_1), 1/(1+beta_2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import (
    RootFindingError,
    SpectralSet,
    jdelta_sets,
    spectral_union_S,
    spectrum_bands,
)
from .core import OperatorSpec, ReducedRational, reduce_fraction
from .interpolation import gate_eta

__all__ = [
    "DecayRow",
    "DecayReport",
    "BoxCountReport",
    "CoverLevel",
    "CoverFamily",
    "CoverBoundReport",
    "ButterflyDataset",
    "measure_decay",
    "box_counting_dimension",
    "cover_dimension_bound",
    "butterfly_generate",
    "approximant_family",
]

BUTTERFLY_QMAX_GUARD = 500


@dataclass(frozen=True)
class DecayRow:
    approximant: ReducedRational
    measure: float
    gate_ok: bool
    collapsed_bands: int  # bands of S(p~/q~, 2) that came back with zero width


@dataclass(frozen=True)
class DecayReport:
    base: ReducedRational
    delta: float
    rows: tuple[DecayRow, ...]
    fit_qs: int  # distinct q~ with positive measure; the fit needs two
    fitted_rate: float | None
    fitted_prefactor: float | None
    r_squared: float | None


@dataclass(frozen=True)
class BoxCountReport:
    estimate: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    r_squared: float


@dataclass(frozen=True)
class CoverLevel:
    n: int
    q_n: int
    qt_n: int
    family1: tuple[tuple[float, float], ...]
    family2: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CoverFamily:
    levels: tuple[CoverLevel, ...]
    c1: float
    c2: float
    beta1: float
    beta2: float


@dataclass(frozen=True)
class CoverBoundReport:
    bound: float
    jensen_lhs: tuple[float, ...]
    jensen_rhs: tuple[float, ...]
    c_t: float


@dataclass(frozen=True)
class ButterflyDataset:
    """(p, q, band_index, lo, hi) rows, ordered by q, then p, then band."""

    rows: tuple[tuple[int, int, int, float, float], ...]
    failures: tuple[str, ...]


def approximant_family(base: ReducedRational, k_min: int, k_max: int) -> list[ReducedRational]:
    """Continued-fraction children of the base: append one quotient k.

    For base 1/2 this is the classical family k / (2k + 1); such children
    are automatically reduced and converge to the base at rate 1/(k q^2).
    """
    p, q = abs(base.p), base.q
    # penultimate convergent of p/q by the Euclidean recurrence
    quotients = []
    a, b = p, q
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    h_prev, h = 1, quotients[0]
    k_prev, k = 0, 1
    for n in quotients[1:]:
        h_prev, h = h, n * h + h_prev
        k_prev, k = k, n * k + k_prev
    sign = -1 if base.p < 0 else 1
    return [
        reduce_fraction(sign * (j * p + h_prev), j * q + k_prev)
        for j in range(k_min, k_max + 1)
    ]


def _log_linear_fit(x: np.ndarray, values) -> tuple[float, float, float]:
    """Least-squares line ln(values) ~ slope x + intercept, and its R^2."""
    y = np.log(np.array(values, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def measure_decay(
    base: ReducedRational,
    delta: float,
    approximants: list[ReducedRational],
) -> DecayReport:
    """meas(S(p~/q~, 2) intersect J_delta) per approximant, with decay fit.

    Measures are exact interval-union arithmetic; the closeness gate
    |p~/q~ - p/q| < gate_eta(q, delta) is flagged per row, never enforced.
    Each row counts the bands of S(p~/q~, 2) that came back with zero
    width: the edge solve collapses a band narrower than about 1e-8 onto
    its zero, so their measure is missing from the row's.
    The decay model ln(measure) ~ prefactor + rate * q~ is least-squares
    fitted over the rows with positive measure, provided they span at least
    two distinct q~; otherwise the fitted fields are None.
    """
    jd = jdelta_sets(base, delta)
    eta = gate_eta(base.q, delta)
    base_frac = base.as_fraction()

    rows = []
    for appr in sorted(approximants, key=lambda r: (r.q, r.p)):
        s = spectral_union_S(appr, 2.0)
        inter_measure = s.measure - s.intersection_measure(jd.complement)
        gate = appr.as_fraction() != base_frac and abs(
            appr.as_fraction() - base_frac
        ) < eta
        collapsed = int(np.count_nonzero(s.edges[:, 1] == s.edges[:, 0]))
        rows.append(DecayRow(appr, float(inter_measure), bool(gate), collapsed))

    pts = [(r.approximant.q, r.measure) for r in rows if r.measure > 0.0]
    fit_qs = len({x for x, _ in pts})
    rate = prefactor = r2 = None
    if fit_qs >= 2:
        rate, intercept, r2 = _log_linear_fit(
            np.array([p[0] for p in pts], dtype=np.float64), [p[1] for p in pts]
        )
        prefactor = float(np.exp(intercept))
    return DecayReport(base, float(delta), tuple(rows), fit_qs, rate, prefactor, r2)


def box_counting_dimension(
    s: SpectralSet, scales: list[float]
) -> BoxCountReport:
    """Box counts N(scale) and the fitted slope of ln N against ln(1/scale).

    N(scale) is the number of grid boxes [k scale, (k+1) scale) meeting the
    set, computed exactly as the measure of the union of the integer box
    ranges of the bands.  Box indices are held in float64, exact while
    |E| / scale stays below 2^53.
    """
    scales = [float(x) for x in scales]
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    if any(x < 1e-12 for x in scales):
        raise ValueError("scales must be >= 1e-12")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")

    lo, hi = s.edges.T
    counts = []
    for scale in scales:
        k_lo = np.floor(lo / scale)
        k_hi = np.floor(hi / scale)
        # boxes meeting the interval with positive length; a width-zero
        # band still occupies the single box containing it
        k_hi = np.maximum(np.where(hi <= k_hi * scale, k_hi - 1.0, k_hi), k_lo)
        # the runs [k_lo, k_hi + 1] of boxes that meet or abut merge, and
        # the union's measure is the number of boxes
        runs = SpectralSet.from_intervals(np.column_stack((k_lo, k_hi + 1.0)))
        counts.append(int(runs.measure))

    slope, _, r2 = _log_linear_fit(np.log(1.0 / np.array(scales)), counts)
    return BoxCountReport(slope, tuple(scales), tuple(counts), r2)


def cover_dimension_bound(cf: CoverFamily) -> CoverBoundReport:
    """Hausdorff bound max(1/(1+beta1), 1/(1+beta2)) from two cover families.

    Verifies the hypotheses at every provided level (counts, union-measure
    power laws, growing q_n), then certifies the Jensen step
    sum meas^t <= (max C)^t (q^{1-t(1+b1)} + q~^{1-t(1+b2)}) <= 2 (max C)^t
    at t equal to the returned bound.
    """
    if cf.beta1 < 0 or cf.beta2 < 0 or cf.c1 <= 0 or cf.c2 <= 0:
        raise ValueError("constants must be positive (betas nonnegative)")
    prev_q = prev_qt = 0
    for lev in cf.levels:
        if len(lev.family1) > lev.q_n:
            raise ValueError(f"level {lev.n}: family 1 has more than q_n intervals")
        if len(lev.family2) > lev.qt_n:
            raise ValueError(f"level {lev.n}: family 2 has more than q~_n intervals")
        if lev.q_n <= prev_q or lev.qt_n <= prev_qt:
            raise ValueError(f"level {lev.n}: cover counts must grow")
        prev_q, prev_qt = lev.q_n, lev.qt_n
        for lo, hi in (*lev.family1, *lev.family2):
            if hi < lo:
                raise ValueError(f"level {lev.n}: interval ({lo}, {hi}) has hi < lo")
        m1 = SpectralSet.from_intervals(lev.family1).measure
        if m1 >= cf.c1 / lev.q_n**cf.beta1:
            raise ValueError(
                f"level {lev.n}: family 1 measure {m1} breaks C1/q^beta1"
            )
        m2 = SpectralSet.from_intervals(lev.family2).measure
        if m2 >= cf.c2 / lev.qt_n**cf.beta2:
            raise ValueError(
                f"level {lev.n}: family 2 measure {m2} breaks C2/q~^beta2"
            )

    t = max(1.0 / (1.0 + cf.beta1), 1.0 / (1.0 + cf.beta2))
    c_t = 2.0 * max(cf.c1, cf.c2) ** t
    lhs_all, rhs_all = [], []
    for lev in cf.levels:
        lhs = sum((hi - lo) ** t for lo, hi in lev.family1) + sum(
            (hi - lo) ** t for lo, hi in lev.family2
        )
        rhs = max(cf.c1, cf.c2) ** t * (
            lev.q_n ** (1.0 - t * (1.0 + cf.beta1))
            + lev.qt_n ** (1.0 - t * (1.0 + cf.beta2))
        )
        if lhs > rhs * (1.0 + 1e-12) or rhs > c_t * (1.0 + 1e-12):
            raise RuntimeError(
                f"level {lev.n}: Jensen step failed ({lhs} > {rhs} or > {c_t})"
            )
        lhs_all.append(lhs)
        rhs_all.append(rhs)
    return CoverBoundReport(t, tuple(lhs_all), tuple(rhs_all), c_t)


def _reduced_fractions(qmax: int):
    yield 0, 1
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def butterfly_generate(
    qmax: int,
    lam: float,
    theta_mode: str = "union-S",
    theta: float = 0.0,
) -> ButterflyDataset:
    """Band rows for every reduced p/q with q <= qmax, at fixed coupling.

    theta_mode "union-S" tabulates the theta-union set S(p/q, lam), which
    needs lam > 0; "fixed-theta" tabulates the spectrum at the given phase.
    A union-S cell whose edges cannot be found (RootFindingError) is
    recorded and generation continues; any other error stops it.
    Fixed-theta cells take their edges from Floquet eigenvalues and cannot
    fail.  Rows come in the order q asc, p asc, band asc.
    """
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    if qmax > BUTTERFLY_QMAX_GUARD:
        raise ValueError(f"qmax {qmax} above guard {BUTTERFLY_QMAX_GUARD}")
    if theta_mode not in ("union-S", "fixed-theta"):
        raise ValueError(f"unknown theta_mode {theta_mode!r}")
    if theta_mode == "union-S" and lam <= 0.0:
        raise ValueError("coupling must be positive")

    rows: list[tuple[int, int, int, float, float]] = []
    failures: list[str] = []
    for p, q in _reduced_fractions(qmax):
        alpha = ReducedRational(p, q)
        try:
            if theta_mode == "union-S":
                s = spectral_union_S(alpha, lam)
            else:
                s = spectrum_bands(OperatorSpec.almost_mathieu(alpha, lam, theta))
        except RootFindingError as exc:  # cell failures recorded, generation continues
            failures.append(f"{p}/{q}: {exc}")
            continue
        rows.extend((p, q, i, lo, hi) for i, (lo, hi) in enumerate(s.edges.tolist(), 1))
    return ButterflyDataset(tuple(rows), tuple(failures))
