"""Independent reference computations used only by the test suite.

Each oracle takes a route that shares nothing with the library path it
checks: exact Fraction arithmetic, hand-derived closed forms for small
periods, dense truncated resolvent solves, 40-digit mpmath transfer
products, finite differences,
eigenvalue-based band edges, and numpy matrix products over potentials
written out from their defining formulas.  Some are plain-loop forms of
library routines instead, kept as bitwise references: ``five_array_grid``,
``fixed_bisect``, ``scattered_band_form``, ``mat2_step_monodromy``,
``reference_drift_chain``, and the interval-set loops
``loop_contains``, ``loop_distance``, ``loop_intersection_measure``,
``loop_from_intervals`` and ``loop_box_counts``.  ``sminus_edges`` and
``jdelta_edges`` take the library's own route to S- and J_delta^c
(Chambers' shifted periodic and antiperiodic eigenvalues), dense where it
is banded, so the tests hold those sets against 40-digit mpmath as well.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from almost_mathieu.core import OperatorSpec, potential_array


def exact_discriminant(spec: OperatorSpec, E: Fraction) -> Fraction:
    """Tr(T_q ... T_1) over Fractions; potential samples rationalized exactly.

    Exact in E: the float potential values are binary rationals, so the
    whole product is computed without rounding.
    """
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for v in potential_array(spec, 1, spec.period).tolist():
        e = E - Fraction(v)
        a, b, c, d = e * a - c, e * b - d, a, b
    return a + d


def exact_derivative(spec: OperatorSpec, E: float) -> float:
    """D'(E) from an exact Fraction central difference with h = 1e-20.

    D is a polynomial, so the difference is off from D'(E) by h^2 times
    its third derivative / 6 and smaller terms, far below double precision.
    """
    x, h = Fraction(E), Fraction(1, 10**20)
    return float((exact_discriminant(spec, x + h) - exact_discriminant(spec, x - h)) / (2 * h))


def symbolic_discriminant_q2(v1: float, v2: float, E: complex) -> complex:
    """Hand product for period 2: D = (E - v1)(E - v2) - 2."""
    return (E - v1) * (E - v2) - 2.0


def symbolic_discriminant_q3(v1: float, v2: float, v3: float, E: complex) -> complex:
    """Hand product for period 3: D = prod(E - vi) - sum(E - vi)."""
    e1, e2, e3 = E - v1, E - v2, E - v3
    return e1 * e2 * e3 - e1 - e2 - e3


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def eig_band_edges(spec: OperatorSpec) -> np.ndarray:
    """All 2q band edges of the spectrum {|D| <= 2}, via eigenvalues.

    D(E) = 2 exactly at eigenvalues of the q x q periodic restriction and
    D(E) = -2 at those of the antiperiodic one; touching bands come out as
    coincident eigenvalues with no special handling.
    """
    V = potential_array(spec, 1, spec.period)
    return np.sort(np.concatenate((_floquet_eigenvalues(V, 1.0), _floquet_eigenvalues(V, -1.0))))


def _floquet_eigenvalues(V: np.ndarray, corner: float) -> np.ndarray:
    """Eigenvalues of the dense Floquet matrix with real boundary phase.

    ``corner`` = +1 (periodic, D = 2) or -1 (antiperiodic, D = -2) adds
    onto the hopping at (1, q), which covers q = 2 and, on the diagonal,
    q = 1 as well.
    """
    q = len(V)
    H = np.diag(np.asarray(V, dtype=np.float64))
    for i in range(q - 1):
        H[i, i + 1] = 1.0
        H[i + 1, i] = 1.0
    H[0, q - 1] += corner
    H[q - 1, 0] += corner
    return scipy.linalg.eigvalsh(H)


def _chambers_edges(p: int, q: int, lam: float, theta_plus: float, theta_minus: float):
    """(q, 2) bands from periodic eigenvalues at theta_plus and antiperiodic ones at theta_minus."""
    plus = _floquet_eigenvalues(am_potential_range(p, q, lam, theta_plus, q), 1.0)
    minus = _floquet_eigenvalues(am_potential_range(p, q, lam, theta_minus, q), -1.0)
    return np.sort(np.concatenate((plus, minus))).reshape(q, 2)


def union_s_edges(p: int, q: int, lam: float) -> np.ndarray:
    """The q bands of S(p/q, lam) = {|Delta| <= 2 + 2 (lam/2)^q}, as (q, 2).

    By Chambers, D_theta = Delta - 2 (lam/2)^q cos(q theta): Delta reaches
    +(2 + 2 (lam/2)^q) where D_0 = 2, the periodic eigenvalues at theta = 0,
    and -(2 + 2 (lam/2)^q) where D_{pi/q} = -2, the antiperiodic ones at
    theta = pi/q.
    """
    return _chambers_edges(p, q, lam, 0.0, math.pi / q)


def sminus_edges(p: int, q: int, lam: float) -> np.ndarray:
    """The q bands of {|Delta| <= 2 - 2 (lam/2)^q} for lam < 2, as (q, 2).

    The thetas of :func:`union_s_edges` swap: periodic eigenvalues at
    theta = pi/q, antiperiodic ones at theta = 0.
    """
    return _chambers_edges(p, q, lam, math.pi / q, 0.0)


def jdelta_edges(p: int, q: int, delta: float) -> np.ndarray:
    """The q bands of J_delta^c = {|Delta| <= delta} at lam = 2, 0 < delta <= 4, as (q, 2).

    At lam = 2, D_theta = Delta - 2 cos(q theta): Delta = delta where
    D_theta = 2 with 2 cos(q theta) = delta - 2, and Delta = -delta where
    D_theta = -2 with 2 cos(q theta) = 2 - delta.  At delta = 4 these are
    the thetas of :func:`union_s_edges`.
    """
    plus = math.acos((delta - 2.0) / 2.0) / q
    minus = math.acos((2.0 - delta) / 2.0) / q
    return _chambers_edges(p, q, 2.0, plus, minus)


def scattered_band_form(spec: OperatorSpec, corner) -> np.ndarray:
    """The (3, q) upper band form of the zigzag Floquet matrix, entry by entry.

    Every hopping (site i, site i+1) and the corner at (site 1, site q) is
    mapped through the zigzag permutation (sites 1, q, 2, q-1, ...) and
    scattered into ab[2 + r - c, c] with ``np.add.at``, the construction
    that the library's sliced one must reproduce bit for bit.
    """
    q = spec.period
    order = np.empty(q, dtype=np.intp)  # order[position] = site (0-based)
    order[0::2] = np.arange((q + 1) // 2)
    order[1::2] = np.arange(q - 1, (q - 1) // 2, -1)
    pos = np.argsort(order)
    dtype = np.result_type(float, corner)
    i = np.append(np.arange(q - 1), 0)
    j = np.append(np.arange(1, q), q - 1)
    h = np.append(np.ones(q - 1, dtype=dtype), corner)
    r, c = np.minimum(pos[i], pos[j]), np.maximum(pos[i], pos[j])
    ab = np.zeros((3, q), dtype=dtype)
    ab[2] = potential_array(spec, 1, q)[order]
    np.add.at(ab, (2 + r - c, c), h)
    return ab


def dense_floquet_zeros(spec: OperatorSpec) -> np.ndarray:
    """The q zeros of D, from the dense q x q Floquet matrix in site order.

    D(E) = 0 exactly at the eigenvalues of the cyclic tridiagonal matrix
    with boundary phase e^{i pi/2}: hoppings 1, corner -i at (1, q) and +i
    at (q, 1), which add onto the single hopping when q = 2.
    """
    q = spec.period
    V = potential_array(spec, 1, q)
    if q == 1:
        return V.astype(np.float64)
    H = np.diag(V.astype(np.complex128))
    for i in range(q - 1):
        H[i, i + 1] = 1.0
        H[i + 1, i] = 1.0
    H[0, q - 1] += -1.0j
    H[q - 1, 0] += 1.0j
    return np.sort(scipy.linalg.eigvalsh(H))


def five_array_grid(spec: OperatorSpec, energies: np.ndarray, with_derivative: bool):
    """The scaled grid recurrence with one array per matrix entry.

    The entries a, b, c, d (and da, db, dc, dd) of the transfer product
    are separate arrays, updated with fresh temporaries at every step and
    rescaled every 8 steps and after the last by max(|a|, |b|, |c|, |d|).
    The library's stacked in-place kernel must agree with it bit for bit.
    """
    E = np.asarray(energies)
    E = E.astype(np.complex128 if np.iscomplexobj(E) else np.float64)
    q = spec.period
    V = potential_array(spec, 1, q)
    a, b, c, d = np.ones_like(E), np.zeros_like(E), np.zeros_like(E), np.ones_like(E)
    da, db, dc, dd = (np.zeros_like(E) for _ in range(4))
    log_scale = np.zeros(E.shape, dtype=np.float64)
    for j in range(q):
        e = E - V[j]
        if with_derivative:
            da, dc = a + e * da - dc, da
            db, dd = b + e * db - dd, db
        a, c = e * a - c, a
        b, d = e * b - d, b
        if (j + 1) % 8 == 0 or j == q - 1:
            s = np.maximum(
                np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d))
            )
            s = np.where(s > 0.0, s, 1.0)
            a, b, c, d = a / s, b / s, c / s, d / s
            da, db, dc, dd = da / s, db / s, dc / s, dd / s
            log_scale += np.log(s)
    if with_derivative:
        return a + d, da + dd, log_scale
    return a + d, log_scale


def fixed_bisect(f, lo: np.ndarray, hi: np.ndarray, targets: np.ndarray):
    """Brackets of f - targets, each halved until it is at most 1e-10 wide.

    Keeps the half whose ends differ in sign, as decided by the sign of
    f - target at the midpoint against that at the lower end.  A bracket
    stops at the first halving that leaves it at most 1e-10 wide, or with
    no float between its ends; one that starts so takes none.  Returns
    (lo, hi).
    """
    lo, hi = lo.copy(), hi.copy()
    sign_lo = np.sign(f(lo) - targets)
    halve = (hi - lo > 1e-10) & (np.nextafter(lo, hi) < hi)
    while halve.any():
        mid = 0.5 * (lo[halve] + hi[halve])
        same = np.sign(f(mid) - targets[halve]) == sign_lo[halve]
        lo[halve] = np.where(same, mid, lo[halve])
        hi[halve] = np.where(same, hi[halve], mid)
        halve = (hi - lo > 1e-10) & (np.nextafter(lo, hi) < hi)
    return lo, hi


def truncated_halfline_green(
    potential: np.ndarray, z: complex, sources: list[int], n_sites: int
) -> np.ndarray:
    """Dense tridiagonal solve of (H - z) x = delta_source on sites 1..n_sites.

    ``potential[i]`` is V(i + 1).  Returns one column of the truncated
    resolvent per source index (1-based), shape (n_sites, len(sources)).
    """
    if len(potential) < n_sites:
        raise ValueError("potential array shorter than truncation size")
    ab = np.zeros((3, n_sites), dtype=np.complex128)
    ab[0, 1:] = 1.0
    ab[1, :] = potential[:n_sites] - z
    ab[2, :-1] = 1.0
    rhs = np.zeros((n_sites, len(sources)), dtype=np.complex128)
    for col, s in enumerate(sources):
        rhs[s - 1, col] = 1.0
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def mp_halfline_green(V, z: complex, sites, dps: int = 40):
    """(mu, {l: G^{[1,inf)}(1, l; z)}) of the period-len(V) operator, at ``dps`` digits.

    ``V[i]`` is V(i + 1), taken as exact floats.  The monodromy is an
    unscaled mpmath transfer product, D its trace, the larger multiplier
    (D +- sqrt(D^2 - 4)) / 2 and mu its reciprocal (det 1), with no
    cancellation however large D is.  For 1 <= l <= q, psi(q + 1), psi(q) =
    mu v for the eigenvector v of mu, psi(n - 1) = (z - V(n)) psi(n) -
    psi(n + 1) back to psi(0), and G(1, l) = -psi(l) / psi(0).  Every value
    is an mpc; nothing is rescaled, since mpmath's exponent has no bound.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpc(complex(z).real, complex(z).imag)
        vs = [mpmath.mpf(float(v)) for v in V]
        a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for v in vs:
            e = x - v
            a, b, c, d = e * a - c, e * b - d, a, b
        tr = a + d
        s = mpmath.sqrt(tr * tr - 4)
        big = max((tr + s) / 2, (tr - s) / 2, key=abs)
        mu = 1 / big
        v0, v1 = (b, mu - a) if abs(b) + abs(mu - a) >= abs(mu - d) + abs(c) else (mu - d, c)
        psi = {len(vs) + 1: mu * v0, len(vs): mu * v1}
        for n in range(len(vs), 0, -1):
            psi[n - 1] = (x - vs[n - 1]) * psi[n] - psi[n + 1]
        return mu, {l: -psi[l] / psi[0] for l in sites}


def am_potential_range(alpha_p: int, alpha_q: int, lam: float, theta: float, n_sites: int) -> np.ndarray:
    """V(1..n_sites) for the almost Mathieu potential, phase reduced exactly."""
    n = np.arange(1, n_sites + 1, dtype=np.int64)
    m = (alpha_p * n) % alpha_q
    return lam * np.cos(2.0 * math.pi * m / alpha_q + theta)


def transfer_product(V, z: complex, inverse: bool = False) -> np.ndarray:
    """T_n ... T_1 with T_k = [[z - V[k-1], -1], [1, 0]], as a numpy matrix.

    With ``inverse`` the factors are T_k^{-1} = [[0, 1], [-1, z - V[k-1]]]
    multiplied the other way round, T_1^{-1} ... T_n^{-1}.  No rescaling:
    for short products only.
    """
    m = np.eye(2, dtype=np.complex128)
    for v in V:
        if inverse:
            m = m @ np.array([[0.0, 1.0], [-1.0, z - v]], dtype=np.complex128)
        else:
            m = np.array([[z - v, -1.0], [1.0, 0.0]], dtype=np.complex128) @ m
    return m


def mat2_step_monodromy(spec: OperatorSpec, z: complex):
    """The ``Mat2``-step form of ``core.monodromy_scaled``.

    Kept as a bitwise reference: each step builds the step matrix and
    multiplies it onto the running product with ``Mat2.__matmul__``, and the
    product is rescaled every 8 steps and after the last by its largest
    entry.  The library's four-variable loop must give the same entry types
    and bits, signed zeros included, and the same log scale.  Like the
    library, it runs a real-typed z in floats and a complex-typed one in
    complex arithmetic.
    """
    from almost_mathieu.core import Mat2

    z = complex(z) if np.iscomplexobj(z) else float(z)
    m = Mat2.identity()
    log_scale = 0.0
    for j, v in enumerate(potential_array(spec, 1, spec.period).tolist(), 1):
        m = Mat2(z - v, -1, 1, 0) @ m
        if j % 8 == 0:
            s = m.max_abs()
            if s > 0.0:
                m = m.scaled(1.0 / s)
                log_scale += math.log(s)
    s = m.max_abs()
    if s > 0.0:
        m = m.scaled(1.0 / s)
        log_scale += math.log(s)
    return m, log_scale


def _intermediate_phase(p: int, q: int, pt: int, qt: int, freeze: int, n: int) -> tuple[int, int]:
    """phase(n) of the two-scale potential as (num, den), reduced mod 1.

    Below the freeze site the phase is pt n / qt; from it on, p n / q plus
    the drift (pt / qt - p / q) freeze, over the common denominator q qt.
    """
    if n < freeze:
        return (pt * n) % qt, qt
    return (p * qt * n + (pt * q - p * qt) * freeze) % (q * qt), q * qt


def intermediate_potential(p: int, q: int, pt: int, qt: int, freeze: int, sites) -> np.ndarray:
    """V~(n) = 2 cos(2 pi phase(n)) of the two-scale potential at critical coupling."""
    out = []
    for n in sites:
        num, den = _intermediate_phase(p, q, pt, qt, freeze, n)
        out.append(2.0 * math.cos(2.0 * math.pi * num / den))
    return np.array(out)


def mp_intermediate_trace(p: int, q: int, pt: int, qt: int, freeze: int, sites, z, dps: int = 40):
    """Tr of T_n ... T_m over the consecutive ``sites`` m..n of the two-scale
    potential, at ``dps`` digits.

    V~(n) = 2 cos(2 pi phase(n)) with the phase of ``intermediate_potential``
    and the cosine taken by mpmath; the product is an unscaled mpc product,
    whose exponent has no bound.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpc(complex(z).real, complex(z).imag)
        a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for n in sites:
            num, den = _intermediate_phase(p, q, pt, qt, freeze, n)
            e = x - 2 * mpmath.cos(2 * mpmath.pi * num / den)
            a, b, c, d = e * a - c, e * b - d, a, b
        return a + d


def mp_edge_offset(spec: OperatorSpec, E: float, target: float, dps: int = 40) -> float:
    """Distance from E to the true solution of D = target, in exact-ish terms.

    Evaluates D and D' at 40 digits and returns |D(E) - target| / |D'(E)|,
    a first-order bound on the edge placement error that is immune to the
    float64 evaluation noise of the discriminant.
    """
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(2) ** -60
        V = [mpmath.mpf(v) for v in potential_array(spec, 1, spec.period).tolist()]

        def d_of(x):
            a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
            for v in V:
                e = x - v
                a, b, c, d = e * a - c, e * b - d, a, b
            return a + d

        x0 = mpmath.mpf(E)
        val = d_of(x0) - mpmath.mpf(target)
        deriv = (d_of(x0 + h) - d_of(x0 - h)) / (2 * h)
        return float(abs(val) / abs(deriv))


def mp_chambers_root(p: int, q: int, lam: float, E: float, target: float, dps: int = 40):
    """The root of Delta = target next to E, by Newton steps at ``dps`` digits.

    Delta is Tr Phi_q at Chambers' theta = pi / (2q) with the potentials
    straight from mpmath.cos, its derivative carried with the product;
    returns an mpf.
    """
    import mpmath

    with mpmath.workdps(dps):
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        theta = mpmath.pi / (2 * q)
        V = [mpmath.mpf(lam) * mpmath.cos(2 * mpmath.pi * p * j / q + theta) for j in range(1, q + 1)]
        x = mpmath.mpf(E)
        for _ in range(50):
            a, b, c, d = one, zero, zero, one
            a1 = b1 = c1 = d1 = zero
            for v in V:
                e = x - v
                a1, b1, c1, d1 = a + e * a1 - c1, b + e * b1 - d1, a1, b1
                a, b, c, d = e * a - c, e * b - d, a, b
            step = (a + d - target) / (a1 + d1)
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (5 - dps):
                break
        return +x


def mp_critical_offset(spec: OperatorSpec, E: float, dps: int = 50) -> float:
    """|D'(E) / D''(E)| at ``dps`` digits: how far E is from a critical point of D.

    The transfer product is carried with its first and second derivatives
    in E, so D' and D'' are exact polynomials evaluated at ``dps`` digits;
    the Newton step to the nearby root of D' then bounds the placement
    error of a separator to first order.
    """
    import mpmath

    with mpmath.workdps(dps):
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        x = mpmath.mpf(E)
        # rows (a, b) and (c, d) of the product, with first (1) and second (2) derivatives
        a, b, c, d = one, zero, zero, one
        a1 = b1 = c1 = d1 = a2 = b2 = c2 = d2 = zero
        for v in potential_array(spec, 1, spec.period).tolist():
            e = x - mpmath.mpf(v)
            a2, b2, c2, d2 = 2 * a1 + e * a2 - c2, 2 * b1 + e * b2 - d2, a2, b2
            a1, b1, c1, d1 = a + e * a1 - c1, b + e * b1 - d1, a1, b1
            a, b, c, d = e * a - c, e * b - d, a, b
        return float(abs((a1 + d1) / (a2 + d2)))


def brute_force_zeros(f, lo: float, hi: float, n_grid: int = 20000) -> list[float]:
    """All sign-change roots of a scalar callable on [lo, hi], by bisection."""
    xs = np.linspace(lo, hi, n_grid)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            a, b = xs[i], xs[i + 1]
            fa = vals[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a = mid
                    fa = fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


# ---------------------------------------------------------------------------
# plain-loop interval-set references, over lists of (lo, hi) pairs


def loop_contains(bands, E: float) -> bool:
    return any(lo <= E <= hi for lo, hi in bands)


def loop_distance(bands, E: float) -> float:
    best = math.inf
    for lo, hi in bands:
        if lo <= E <= hi:
            return 0.0
        best = min(best, abs(E - lo), abs(E - hi))
    return best


def loop_intersection_measure(mine, theirs) -> float:
    """Two-pointer clipping of two sorted sets, disjoint up to touching ends."""
    total = 0.0
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


def loop_from_intervals(intervals, merge_overlaps: bool = True) -> list[tuple[float, float]]:
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    if not merge_overlaps:
        return ivs
    merged: list[list[float]] = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def loop_box_counts(bands, scales) -> list[int]:
    """Boxes [k scale, (k+1) scale) meeting the bands, counted box by box."""
    counts = []
    for scale in scales:
        boxes = set()
        for lo, hi in bands:
            k_lo = math.floor(lo / scale)
            k_hi = math.floor(hi / scale)
            # a box meets a band of positive length only if the band reaches
            # into it; a width-zero band occupies the single box containing it
            if hi <= k_hi * scale:
                k_hi -= 1
            boxes.update(range(k_lo, max(k_hi, k_lo) + 1))
        counts.append(len(boxes))
    return counts


# ---------------------------------------------------------------------------
# Chambers' formula and drift chains


def mp_discriminant(p: int, q: int, lam: float, theta, E, dps: int = 60):
    """Tr Phi_q(E) at ``dps`` digits, potentials straight from mpmath.cos.

    V(j) = lam cos(2 pi p j / q + theta) is evaluated afresh for every j, so
    no rotation and no fixed-point arithmetic are shared with the library.
    ``theta=None`` is Chambers' pi / (2q), taken at the full ``dps`` digits;
    a complex E with a nonzero imaginary part gives an mpc.
    """
    import mpmath

    with mpmath.workdps(dps):
        if theta is None:
            theta = mpmath.pi / (2 * q)
        E = complex(E)
        x = mpmath.mpc(E.real, E.imag) if E.imag != 0.0 else mpmath.mpf(E.real)
        a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for j in range(1, q + 1):
            e = x - mpmath.mpf(lam) * mpmath.cos(2 * mpmath.pi * p * j / q + theta)
            a, b, c, d = e * a - c, e * b - d, a, b
        return +(a + d)


def reference_drift_chain(rng, n_factors: int, beta: float, gamma_range=(0.3, 1.5)):
    """The factor-by-factor ``Mat2`` form of ``products.random_drift_chain``.

    Kept as a bitwise reference: every factor, and the generator state after
    the chain, must come out identical from the library's plain-complex loop.
    """
    from almost_mathieu.core import Mat2
    from almost_mathieu.products import HyperbolicFactor, _solve_u

    lo_g, hi_g = gamma_range
    gamma = float(rng.uniform(lo_g, hi_g))
    zeta = float(rng.uniform(-math.pi / 4, math.pi / 4))
    while True:
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p = raw[:, 0] / np.linalg.norm(raw[:, 0])
        m_ = raw[:, 1] / np.linalg.norm(raw[:, 1])
        det_u = p[0] * m_[1] - m_[0] * p[1]
        if abs(det_u) >= 0.3:
            break
    phi_p = (complex(p[0]), complex(p[1]))
    phi_m = (complex(m_[0]), complex(m_[1]))

    def make_factor(gamma, zeta, phi_p, phi_m):
        lam = cmath.exp(complex(gamma, zeta))
        u = Mat2(phi_p[0], phi_m[0], phi_p[1], phi_m[1])
        d = u.det()
        u_inv = Mat2(u.a22 / d, -u.a12 / d, -u.a21 / d, u.a11 / d)
        t = (u @ Mat2(lam, 0, 0, 1.0 / lam)) @ u_inv
        return HyperbolicFactor(t, gamma, zeta, phi_p, phi_m)

    def rephased(prev, p, m):
        frame = HyperbolicFactor(prev.T, prev.gamma, prev.zeta, p, m)
        a, _ = _solve_u(frame, prev.phi_plus)
        _, b = _solve_u(frame, prev.phi_minus)
        ph_p = a / abs(a) if abs(a) > 0.0 else 1.0
        ph_m = b / abs(b) if abs(b) > 0.0 else 1.0
        return (p[0] * ph_p, p[1] * ph_p), (m[0] * ph_m, m[1] * ph_m)

    factors = []
    for _ in range(n_factors):
        factors.append(make_factor(gamma, zeta, phi_p, phi_m))
        det_u = abs(factors[-1].det_u())
        ang = 0.5 * beta * gamma * math.exp(-gamma) * det_u / 4.0
        for _ in range(60):
            ca, sa = math.cos(ang), math.sin(ang)
            cand_p = (ca * phi_p[0] - sa * phi_p[1], sa * phi_p[0] + ca * phi_p[1])
            cand_m = (ca * phi_m[0] - sa * phi_m[1], sa * phi_m[0] + ca * phi_m[1])
            cand_p, cand_m = rephased(factors[-1], cand_p, cand_m)
            drift = max(
                math.hypot(abs(cand_p[0] - phi_p[0]), abs(cand_p[1] - phi_p[1])),
                math.hypot(abs(cand_m[0] - phi_m[0]), abs(cand_m[1] - phi_m[1])),
            )
            if 4.0 * drift / det_u <= 0.5 * beta * gamma * math.exp(-gamma):
                break
            ang /= 2.0
        phi_p, phi_m = cand_p, cand_m
        gamma = float(min(hi_g, max(lo_g, gamma + rng.uniform(-0.05, 0.05))))
        zeta = float(zeta + rng.uniform(-0.02, 0.02))
    return factors
