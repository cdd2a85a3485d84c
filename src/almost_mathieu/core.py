"""Rational frequencies, transfer matrices, discriminants and Chambers' Delta.

Everything downstream (band structure, Lyapunov exponents, Green functions)
is built on the one-step transfer matrix

    T_j(E) = [[E - V(j), -1], [1, 0]],        det T_j = 1,

and the one-period product Phi_q(E) = T_q ... T_1 with its Floquet
multipliers, the roots of mu^2 - Tr Phi_q mu + det Phi_q.

The recurrence runs in two forms.  ``monodromy_scaled`` is the one scalar
loop: it carries the product at one energy in four plain local variables,
with each step's matrix product written out (the factors -1, 1 and 0 kept,
so signed zeros come out as a ``Mat2`` product gives them), rescales it
every few steps and builds one ``Mat2`` at the end.  Its arithmetic follows
the type of the energy: floats for a real one, complex for a complex one.
At a real energy the complex run only adds products with an exact zero, so
its real parts and log scale equal the float run's, and a caller that
reads the real trace gets the same bits either way.
``_grid_kernel`` is the one vectorized loop over the period: it carries
the product at every energy of a grid, rescales it every few steps so it
never overflows, and carries the energy derivative only when
``discriminant_and_derivative_grid`` asks for it (``discriminant_grid``
does not).  Both loops give D only in scaled form, (mantissa, log scale):
its plain value leaves the float range once log |D| > 709.  The grid's
rows [a, b] (with [da, db]) and [c, d] (with [dc, dd]) sit in two stacked
arrays, and the energy factor and the rescale divisor are copied to the
same shape; every step and every rescale writes into buffers allocated
once per call, because numpy's broadcast multiply and the temporaries of
a rescale cost more than the arithmetic.  The energy factor is always the
left operand of a product, because numpy's complex multiply is not
bitwise commutative.  Each energy's value depends on that energy alone,
not on the rest of the grid.  ``_fixed_trace`` is the one
extended-precision loop: Python integers in fixed point, at the precision
``chambers_bits`` sets for ``chambers_residual``.  ``floquet_exponent`` is
the one place the multipliers e^{+-w} of a det-1 monodromy are taken,
through w = arccosh(D/2): q times the Lyapunov exponent and the Bloch
phase; and ``eigenvector`` the one place the 2x2 eigenvectors are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Rescale the running transfer product every few steps; one step can grow
# entries by at most |E| + |V| + 2, so 8 steps stay far below overflow.
_RESCALE_EVERY = 8

__all__ = [
    "ReducedRational",
    "OperatorSpec",
    "Mat2",
    "reduce_fraction",
    "potential_array",
    "floquet_exponent",
    "eigenvector",
    "monodromy_scaled",
    "delta_spec",
    "chambers_bits",
    "chambers_residual",
    "discriminant_grid",
    "discriminant_and_derivative_grid",
]


# ---------------------------------------------------------------------------
# rationals


@dataclass(frozen=True)
class ReducedRational:
    """Fraction p/q in lowest terms with q >= 1, exact integer arithmetic."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"denominator must be >= 1, got {self.q}")
        if gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced")

    @property
    def value(self) -> float:
        return self.p / self.q

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def reduce_fraction(p: int, q: int) -> ReducedRational:
    """Reduce p/q to lowest terms.  q must be a positive integer."""
    if q == 0:
        raise ValueError("denominator q = 0")
    if q < 0:
        raise ValueError(f"denominator must be positive, got {q}")
    if p == 0:
        return ReducedRational(0, 1)
    g = gcd(abs(p), q)
    return ReducedRational(p // g, q // g)


# ---------------------------------------------------------------------------
# operator specification


@dataclass(frozen=True)
class OperatorSpec:
    """A periodic discrete Schrodinger operator H = Delta + V on l^2(Z).

    Either the almost Mathieu form V(n) = lam * cos(2 pi alpha n + theta)
    with rational alpha = p/q (period q), or an explicit period-``len(values)``
    potential sequence ``values`` = (V(1), ..., V(q)).
    """

    alpha: ReducedRational | None = None
    lam: float | None = None
    theta: float | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def almost_mathieu(
        cls, alpha: ReducedRational, lam: float, theta: float
    ) -> "OperatorSpec":
        return cls(alpha=alpha, lam=float(lam), theta=float(theta))

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "OperatorSpec":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("explicit potential needs at least one value")
        return cls(values=vals)

    def __post_init__(self) -> None:
        am = self.alpha is not None
        ex = self.values is not None
        if am == ex:
            raise ValueError("spec must be almost Mathieu or explicit, not both")
        if am and (self.lam is None or self.theta is None):
            raise ValueError("almost Mathieu spec needs lam and theta")

    @property
    def is_almost_mathieu(self) -> bool:
        return self.alpha is not None

    @property
    def period(self) -> int:
        return self.alpha.q if self.alpha is not None else len(self.values)

    @property
    def coupling(self) -> float:
        """lam for the AM form, max |V| for explicit potentials."""
        if self.lam is not None:
            return abs(self.lam)
        return max(abs(v) for v in self.values)

    @cached_property
    def period_potential(self) -> np.ndarray:
        """V(1), ..., V(q) as a read-only float array, computed once per spec.

        The cache sits outside the dataclass fields, so equality and the
        hash of a spec do not see it.
        """
        v = potential_array(self, 1, self.period)
        v.flags.writeable = False
        return v


def potential_array(spec: OperatorSpec, start: int, count: int) -> np.ndarray:
    """V(start), ..., V(start + count - 1) as a float array."""
    n = np.arange(start, start + count, dtype=np.int64)
    if spec.is_almost_mathieu:
        q = spec.alpha.q
        m = (spec.alpha.p * n) % q
        return spec.lam * np.cos(TWO_PI * m / q + spec.theta)
    vals = np.asarray(spec.values, dtype=np.float64)
    return vals[(n - 1) % len(vals)]


# ---------------------------------------------------------------------------
# 2x2 matrices and their eigenpairs


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with float or complex entries."""

    a11: object
    a12: object
    a21: object
    a22: object

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * o.a11 + self.a12 * o.a21,
            self.a11 * o.a12 + self.a12 * o.a22,
            self.a21 * o.a11 + self.a22 * o.a21,
            self.a21 * o.a12 + self.a22 * o.a22,
        )

    def apply(self, v):
        return (
            self.a11 * v[0] + self.a12 * v[1],
            self.a21 * v[0] + self.a22 * v[1],
        )

    def trace(self):
        return self.a11 + self.a22

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def scaled(self, factor) -> "Mat2":
        return Mat2(
            self.a11 * factor, self.a12 * factor, self.a21 * factor, self.a22 * factor
        )

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))


def floquet_exponent(mantissa, log_scale=0.0) -> np.ndarray:
    """w = arccosh(D / 2) for D = mantissa * exp(log_scale), elementwise.

    The Floquet multipliers of a det-1 monodromy with trace D are e^{+-w}:
    Re w >= 0 is q times the Lyapunov exponent, exactly 0.0 where a real D
    has |D| <= 2, and Im w is the Bloch phase, arccos(D / 2) there.  A zero
    imaginary part of D is read as +0, so a real D gets a phase in [0, pi].
    Where log |D| > 40, w = log D, which differs from arccosh(D / 2) by
    O(1 / D^2), and nothing overflows.  Where log_scale is 0, D is the
    mantissa itself, with no rounding from rebuilding it.
    """
    m = np.asarray(mantissa, dtype=np.complex128) + 0j  # -0j -> +0j
    mag = np.abs(m)
    nonzero = mag > 0.0
    safe = np.where(nonzero, mag, 1.0)
    log_d = np.where(nonzero, np.log(safe) + log_scale, -np.inf)
    big = log_d > 40.0
    # D = (m / |m|) exp(log |D|), with no exp past e^40; m / |m| is divided
    # part by part, so a real m gives exactly +-1
    d = (m.real / safe + 1j * (m.imag / safe)) * np.exp(np.where(big, 0.0, log_d))
    d = np.where(np.asarray(log_scale) == 0.0, m, d)
    return np.where(big, log_d + 1j * np.angle(m), np.arccosh(d / 2.0))


def eigenvector(m: Mat2, mu: complex) -> tuple[complex, complex] | None:
    """Unit eigenvector of m for the eigenvalue mu, or None if m = mu I.

    Of the two rows of adj(m - mu I), the one with the larger 1-norm is
    taken, so an eigenvector with one zero component still comes out.
    """
    c1 = (complex(m.a12), mu - complex(m.a11))
    c2 = (mu - complex(m.a22), complex(m.a21))
    v = c1 if abs(c1[0]) + abs(c1[1]) >= abs(c2[0]) + abs(c2[1]) else c2
    n = math.hypot(abs(v[0]), abs(v[1]))
    if n == 0.0:
        return None
    return (v[0] / n, v[1] / n)


def monodromy_scaled(spec: OperatorSpec, z: complex | float) -> tuple[Mat2, float]:
    """One-period product as (mantissa matrix, log scale).

    The true monodromy is ``mantissa * exp(log_scale)`` entrywise; rescaling
    along the way keeps the entries representable for any q.

    The arithmetic follows the type of z, never its value.  A real z (int,
    float, ``np.float64``: ``np.iscomplexobj(z)`` is false) runs in floats
    and gives float entries; a complex one, ``complex(E, +-0.0)`` and
    ``np.complex64`` included, runs in complex arithmetic as ``complex(z)``.
    At a real energy the two agree: every term the complex loop adds is a
    product with an exact zero, so its entries' real parts equal the float
    entries (up to the sign of a zero), its max-abs rescale factors are the
    same, and the log scales are bit-identical.

    The product is carried in four local variables, starting from the
    integers 1, 0, 0, 1, and one ``Mat2`` is built at the end.  A step is
    ``Mat2(e, -1, 1, 0) @ m`` with e = z - V(j), written out with the
    operations ``Mat2.__matmul__`` performs, in its order, and a rescale
    those of ``Mat2.max_abs`` and ``Mat2.scaled``, so every entry keeps its
    type and its bits.  The factors -1, 1 and 0 stay: ``e * a - c`` or a
    bare ``a`` would turn a -0.0 part into +0.0 (1 * (a + bj) has the
    imaginary part b + 0 a), and the signed zeros feed the branch cuts of
    the Green functions.
    """
    z = complex(z) if np.iscomplexobj(z) else float(z)
    a11, a12, a21, a22 = 1, 0, 0, 1
    log_scale = 0.0
    for j, v in enumerate(spec.period_potential.tolist(), 1):
        e = z - v
        a11, a12, a21, a22 = (
            e * a11 + -1 * a21,
            e * a12 + -1 * a22,
            1 * a11 + 0 * a21,
            1 * a12 + 0 * a22,
        )
        if j % _RESCALE_EVERY == 0:
            s = max(abs(a11), abs(a12), abs(a21), abs(a22))
            if s > 0.0:
                f = 1.0 / s
                a11, a12, a21, a22 = a11 * f, a12 * f, a21 * f, a22 * f
                log_scale += math.log(s)
    s = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if s > 0.0:
        f = 1.0 / s
        a11, a12, a21, a22 = a11 * f, a12 * f, a21 * f, a22 * f
        log_scale += math.log(s)
    return Mat2(a11, a12, a21, a22), log_scale


def delta_spec(alpha: ReducedRational, lam: float) -> OperatorSpec:
    """The operator whose discriminant is Chambers' Delta: theta = pi / (2q)."""
    return OperatorSpec.almost_mathieu(alpha, lam, math.pi / (2.0 * alpha.q))


def chambers_bits(q: int, lam: float, E: complex) -> int:
    """Working precision of ``chambers_residual``: dps = 35 + floor(q log10 g) + 1
    digits as ceil(3.33 dps) + 8 bits, g = |E| + |lam| + 3.  The transfer
    product stays below g^q, so about 35 digits survive.
    """
    dps = 35 + int(q * math.log10(abs(E) + abs(lam) + 3.0)) + 1
    return -(-333 * dps // 100) + 8


def _fixed_trace(er: int, ei: int, z: tuple, w: tuple, lam: int, q: int, bits: int) -> tuple:
    """Tr Phi_q(E) with V(j) = lam Re(z w^j), j = 1..q, in fixed point.

    Every number is an integer over 2^bits, a complex one (E = er + i ei, z
    and w) a pair; every product is truncated back to ``bits`` by a shift.
    """
    (x, y), (wx, wy) = z, w
    ar, ai, br, bi, cr, ci, dr, di = 1 << bits, 0, 0, 0, 0, 0, 1 << bits, 0
    for _ in range(q):
        x, y = (x * wx - y * wy) >> bits, (x * wy + y * wx) >> bits
        e = er - ((lam * x) >> bits)
        ar, ai, br, bi, cr, ci, dr, di = (
            ((e * ar - ei * ai) >> bits) - cr,
            ((e * ai + ei * ar) >> bits) - ci,
            ((e * br - ei * bi) >> bits) - dr,
            ((e * bi + ei * br) >> bits) - di,
            ar, ai, br, bi,
        )
    return ar + dr, ai + di


def _chambers_fixed(alpha: ReducedRational, lam: float, E: complex, theta: float, bits: int):
    """D_theta(E), Delta(E) and 2 (lam/2)^q cos(q theta) in fixed point over 2^bits.

    The traces are (re, im) integer pairs.  lam cos(2 pi p j / q + phase) is
    the real part of e^{i phase} rotated j times by w = e^{2 pi i p / q}, for
    phase = theta and pi / (2q); those three unit numbers and the cos(q theta)
    term are the only values taken from mpmath.
    """
    import mpmath

    q = alpha.q
    with mpmath.workprec(bits + 16):
        units = [mpmath.expj(x) for x in (theta, mpmath.pi / (2 * q), 2 * mpmath.pi * alpha.p / q)]
        term = 2 * (mpmath.mpf(lam) / 2) ** q * mpmath.cos(q * mpmath.mpf(theta))
    # ldexp is exact, int() truncates
    (er, ei), zt, zd, w = [
        (int(mpmath.ldexp(c.real, bits)), int(mpmath.ldexp(c.imag, bits)))
        for c in [complex(E)] + units
    ]
    lam_f = int(mpmath.ldexp(lam, bits))
    return (
        _fixed_trace(er, ei, zt, w, lam_f, q, bits),
        _fixed_trace(er, ei, zd, w, lam_f, q, bits),
        int(mpmath.ldexp(term, bits)),
    )


def chambers_residual(
    alpha: ReducedRational, lam: float, E: complex, theta: float
) -> float:
    """| D_theta(E) - Delta(E) + 2 (lam/2)^q cos(q theta) |.

    Zero up to arithmetic error for every reduced p/q: the whole theta
    dependence of the discriminant sits in the cos(q theta) term.  The two
    discriminants are evaluated in fixed point at ``chambers_bits``
    fractional bits, because rounding in the transfer product is amplified
    by ||Phi_q|| ~ exp(q gamma); the returned residual then measures the
    identity rather than float64 noise.
    """
    bits = chambers_bits(alpha.q, lam, E)
    (tr, ti), (dr, di), term = _chambers_fixed(alpha, lam, E, theta, bits)
    return math.hypot((tr - dr + term) / (1 << bits), (ti - di) / (1 << bits))


# ---------------------------------------------------------------------------
# vectorized evaluation on energy grids


def _grid_dtype(energies: np.ndarray) -> np.dtype:
    return np.complex128 if np.iscomplexobj(energies) else np.float64


def _grid_kernel(spec: OperatorSpec, energies: np.ndarray, with_derivative: bool):
    """The scaled one-period recurrence at every grid energy.

    Phi = [[a, b], [c, d]] is carried as two stacked arrays, X = [a, b] and
    Y = [c, d], each one row per entry and one column per energy; with the
    energy derivative, X = [a, b, da, db] and Y = [c, d, dc, dd].  One step
    is X, Y = e X - Y, X, plus the old [a, b] added onto the derivative
    rows, written into the third of three buffers that then rotate.  Every
    operand of a step has the rows' shape: the energies are copied into
    every row once, so e = E - V(j) fills a buffer of that shape and e X
    needs no broadcast, which costs numpy more than the multiply itself.  The factor
    e stays the left operand of every product: numpy's complex multiply is
    not bitwise commutative.  After every _RESCALE_EVERY steps, and after
    the last, all entries are divided by s = max(|a|, |b|, |c|, |d|) (1
    where s is 0 or NaN), copied into each row, and log s is accumulated.
    Every buffer, the rescale's included, is allocated once per call, so
    no step allocates.
    """
    E = np.asarray(energies)
    E = E.astype(_grid_dtype(E))
    q = spec.period
    V = spec.period_potential.tolist()

    k = 4 if with_derivative else 2
    X = np.zeros((k,) + E.shape, dtype=E.dtype)
    Y = np.zeros_like(X)
    T = np.empty_like(X)
    X[0] = 1.0  # a
    Y[1] = 1.0  # d
    E_k = np.broadcast_to(E, X.shape).copy()
    e = np.empty_like(X)
    A = np.empty((2,) + E.shape, dtype=np.float64)  # |a|, |b|, then the maxima
    B = np.empty_like(A)  # |c|, |d|
    S = np.empty((k,) + E.shape, dtype=np.float64)  # s in every row
    s = S[0, ...]  # a view, also where E is 0-d
    unit = np.empty(E.shape, dtype=bool)
    log_scale = np.zeros(E.shape, dtype=np.float64)

    for start in range(0, q, _RESCALE_EVERY):
        for v in V[start : start + _RESCALE_EVERY]:
            np.subtract(E_k, v, out=e)
            np.multiply(e, X, out=T)
            if with_derivative:
                T[2:] += X[:2]  # (e da + a) - dc, bitwise a + e da - dc
            T -= Y
            X, Y, T = T, X, Y
        np.abs(X[:2], out=A)
        np.abs(Y[:2], out=B)
        np.maximum(A, B, out=A)
        np.maximum(A[0], A[1], out=s)
        np.greater(s, 0.0, out=unit)
        np.logical_not(unit, out=unit)
        np.copyto(s, 1.0, where=unit)
        S[1:] = s
        X /= S
        Y /= S
        log_scale += np.log(s, out=s)
    if with_derivative:
        return X[0] + Y[1], X[2] + Y[3], log_scale
    return X[0] + Y[1], log_scale


def discriminant_grid(spec: OperatorSpec, energies: np.ndarray):
    """D at every grid energy, in scaled form (mantissa, log_scale).

    D = mantissa * exp(log_scale) elementwise; log_scale stays finite where
    a direct product would overflow.
    """
    return _grid_kernel(spec, energies, with_derivative=False)


def discriminant_and_derivative_grid(
    spec: OperatorSpec, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D mantissa, D' mantissa, shared log_scale) at every grid energy."""
    return _grid_kernel(spec, energies, with_derivative=True)
