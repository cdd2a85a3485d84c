"""Continued fractions and frequencies with zero-dimensional spectra.

Frequencies are handled purely through their convergents p_k/q_k (exact
big-integer arithmetic); no real-number object exists.  The constructor
builds an expansion whose odd levels j satisfy, with delta_j = q_j^{-j},
eta_j = C^{-q_j} delta_j^2 and C(p, q) = C q_j:

  (1)  |alpha_{j+1} - alpha_j| < min(eta_j, delta_j)
  (2)  |alpha - alpha_{j+1}|   < q_{j+1}^{-(j+1)}
  (3)  q_{j+1} > q_j^j   and
       (C(p_j,q_j)/delta_j) exp{-delta_j q_{j+1} / C(p_j,q_j)} <= q_{j+1}^{-j},

choosing each next quotient as the least integer that works.  Conditions
(1), (2) and the power half of (3) are decided in exact rational
arithmetic; the transcendental half of (3) is decided in high-precision
floating point with a cross-checked precision margin, with integer
candidates bracketed and settled by monotonicity.  Certificates keep the
margins in those exact forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ReducedRational

__all__ = [
    "ContinuedFraction",
    "LevelCertificate",
    "AlphaCertificate",
    "convergents",
    "construct_alpha",
    "verify_conditions",
    "margin_sign_log10",
]

_DIGIT_GUARD = 10**6


@dataclass(frozen=True)
class ContinuedFraction:
    """alpha = 1/(n1 + 1/(n2 + ...)) with its convergent chain."""

    quotients: tuple[int, ...]
    convergents: tuple[ReducedRational, ...]


@dataclass(frozen=True)
class LevelCertificate:
    """The margins of the three conditions at level j; each holds iff positive.

    The margins of (1), (2) and the power half of (3) are exact rationals,
    that of the decay half of (3) a 100-digit mpmath number; they reach
    thousands of digits, so reports give :func:`margin_sign_log10` of them.
    """

    j: int
    q_j: int
    q_j1: int
    cond1_margin: Fraction
    cond2_margin: Fraction
    cond3a_margin: Fraction
    cond3b_margin: mpmath.mpf

    @property
    def ok(self) -> bool:
        return (
            self.cond1_margin > 0
            and self.cond2_margin > 0
            and self.cond3a_margin > 0
            and self.cond3b_margin > 0
        )


@dataclass(frozen=True)
class AlphaCertificate:
    levels: tuple[LevelCertificate, ...]

    @property
    def all_ok(self) -> bool:
        return all(lev.ok for lev in self.levels)


def convergents(quotients: list[int]) -> ContinuedFraction:
    """Convergent chain p_k = n_k p_{k-1} + p_{k-2} (same for q), exact."""
    qs = [int(n) for n in quotients]
    if not qs or any(n < 1 for n in qs):
        raise ValueError("quotients must be positive integers")
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    out = []
    for n in qs:
        p_prev, p = p, n * p + p_prev
        q_prev, q = q, n * q + q_prev
        out.append(ReducedRational(p, q))
    return ContinuedFraction(tuple(qs), tuple(out))


def margin_sign_log10(x: Fraction | mpmath.mpf) -> tuple[int, float | None]:
    """The sign of an exact margin and log10 of its magnitude, None at 0.

    A float image of the margin would underflow to 0 or overflow to inf at
    the later levels; its log10 stays in range, and is taken at 30 digits.
    """
    import mpmath

    if x == 0:
        return 0, None
    with mpmath.workdps(30):
        if isinstance(x, Fraction):
            mag = mpmath.mpf(abs(x.numerator)) / x.denominator
        else:
            mag = abs(mpmath.mpf(x))
        return (1 if x > 0 else -1), float(mpmath.log10(mag))


def _log_condition3b(c: float, j: int, q_j: int, q_next: int) -> mpmath.mpf:
    """g = delta q_{j+1} / (C q_j) - ln(C q_j^{j+1}) - j ln(q_{j+1}).

    Positive g certifies the exponential-decay half of condition (3);
    equals minus the log of the condition's left/right ratio.
    """
    import mpmath

    cq = mpmath.mpf(c) * mpmath.mpf(q_j) ** (j + 1)
    return (
        mpmath.mpf(q_next) / cq
        - mpmath.log(mpmath.mpf(c) * mpmath.mpf(q_j) ** (j + 1))
        - j * mpmath.log(mpmath.mpf(q_next))
    )


def _certified_g(c: float, j: int, q_j: int, q_next: int) -> mpmath.mpf:
    """Condition (3b) margin with an agreement check across precisions."""
    import mpmath

    with mpmath.workdps(60):
        g60 = _log_condition3b(c, j, q_j, q_next)
    with mpmath.workdps(100):
        g100 = _log_condition3b(c, j, q_j, q_next)
        if mpmath.sign(g60) != mpmath.sign(g100):
            raise ArithmeticError(
                f"precision disagreement deciding condition (3) at q={q_next}"
            )
    return g100


def _guard_eta_size(c: float, j: int, q_j: int) -> None:
    """Refuse levels where eta = C^{-q} delta^2 has an unbuildable exact form.

    The exact rational eta needs about q |log10 C| + 2 j log10(q) digits;
    past the guard the construction is physically impossible, not merely
    slow.
    """
    log10c = abs(math.log10(c))
    digits_q = q_j.bit_length() * 0.30103
    if digits_q < 18.0:
        total = float(q_j) * log10c + 2.0 * j * digits_q
    else:
        # q_j itself is astronomical; C^{-q_j} is unbuildable unless C = 1
        total = math.inf if log10c > 1e-18 else 2.0 * j * digits_q
    if total > _DIGIT_GUARD:
        raise ValueError(f"eta underflows representable rationals at level {j}")


def _level_margins(c: float, j: int, q_j: int, q_j1: int, q_j2: int) -> LevelCertificate:
    _guard_eta_size(c, j, q_j)
    delta_j = Fraction(1, q_j**j)
    eta_j = Fraction(c) ** (-q_j) * delta_j**2
    gap = Fraction(1, q_j * q_j1)  # |alpha_{j+1} - alpha_j| exactly
    m1 = min(eta_j, delta_j) - gap
    m2 = Fraction(1, q_j1**(j + 1)) - Fraction(1, q_j1 * q_j2)
    m3a = Fraction(q_j1 - q_j**j)
    return LevelCertificate(j, q_j, q_j1, m1, m2, m3a, _certified_g(c, j, q_j, q_j1))


def verify_conditions(cf: ContinuedFraction, c: float, j_max: int) -> AlphaCertificate:
    """Margins of the three conditions at every odd level up to j_max.

    Condition (2) is certified through the convergent bound
    |alpha - p_k/q_k| < 1/(q_k q_{k+1}), so the expansion must extend at
    least two convergents past j_max.
    """
    if j_max < 1 or j_max % 2 == 0:
        raise ValueError("j_max must be a positive odd integer")
    if len(cf.convergents) < j_max + 2:
        raise ValueError(f"need at least {j_max + 2} convergents, have {len(cf.convergents)}")
    levels = []
    for j in range(1, j_max + 1, 2):
        q_j = cf.convergents[j - 1].q
        q_j1 = cf.convergents[j].q
        q_j2 = cf.convergents[j + 1].q
        levels.append(_level_margins(c, j, q_j, q_j1, q_j2))
    return AlphaCertificate(tuple(levels))


def construct_alpha(c: float, j_max: int) -> tuple[ContinuedFraction, AlphaCertificate]:
    """Greedy expansion satisfying the zero-dimension conditions.

    The expansion starts from the quotient 2.  Each odd level j picks the
    least next denominator q_{j+1} obeying conditions (1) and (3) with
    delta_j = q_j^{-j}, then appends one more quotient so that the
    convergent bound enforces condition (2).  All margins are re-derived by
    verify_conditions on the finished expansion.
    """
    if c <= 0.0:
        raise ValueError("C must be positive")
    if j_max < 1 or j_max % 2 == 0:
        raise ValueError("j_max must be a positive odd integer")

    quotients = [2]
    for j in range(1, j_max + 1, 2):
        qs = [1] + [r.q for r in convergents(quotients).convergents]  # q_0 = 1
        q_j, q_jm1 = qs[j], qs[j - 1]
        _guard_eta_size(c, j, q_j)
        delta_j = Fraction(1, q_j**j)
        eta_j = Fraction(c) ** (-q_j) * delta_j**2

        # exact integer thresholds for (1) and the power half of (3)
        cut1 = Fraction(1, q_j) / min(eta_j, delta_j)
        cut3a = Fraction(q_j**j)
        cut = max(cut1, cut3a)
        n0 = max(1, (math.floor((cut - q_jm1) / q_j)) + 1)
        while n0 * q_j + q_jm1 <= cut:
            n0 += 1

        def g_of(n: int) -> mpmath.mpf:
            return _certified_g(c, j, q_j, n * q_j + q_jm1)

        if g_of(n0) >= 0:
            n_next = n0
        else:
            # the margin grows linearly in q_{j+1} beyond its stationary
            # point; (1) may start us before it, so double past the sign
            # change and bisect on the increasing branch
            hi = max(2 * n0, 2)
            while g_of(hi) < 0:
                hi *= 2
                if hi.bit_length() > int(3.33 * _DIGIT_GUARD):
                    raise ValueError(f"condition (3) unsatisfiable at level {j}")
            stationary = Fraction(j) * Fraction(c) * Fraction(q_j) ** (j + 1)
            lo = max(n0, math.floor((stationary - q_jm1) / q_j) + 1)
            while lo < hi:
                mid = (lo + hi) // 2
                if g_of(mid) >= 0:
                    hi = mid
                else:
                    lo = mid + 1
            n_next = lo
        quotients.append(n_next)

        # continue the expansion far enough for condition (2):
        # q_{j+2} > q_{j+1}^j makes 1/(q_{j+1} q_{j+2}) < q_{j+1}^{-(j+1)}
        q_j1 = convergents(quotients).convergents[j].q
        need = Fraction(q_j1) ** j
        n_tail = max(1, math.floor((need - q_j) / q_j1) + 1)
        while n_tail * q_j1 + q_j <= need:
            n_tail += 1
        quotients.append(n_tail)

    cf = convergents(quotients)
    return cf, verify_conditions(cf, c, j_max)
