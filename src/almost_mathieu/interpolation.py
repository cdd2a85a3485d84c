"""Interpolation between rational frequencies at critical coupling.

To compare a fine rational p~/q~ with a coarse one p/q, the intermediate
operator follows the fine potential on an initial window of l0 whole
coarse periods and then freezes the accumulated phase:

    V~(n) = 2 cos(2 pi (p/q) n + theta_n),   theta_n = 2 pi (p~/q~ - p/q) n

for n < l0 q, with theta held at theta_{l0 q} afterwards.  Below the freeze
site V~ is exactly the fine potential.  The machinery here builds that
operator, checks that the phase window keeps the energy uniformly
hyperbolic (D_theta < -2 - 3 delta / 4 through Chambers' formula), checks
the block traces that certify a per-block exponent floor, forms the inverse
transfer blocks, and compares the two half-line Green functions in log
form: G from the fine operator's decaying Floquet solution, G~ from the
frozen tail's, carried back through the window by the same recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Mat2,
    OperatorSpec,
    ReducedRational,
    delta_spec,
    discriminant_grid,
    floquet_exponent,
    monodromy_scaled,
    potential_array,
)
from .greens import log_green_halfline, log_green_window

# the constant C of the closeness gate |p~/q~ - p/q| <= C^{-q} delta^2
CLOSENESS_GATE = 50

__all__ = [
    "IntermediatePotential",
    "WindowReport",
    "TraceMarginReport",
    "ComparisonReport",
    "gate_eta",
    "build_intermediate",
    "window_check",
    "inverse_blocks",
    "trace_margin_check",
    "green_comparison",
]


@dataclass(frozen=True)
class IntermediatePotential:
    """The two-scale potential: fine rational up to l0 q, frozen phase after."""

    base: ReducedRational
    fine: ReducedRational
    delta: float
    l0: int
    ctilde: float
    gate_ok: bool

    @property
    def freeze_site(self) -> int:
        return self.l0 * self.base.q

    def drift(self) -> Fraction:
        return self.fine.as_fraction() - self.base.as_fraction()

    def theta(self, n):
        """theta_n = 2 pi (p~/q~ - p/q) n, frozen at the freeze site.

        n is a site or an integer array of sites; the phase is reduced mod
        2 pi in int64 before it is scaled.
        """
        n_eff = np.minimum(n, self.freeze_site)
        d = self.drift()
        return 2.0 * math.pi * ((d.numerator * n_eff) % d.denominator) / d.denominator

    def fine_spec(self) -> OperatorSpec:
        return OperatorSpec.almost_mathieu(self.fine, 2.0, 0.0)

    def frozen_spec(self) -> OperatorSpec:
        """The coarse operator at the frozen phase theta_{l0 q}, at absolute sites."""
        return OperatorSpec.almost_mathieu(self.base, 2.0, self.theta(self.freeze_site))

    def potential_array(self, start: int, count: int) -> np.ndarray:
        """V~(start), ..., V~(start + count - 1).

        The fine potential (theta 0) below the freeze site, the frozen one
        from it on.
        """
        k = min(max(self.freeze_site - start, 0), count)  # the sites below it
        return np.concatenate(
            (
                potential_array(self.fine_spec(), start, k),
                potential_array(self.frozen_spec(), start + k, count - k),
            )
        )


@dataclass(frozen=True)
class WindowReport:
    """ok is Delta < bound, for Delta = delta_mantissa * exp(delta_log_scale)."""

    ok: bool
    bound: float
    delta_mantissa: float
    delta_log_scale: float
    threshold: float


@dataclass(frozen=True)
class TraceMarginReport:
    """Block j's trace is traces[j] * exp(log_scales[j])."""

    traces: tuple[complex, ...]
    log_scales: tuple[float, ...]
    gammas: tuple[float, ...]
    gamma_floor: float
    trace_ok: bool
    gamma_ok: bool

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.gamma_ok


@dataclass(frozen=True)
class ComparisonReport:
    """Step (i) in natural logs: ln |G(1, q q~)| against ln((5 / eps^3) |G~(1, l0 q)|)."""

    epsilon: float
    ln_lhs_i: float
    ln_rhs_i: float
    fitted_cprime: float
    window_ok: bool
    trace_ok: bool

    @property
    def step_i_ok(self) -> bool:
        return self.ln_lhs_i <= self.ln_rhs_i + 1e-12


def gate_eta(q: int, delta: float) -> Fraction:
    """The closeness gate's radius CLOSENESS_GATE^{-q} delta^2, exactly."""
    return Fraction(CLOSENESS_GATE) ** (-q) * Fraction(delta) ** 2


def build_intermediate(
    pq: ReducedRational,
    ptqt: ReducedRational,
    delta: float,
    ctilde: float = 0.5,
) -> IntermediatePotential:
    """Window length l0 = floor(ctilde q~ sqrt(delta) / q), with guards.

    The closeness gate |p~/q~ - p/q| <= gate_eta(q, delta) is recorded,
    not enforced: coarse approximants are flagged and still computable.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    l0 = int(math.floor(ctilde * ptqt.q * math.sqrt(delta) / pq.q))
    if l0 < 1:
        raise ValueError(f"approximant too coarse: l0 = {l0} < 1")
    if l0 > ptqt.q:
        raise ValueError(f"window too long: l0 = {l0} > {ptqt.q}")
    gap = abs(ptqt.as_fraction() - pq.as_fraction())
    return IntermediatePotential(
        base=pq,
        fine=ptqt,
        delta=float(delta),
        l0=l0,
        ctilde=float(ctilde),
        gate_ok=gap <= gate_eta(pq.q, delta),
    )


def window_check(ip: IntermediatePotential, E: float) -> WindowReport:
    """D_{p/q, 2, theta_j}(E) < -2 - 3 delta / 4 for all 0 <= j <= l0 q.

    At critical coupling Chambers' formula collapses the check to a single
    Delta evaluation: D_theta = Delta - 2 cos(q theta), so every j holds
    exactly when Delta < bound = -2 - 3 delta / 4 + min_j 2 cos(q theta_j),
    which is negative.  Delta stays in scaled form and the test is made on
    logs, ln(-Delta) > ln(-bound); where log |Delta| is large the sign of
    Delta decides every j, and nothing overflows at any q.
    """
    thr = -2.0 - 0.75 * ip.delta
    n_j = np.arange(0, ip.freeze_site + 1, dtype=np.int64)
    bound = thr + float(np.min(2.0 * np.cos(ip.base.q * ip.theta(n_j))))
    m, s = (float(x[0]) for x in discriminant_grid(delta_spec(ip.base, 2.0), np.array([E])))
    return WindowReport(
        ok=m < 0.0 and math.log(-m) + s > math.log(-bound),
        bound=bound,
        delta_mantissa=m,
        delta_log_scale=s,
        threshold=thr,
    )


def _forward_blocks(ip: IntermediatePotential, z: complex) -> list[tuple[Mat2, float]]:
    """The l0 one-period products T_{(j+1)q} ... T_{jq+1} at z, scaled."""
    q = ip.base.q
    return [
        monodromy_scaled(OperatorSpec.explicit(ip.potential_array(j * q + 1, q)), z)
        for j in range(ip.l0)
    ]


def inverse_blocks(ip: IntermediatePotential, E: float, epsilon: float) -> list[Mat2]:
    """The l0 inverse one-period transfer blocks at E + i epsilon.

    Each block is Q^{-1}_{jq+1} ... Q^{-1}_{(j+1)q} with
    Q^{-1}_n = [[0, 1], [-1, E + i eps - V~(n)]], the inverse of the
    forward product T_{(j+1)q} ... T_{jq+1}.  That product has det = 1
    structurally, so its inverse is [[d, -b], [-c, a]].
    """
    return [
        Mat2(m.a22, -m.a12, -m.a21, m.a11).scaled(math.exp(log_s))
        for m, log_s in _forward_blocks(ip, complex(E, epsilon))
    ]


def trace_margin_check(
    ip: IntermediatePotential, E: float, epsilon: float
) -> TraceMarginReport:
    """|Tr T_j^{-1}| > 2 + delta/2 per block, and the exponent floor.

    A trace margin implies per-block eigenvalues e^{+-(gamma_j + i zeta_j)}
    with gamma_j > arccosh(1 + delta/4) >= c sqrt(delta).  An inverse block
    has the trace of its det-1 forward product, read here in scaled form:
    the margin on logs, the exponents through ``floquet_exponent``.
    """
    blocks = _forward_blocks(ip, complex(E, epsilon))
    traces = tuple(complex(m.trace()) for m, _ in blocks)
    log_scales = tuple(log_s for _, log_s in blocks)
    gammas = tuple(floquet_exponent(traces, log_scales).real.tolist())
    floor = math.acosh(1.0 + ip.delta / 4.0)
    ln_bound = math.log(2.0 + ip.delta / 2.0)
    return TraceMarginReport(
        traces, log_scales, gammas, floor,
        trace_ok=all(
            t != 0.0 and math.log(abs(t)) + s > ln_bound for t, s in zip(traces, log_scales)
        ),
        gamma_ok=all(g > floor for g in gammas),
    )


def green_comparison(
    ip: IntermediatePotential, E: float, epsilon: float
) -> ComparisonReport:
    """Step (i) of the Green comparison between fine and intermediate operators.

    Step (i): |G(1, q q~)| <= (5 / eps^3) |G~(1, l0 q)|, decided on natural
    logs, which stay finite where both sides underflow.  G is read off the
    fine operator's decaying Floquet solution, and G~ off the frozen
    operator's, carried back through the fine window sites below the
    freeze site l0 q by the same recurrence (:func:`log_green_window`).

    The fitted decay constant c' solving |G~(1, l0 q)| = (4 / eps)
    exp(-c' delta q~ / q) is a diagnostic: it is fitted from G~ itself, so
    it bounds nothing.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    z = complex(E, epsilon)
    q, qt = ip.base.q, ip.fine.q
    ln_g = log_green_halfline(ip.fine_spec(), 1, q * qt, z)[0]
    window = ip.potential_array(1, ip.freeze_site - 1)
    ln_g_tilde = log_green_window(ip.frozen_spec(), window, z)[0]

    ln_rhs_i = math.log(5.0) - 3.0 * math.log(epsilon) + ln_g_tilde
    cprime = -(math.log(epsilon / 4.0) + ln_g_tilde) * q / (ip.delta * qt)

    return ComparisonReport(
        epsilon=float(epsilon),
        ln_lhs_i=ln_g,
        ln_rhs_i=ln_rhs_i,
        fitted_cprime=cprime,
        window_ok=window_check(ip, E).ok,
        trace_ok=trace_margin_check(ip, E, epsilon).ok,
    )
