"""Lyapunov exponents and half-line Green functions of periodic operators.

The Lyapunov exponent of a period-q operator is read off the trace D of
the one-period transfer product, gamma = Re arccosh(D/2) / q = ln(spectral
radius) / q, and vanishes exactly on the spectrum.  Half-line Green
functions come from the decaying Floquet solution psi built on the
contracting eigenvector of the monodromy:

    G^{[k,inf)}(k, l; z) = -psi(l) / psi(k - 1),

which makes the resolvent factorization, the one-period power law and the
gamma-Green relation exact identities rather than numerical accidents.
Note the sign bookkeeping: with G = (H - z)^{-1} as defined, the
factorization reads G(k,l) = -G(k,n) G^{[n+1,inf)}(n+1,l) and therefore
G(1, m q) = (-1)^{m-1} G(1, q)^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OperatorSpec,
    discriminant_grid,
    eigenvector,
    floquet_exponent,
    floquet_multiplier,
    monodromy_scaled,
    potential_array,
)

__all__ = [
    "LyapunovValue",
    "GreenIdentityReport",
    "SuraceReport",
    "lyapunov",
    "lyapunov_grid",
    "green_halfline",
    "green_identities_check",
    "surace_deviation",
]

_UNIMODULAR_TOL = 1e-10


@dataclass(frozen=True)
class LyapunovValue:
    """Per-site exponent; bloch_k is set only on band interiors (gamma = 0)."""

    gamma: float
    bloch_k: float | None = None


@dataclass(frozen=True)
class GreenIdentityReport:
    z: complex
    m: int
    factorization_residual: float
    power_residual: float
    l2_sum: float
    l2_identity_residual: float
    epsilon: float

    @property
    def l2_bound_ok(self) -> bool:
        return self.l2_sum <= (1.0 / self.epsilon**2) * (1.0 + 1e-12)

    @property
    def failures(self) -> list[str]:
        """Each identity that misses its tolerance, with its measured value."""
        out = [
            f"{name} {value:.17g} exceeds 1e-08"
            for name, value in (
                ("factorization_residual", self.factorization_residual),
                ("power_residual", self.power_residual),
            )
            if not value <= 1e-8
        ]
        if not self.l2_bound_ok:
            out.append(f"l2_sum {self.l2_sum:.17g} exceeds 1/eps^2 = {self.epsilon**-2:.17g}")
        return out

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SuraceReport:
    epsilon: float
    eta: float
    measured_measure: float
    bound: float
    slack: float
    mesh: float
    n_points: int

    @property
    def ok(self) -> bool:
        return self.measured_measure <= self.bound + self.slack


# ---------------------------------------------------------------------------
# Lyapunov exponents


def lyapunov(spec: OperatorSpec, z: complex) -> LyapunovValue:
    """gamma(z) = Re w / q, w = arccosh(D(z) / 2), with the Bloch phase on bands.

    w is the Floquet exponent (:func:`~almost_mathieu.core.floquet_exponent`).
    For real z the exponent vanishes exactly when |D(z)| <= 2, in which case
    the monodromy eigenvalues are e^{+- i k q} and k = Im w / q in [0, pi/q]
    is returned.
    """
    z = complex(z)
    m, log_s = monodromy_scaled(spec, z)
    w = complex(floquet_exponent(m.trace(), log_s))
    if z.imag == 0.0 and w.real == 0.0:
        return LyapunovValue(0.0, w.imag / spec.period)
    return LyapunovValue(w.real / spec.period, None)


def lyapunov_grid(spec: OperatorSpec, energies: np.ndarray) -> np.ndarray:
    """Vectorized gamma = Re w / q over an energy grid (real or complex).

    Real energies are cast to complex and run the complex grid kernel too,
    about twice the time of the float kernel; the float kernel rounds
    differently in the last bits, so switching would move gamma bitwise.
    """
    E = np.asarray(energies, dtype=np.complex128)
    return floquet_exponent(*discriminant_grid(spec, E)).real / spec.period


# ---------------------------------------------------------------------------
# half-line Green functions


def _contracting_eigenpair(spec: OperatorSpec, z: complex):
    """(mu phase, log |mu|, eigenvector) of the contracting monodromy branch."""
    m, log_s = monodromy_scaled(spec, z)
    # det(Phi_q) = 1 structurally, so the scaled determinant is known in
    # closed form; computing it from the entries would cancel catastrophically
    # once exp(-2 gamma q) drops below eps
    det = math.exp(max(-2.0 * log_s, -700.0))
    # the contracting multiplier of the scaled matrix
    mu_small_hat = det / floquet_multiplier(m.trace(), det)
    log_mu = math.log(abs(mu_small_hat)) + log_s
    if log_mu > -_UNIMODULAR_TOL * spec.period:
        raise ValueError(
            "resolvent unbounded: monodromy eigenvalues unimodular "
            f"(|mu| = exp({log_mu:.2e}))"
        )
    v = eigenvector(m, mu_small_hat)
    if v is None:
        raise ValueError("degenerate contracting eigenvector")
    return mu_small_hat / abs(mu_small_hat), log_mu, v


class _FloquetSolution:
    """The decaying solution psi of H psi = z psi on the half line.

    psi is stored over one period and extended by powers of the contracting
    Floquet multiplier; values are handed out in log-magnitude + phase form
    so that exponentially small entries never underflow intermediate
    arithmetic.
    """

    def __init__(self, spec: OperatorSpec, z: complex):
        self.spec = spec
        self.z = complex(z)
        self.q = spec.period
        mu_phase, log_mu, v = _contracting_eigenpair(spec, self.z)
        self.mu_phase = mu_phase
        self.log_mu = log_mu
        mu = mu_phase * math.exp(max(log_mu, -700.0))
        V = potential_array(spec, 1, self.q)
        # propagate backwards from (psi(q+1), psi(q)) = mu (psi(1), psi(0)):
        # the decaying solution grows in that direction, so the admixture of
        # the complementary solution dies off instead of taking over
        base = np.empty(self.q + 2, dtype=np.complex128)
        base[self.q + 1] = mu * v[0]
        base[self.q] = mu * v[1]
        for n in range(self.q, 0, -1):
            base[n - 1] = (self.z - V[n - 1]) * base[n] - base[n + 1]
        self.base = base[: self.q + 1]

    def log_value(self, n: int) -> tuple[float, complex]:
        """psi(n) as (log magnitude, unit phase)."""
        m, r = divmod(n, self.q)
        val = self.base[r]
        mag = abs(val)
        if mag == 0.0:
            return -math.inf, 0j
        log_mag = math.log(mag) + m * self.log_mu
        phase = (val / mag) * self.mu_phase**m
        return log_mag, phase

    def ratio(self, num: int, den: int) -> complex:
        """psi(num) / psi(den), safe against under/overflow."""
        ln, pn = self.log_value(num)
        ld, pd = self.log_value(den)
        if ld == -math.inf:
            raise ValueError("resolvent unbounded: decaying solution vanishes")
        if ln == -math.inf:
            return 0j
        log_ratio = ln - ld
        if log_ratio < -745.0:
            return 0j
        if log_ratio > 709.0:
            raise OverflowError("Green function magnitude overflows a float")
        return math.exp(log_ratio) * pn / pd

    def abs2_sum_from(self, start: int) -> float:
        """sum_{n >= start} |psi(n)|^2 / |psi(start)|^2 anchored at start.

        Closed form over periods: the tail is geometric with ratio
        |mu|^2 < 1, so no truncation error at all.
        """
        ls, _ = self.log_value(start)
        total = 0.0
        # one full period starting at `start`
        for n in range(start, start + self.q):
            lv, _ = self.log_value(n)
            rel = lv - ls
            if rel > -350.0:
                total += math.exp(2.0 * rel)
        ratio = math.exp(2.0 * self.log_mu)
        return total / (1.0 - ratio)


def green_halfline(spec: OperatorSpec, k: int, l: int, z: complex) -> complex:
    """G^{[k,inf)}(k, l; z) from the decaying Floquet solution.

    Requires a bounded resolvent: Im z > 0 always works; real z works off
    the spectrum (gamma > 0) away from half-line bound states.
    """
    if l < k:
        raise ValueError("need l >= k")
    return -_FloquetSolution(spec, z).ratio(l, k - 1)


def green_identities_check(spec: OperatorSpec, z: complex, m: int) -> GreenIdentityReport:
    """Residuals of the resolvent factorization, power law and l^2 identity.

    All three are exact identities for the half-line resolvent with
    Im z = eps > 0:

      G(k,l) = -G(k,n) G^{[n+1,inf)}(n+1,l)           (k < n < l)
      G(1, m q) = (-1)^{m-1} G(1, q)^m
      sum_k |G(1,k)|^2 = Im G(1,1) / eps <= 1 / eps^2
    """
    z = complex(z)
    eps = z.imag
    if eps <= 0.0:
        raise ValueError("green_identities_check needs Im z > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = spec.period
    sol = _FloquetSolution(spec, z)

    def g(k: int, l: int) -> complex:
        return -sol.ratio(l, k - 1)

    # factorization across a few interior splits
    fact_res = 0.0
    l_far = 2 * q + 1
    for n in (1, q, q + 1):
        lhs = g(1, l_far)
        rhs = -g(1, n) * g(n + 1, l_far)
        fact_res = max(fact_res, abs(lhs - rhs) / max(abs(lhs), 1e-300))

    # one-period power law
    g_q = g(1, q)
    g_mq = g(1, m * q)
    power_res = abs(g_mq - (-1.0) ** (m - 1) * g_q**m) / max(abs(g_q) ** m, 1e-300)

    # l^2 row sum against the imaginary part, k0 = 1:
    # sum_k |G(1,k)|^2 = sum_{n>=1} |psi(n)|^2 / |psi(0)|^2
    l2 = float(sol.abs2_sum_from(1) * abs(sol.ratio(1, 0)) ** 2)
    im_id = float(abs(complex(g(1, 1)).imag) / eps)
    l2_res = abs(l2 - im_id) / max(im_id, 1e-300)

    return GreenIdentityReport(
        z, m, float(fact_res), float(power_res), l2, float(l2_res), eps
    )


def surace_deviation(
    spec: OperatorSpec, epsilon: float, eta: float, grid: int = 10001
) -> SuraceReport:
    """Grid estimate of meas{E : |gamma(E + i eps) - gamma(E)| >= eta}.

    The estimate counts the points of a uniform grid of ``grid`` energies
    over [-2 - c, 2 + c], c = ``spec.coupling``.  The true measure is at
    most pi eps / eta; the grid estimate carries a declared resolution
    slack of 2 * mesh * (number of indicator sign changes).  The grid needs
    at least two points to have a mesh.
    """
    if epsilon <= 0.0 or eta <= 0.0:
        raise ValueError("epsilon and eta must be positive")
    hull = 2.0 + spec.coupling
    E = np.linspace(-hull, hull, grid)
    if len(E) < 2:
        raise ValueError(f"surace_deviation needs at least 2 grid points, got {len(E)}")
    mesh = float(E[1] - E[0])
    g_real = lyapunov_grid(spec, E)
    g_shift = lyapunov_grid(spec, E + 1j * epsilon)
    indicator = np.abs(g_shift - g_real) >= eta
    measured = float(np.count_nonzero(indicator) * mesh)
    changes = int(np.count_nonzero(indicator[1:] != indicator[:-1]))
    slack = 2.0 * mesh * max(changes, 1)
    bound = math.pi * epsilon / eta
    return SuraceReport(epsilon, eta, measured, bound, slack, mesh, len(E))
