"""Lyapunov exponents and half-line Green functions of periodic operators.

The Lyapunov exponent of a period-q operator is read off the trace D of
the one-period transfer product, gamma = Re arccosh(D/2) / q = ln(spectral
radius) / q, and vanishes exactly on the spectrum.  Half-line Green
functions come from the decaying Floquet solution psi built on the
contracting eigenvector of the monodromy:

    G^{[k,inf)}(k, l; z) = -psi(l) / psi(k - 1),

which makes the resolvent factorization G(k,l) = -G(k,n)
G^{[n+1,inf)}(n+1,l), the one-period power law G(1, m q) = (-1)^{m-1}
G(1, q)^m and the gamma-Green relation exact identities rather than
numerical accidents; in log form the factorization holds term by term.
psi is carried as log |psi| and a unit phase, so a Green function far
below the smallest float, e^-2439 at 987/1597, keeps a finite logarithm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OperatorSpec,
    discriminant_grid,
    eigenvector,
    floquet_exponent,
    monodromy_scaled,
)

__all__ = [
    "LyapunovValue",
    "GreenIdentityReport",
    "SuraceReport",
    "lyapunov",
    "lyapunov_grid",
    "green_halfline",
    "log_green_halfline",
    "log_green_window",
    "green_identities_check",
    "surace_deviation",
]

_UNIMODULAR_TOL = 1e-10
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LyapunovValue:
    """Per-site exponent; bloch_k is set only on band interiors (gamma = 0)."""

    gamma: float
    bloch_k: float | None = None


@dataclass(frozen=True)
class GreenIdentityReport:
    z: complex
    m: int
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
        out = []
        if not self.power_residual <= 1e-8:
            out.append(f"power_residual {self.power_residual:.17g} exceeds 1e-08")
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

    A z with Im z == 0.0 (either signed zero) runs the monodromy on z.real,
    in real arithmetic, about 1.4 times faster than in complex at 144/233.
    The value does not change: the trace's real part and the log scale are
    the same floats either way, and ``floquet_exponent`` reads a zero
    imaginary part as +0.
    """
    z = complex(z)
    m, log_s = monodromy_scaled(spec, z.real if z.imag == 0.0 else z)
    w = complex(floquet_exponent(m.trace(), log_s))
    if z.imag == 0.0 and w.real == 0.0:
        return LyapunovValue(0.0, w.imag / spec.period)
    return LyapunovValue(w.real / spec.period, None)


def lyapunov_grid(spec: OperatorSpec, energies: np.ndarray) -> np.ndarray:
    """Vectorized gamma = Re w / q over an energy grid (real or complex).

    Real energies are cast to complex and run the complex grid kernel too,
    about twice the time of the float kernel.  Switching would change
    outputs: over 1/2, 2/5, 13/21, 55/89 and 144/233 at lam 2, theta 0, 0.7
    and 2, and 3001 energies in [-4, 4], the float kernel's gamma differed
    from the scalar loop's at 6740 of the 45015 points, by at most 2.6e-10,
    and the complex kernel's at 11, in the last bits, where ``np.log`` of
    a rescale factor differs from the scalar loop's ``math.log``.
    """
    E = np.asarray(energies, dtype=np.complex128)
    return floquet_exponent(*discriminant_grid(spec, E)).real / spec.period


# ---------------------------------------------------------------------------
# half-line Green functions


def _carry_back(
    z: complex, V: np.ndarray, log_scale: float, upper: complex, lower: complex
) -> tuple[np.ndarray, np.ndarray]:
    """psi(0), ..., psi(N) as (log |psi|, unit phase) arrays, N = len(V).

    Starts from psi(N + 1) = upper e^log_scale and psi(N) = lower e^log_scale
    and runs H psi = z psi backwards, psi(n - 1) = (z - V(n)) psi(n) -
    psi(n + 1) with V(n) = V[n - 1].  Every step divides the pair by the
    power of two at its larger modulus, which is exact, and counts the
    exponent, so nothing under- or overflows however far psi grows.  A zero
    psi(n) reads as log -inf with phase 0.
    """
    log_abs = np.empty(len(V) + 1)
    phase = np.empty(len(V) + 1, dtype=np.complex128)
    a, b = complex(upper), complex(lower)
    exponent = 0
    for n in range(len(V), -1, -1):
        mag = abs(b)
        log_abs[n] = log_scale + exponent * _LN2 + math.log(mag) if mag > 0.0 else -math.inf
        phase[n] = b / mag if mag > 0.0 else 0j
        if n > 0:
            a, b = b, (z - V[n - 1]) * b - a
            e = math.frexp(max(abs(a), abs(b)))[1]
            f = 2.0**-e
            a, b = a * f, b * f
            exponent += e
    return log_abs, phase


class _FloquetSolution:
    """The decaying solution psi of H psi = z psi on the half line, in log form.

    With w = arccosh(D / 2) from the scaled trace, the contracting Floquet
    multiplier is mu = e^{-w}: log |mu| = -Re w, with no determinant or
    multiplier ever formed in plain floats.  psi(q + 1), psi(q) = mu v for
    its eigenvector v, psi(0), ..., psi(q - 1) follow by :func:`_carry_back`
    (the decaying solution grows in that direction, so the admixture of the
    complementary solution dies off instead of taking over), and
    psi(m q + r) = mu^m psi(r) for 1 <= r <= q.
    """

    def __init__(self, spec: OperatorSpec, z: complex):
        self.q = spec.period
        self.z = z = complex(z)
        m, log_s = monodromy_scaled(spec, z)
        w = complex(floquet_exponent(m.trace(), log_s))
        self.log_mu = -w.real
        if self.log_mu > -_UNIMODULAR_TOL * self.q:
            raise ValueError(
                "resolvent unbounded: monodromy eigenvalues unimodular "
                f"(|mu| = exp({self.log_mu:.2e}))"
            )
        self.mu_phase = cmath.exp(-1j * w.imag)
        # the contracting multiplier of the scaled matrix may underflow to
        # 0.0; that moves v by less than 1e-308 of its length, since one of
        # the two rows eigenvector() chooses from holds the unit entry
        v = eigenvector(m, self.mu_phase * math.exp(self.log_mu - log_s))
        if v is None:
            raise ValueError("degenerate contracting eigenvector")
        self.log_abs, self.phase = _carry_back(
            z, spec.period_potential, self.log_mu,
            self.mu_phase * v[0], self.mu_phase * v[1],
        )

    def log_value(self, n: int) -> tuple[float, complex]:
        """psi(n) as (log magnitude, unit phase)."""
        m = max(n - 1, 0) // self.q
        r = n - m * self.q
        return float(self.log_abs[r]) + m * self.log_mu, complex(self.phase[r]) * self.mu_phase**m

    def log_green(self, k: int, l: int) -> tuple[float, complex]:
        """G^{[k,inf)}(k, l; z) = -psi(l) / psi(k - 1) as (log magnitude, unit phase)."""
        ln, pn = self.log_value(l)
        ld, pd = self.log_value(k - 1)
        if ld == -math.inf:
            raise ValueError("resolvent unbounded: decaying solution vanishes")
        return ln - ld, -pn / pd


def log_green_halfline(spec: OperatorSpec, k: int, l: int, z: complex) -> tuple[float, complex]:
    """G^{[k,inf)}(k, l; z) as (ln |G|, unit phase), from the decaying Floquet solution.

    Requires a bounded resolvent: Im z > 0 always works; real z works off
    the spectrum (gamma > 0) away from half-line bound states.  ln |G| stays
    finite where |G| is far below the smallest float, as at
    987/1597, where ln |G(1, q)| = -q gamma is about -2439 at z = 5 + 0.5i.
    """
    if l < k:
        raise ValueError("need l >= k")
    return _FloquetSolution(spec, z).log_green(k, l)


def log_green_window(
    tail: OperatorSpec, window: np.ndarray, z: complex
) -> tuple[float, complex]:
    """G^{[1,inf)}(1, N + 1; z) as (ln |G|, unit phase), N = len(window).

    The operator's potential is window[n - 1] on the sites n = 1..N and the
    periodic ``tail`` at the absolute sites n > N.  Its decaying solution is
    the tail's from site N on, since the equations there see only the tail;
    :func:`_carry_back` carries it through the window sites N, ..., 1 to
    psi(0), and G(1, N + 1) = -psi(N + 1) / psi(0).
    """
    sol = _FloquetSolution(tail, z)
    n = len(window)
    (l_up, p_up), (l_lo, p_lo) = sol.log_value(n + 1), sol.log_value(n)
    top = max(l_up, l_lo)
    log_abs, phase = _carry_back(
        sol.z, window, top, p_up * math.exp(l_up - top), p_lo * math.exp(l_lo - top)
    )
    if log_abs[0] == -math.inf:
        raise ValueError("resolvent unbounded: decaying solution vanishes")
    return l_up - float(log_abs[0]), -p_up / complex(phase[0])


def green_halfline(spec: OperatorSpec, k: int, l: int, z: complex) -> complex:
    """G^{[k,inf)}(k, l; z) as a complex float: :func:`log_green_halfline`, exponentiated.

    Below about e^-745 the value underflows to 0; an ln |G| above 709
    raises ``OverflowError``.
    """
    ln, phase = log_green_halfline(spec, k, l, z)
    return phase * math.exp(ln)


def _log_gap(a: tuple[float, complex], b: tuple[float, complex]) -> float:
    """|ln(a / b)| for two values in (log magnitude, unit phase) form.

    Near a = b this is the relative residual |a - b| / |a|, and it stays
    finite where a and b underflow.
    """
    return abs(complex(a[0] - b[0], cmath.phase(a[1] / b[1])))


def green_identities_check(spec: OperatorSpec, z: complex, m: int) -> GreenIdentityReport:
    """Residuals of the power law and the l^2 identity.

    Both are exact identities for the half-line resolvent with
    Im z = eps > 0:

      G(1, m q) = (-1)^{m-1} G(1, q)^m
      sum_k |G(1,k)|^2 = Im G(1,1) / eps <= 1 / eps^2

    The power law is compared in log form, as |ln(lhs / rhs)|, so it stays
    finite where G underflows.  It follows from the ratio formula G(k,l) =
    -psi(l) / psi(k-1) and psi(n + q) = mu psi(n), so it checks only that
    the backward recurrence closes over one period.  The l^2 identity is
    independent of the construction.  The resolvent factorization G(k,l) =
    -G(k,n) G^{[n+1,inf)}(n+1,l) is not checked: in log form the two sides
    are the same sum of the same terms.
    """
    z = complex(z)
    eps = z.imag
    if eps <= 0.0:
        raise ValueError("green_identities_check needs Im z > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = spec.period
    sol = _FloquetSolution(spec, z)
    g = sol.log_green

    # one-period power law
    l_q, p_q = g(1, q)
    power_res = _log_gap(g(1, m * q), (m * l_q, (-1.0) ** (m - 1) * p_q**m))

    # l^2 row sum against the imaginary part, k0 = 1: sum_k |G(1,k)|^2 is
    # one period of |psi(n) / psi(0)|^2, n = 1..q, summed geometrically with
    # ratio |mu|^2 < 1
    l_11, p_11 = g(1, 1)
    one_period = np.exp(2.0 * (sol.log_abs[1:] - sol.log_abs[0]))
    l2 = float(np.sum(one_period) / -math.expm1(2.0 * sol.log_mu))
    im_id = abs((p_11 * math.exp(l_11)).imag) / eps
    l2_res = abs(l2 - im_id) / max(im_id, 1e-300)

    return GreenIdentityReport(z, m, power_res, l2, l2_res, eps)


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
    return SuraceReport(epsilon, eta, measured, bound, slack)
