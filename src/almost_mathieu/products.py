"""Growth certificates for products of hyperbolic SL2(C) matrices.

Given factors T_n with eigenvalues e^{+-(gamma_n + i zeta_n)}, gamma_n > 0,
and unit eigenvectors phi_n^+-, the product Phi_N = T_N ... T_1 applied to
phi_1^+ grows like exp(sum gamma_n) provided the eigenvectors drift slowly:

    4 max(|phi_n^+ - phi_{n+1}^+|, |phi_n^- - phi_{n+1}^-|) / |det U_{n+1}|
        < beta gamma_n e^{-gamma_n},

in which case

    (1-beta) e^{(1-beta) sum gamma}  <=  |Phi_N phi_1^+|
                                     <=  (1+beta) e^{(1+beta) sum gamma}.

The certificate tracks Phi_{n-1} phi_1^+ = A_n phi_n^+ + B_n phi_n^- and
checks |B_n| <= beta |A_n| inductively at every step, recording the whole
track.  Coefficients are kept in rescaled form (value times exp(scale_log))
so certificates survive sum gamma far beyond float range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Mat2, eigenvector, floquet_exponent

__all__ = [
    "HyperbolicFactor",
    "ProductCertificate",
    "NonHyperbolicError",
    "eigensystem_2x2",
    "align_phases",
    "hypothesis_margins",
    "product_growth",
    "random_drift_chain",
]

_DET_TOL = 1e-10
_GAMMA_TOL = 1e-10


class NonHyperbolicError(ValueError):
    """Factor with (numerically) unimodular eigenvalues."""


@dataclass(frozen=True)
class HyperbolicFactor:
    """One SL2 factor with its eigen-data; columns of U are phi^+, phi^-."""

    T: Mat2
    gamma: float
    zeta: float
    phi_plus: tuple[complex, complex]
    phi_minus: tuple[complex, complex]

    def det_u(self) -> complex:
        return self.phi_plus[0] * self.phi_minus[1] - self.phi_minus[0] * self.phi_plus[1]

    def with_phases(self, phase_plus: complex, phase_minus: complex) -> "HyperbolicFactor":
        return HyperbolicFactor(
            self.T,
            self.gamma,
            self.zeta,
            (self.phi_plus[0] * phase_plus, self.phi_plus[1] * phase_plus),
            (self.phi_minus[0] * phase_minus, self.phi_minus[1] * phase_minus),
        )


@dataclass(frozen=True)
class ProductCertificate:
    """Coefficient track and growth verdict for one factor chain.

    A[n], B[n] are the rescaled coefficients of Phi_{n-1} phi_1^+ in the
    basis (phi_n^+, phi_n^-); true values are A[n] * exp(scale_log[n]).
    All norms and bounds are carried as logarithms.
    """

    beta: float
    gammas: tuple[float, ...]
    A: tuple[complex, ...]
    B: tuple[complex, ...]
    scale_log: tuple[float, ...]
    hypothesis_margins: tuple[float, ...]
    norm_final_log: float
    lower_log: float
    upper_log: float
    induction_ok: bool
    lower_chain_ok: bool
    verdict: str
    fail_location: int | None

    @property
    def sum_gamma(self) -> float:
        return float(sum(self.gammas))

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _canonical_phase(v: tuple[complex, complex]) -> tuple[complex, complex]:
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    ph = abs(lead) / lead
    return (v[0] * ph, v[1] * ph)


def eigensystem_2x2(T: Mat2) -> HyperbolicFactor:
    """Eigen-decomposition of a det-1 matrix with |eigenvalues| != 1.

    Eigenvalues come out as e^{+-(gamma + i zeta)} with gamma > 0, where
    gamma + i zeta = w is the Floquet exponent arccosh(tr / 2)
    (:func:`~almost_mathieu.core.floquet_exponent`); both eigenvectors are
    normalized and phase-fixed so their leading component is real positive.
    """
    det = T.det()
    if abs(det - 1.0) > _DET_TOL:
        raise ValueError(f"determinant {det} is not 1 within {_DET_TOL}")
    w = complex(floquet_exponent(T.trace()))
    if w.real <= _GAMMA_TOL:
        raise NonHyperbolicError(f"non-hyperbolic factor: gamma = {w.real}")

    def eigvec(lam: complex) -> tuple[complex, complex]:
        v = eigenvector(T, lam)
        if v is None:
            raise NonHyperbolicError("defective eigenvector")
        return _canonical_phase(v)

    return HyperbolicFactor(T, w.real, w.imag, eigvec(cmath.exp(w)), eigvec(cmath.exp(-w)))


def _solve_u(f: HyperbolicFactor, rhs: tuple[complex, complex]) -> tuple[complex, complex]:
    """Coefficients (a, b) with rhs = a phi^+ + b phi^-."""
    d = f.det_u()
    a = (f.phi_minus[1] * rhs[0] - f.phi_minus[0] * rhs[1]) / d
    b = (-f.phi_plus[1] * rhs[0] + f.phi_plus[0] * rhs[1]) / d
    return a, b


def align_phases(factors: list[HyperbolicFactor]) -> list[HyperbolicFactor]:
    """Re-phase eigenvectors, last to first, so that in

        phi_j^+- = a_j^+- phi_{j+1}^+- + b_j^+- phi_{j+1}^-+

    the diagonal coefficients a_j^+- are real and nonnegative."""
    if not factors:
        raise ValueError("empty factor list")
    out = list(factors)
    for j in range(len(out) - 2, -1, -1):
        nxt = out[j + 1]
        a_plus, _ = _solve_u(nxt, out[j].phi_plus)
        _, a_minus = _solve_u(nxt, out[j].phi_minus)
        ph_p = abs(a_plus) / a_plus if abs(a_plus) > 0.0 else 1.0
        ph_m = abs(a_minus) / a_minus if abs(a_minus) > 0.0 else 1.0
        out[j] = out[j].with_phases(ph_p, ph_m)
    return out


def hypothesis_margins(factors: list[HyperbolicFactor], beta: float) -> list[float]:
    """margin_n = beta gamma_n e^{-gamma_n} - 4 max drift / |det U_{n+1}|.

    The chain is extended by T_{N+1} = T_N, so the last margin carries zero
    drift.  All margins positive means the growth sandwich is guaranteed.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    margins = []
    n_fact = len(factors)
    for n in range(n_fact):
        cur = factors[n]
        nxt = factors[n + 1] if n + 1 < n_fact else factors[n]
        drift_p = math.hypot(
            abs(cur.phi_plus[0] - nxt.phi_plus[0]), abs(cur.phi_plus[1] - nxt.phi_plus[1])
        )
        drift_m = math.hypot(
            abs(cur.phi_minus[0] - nxt.phi_minus[0]),
            abs(cur.phi_minus[1] - nxt.phi_minus[1]),
        )
        margins.append(
            beta * cur.gamma * math.exp(-cur.gamma)
            - 4.0 * max(drift_p, drift_m) / abs(nxt.det_u())
        )
    return margins


def product_growth(factors: list[HyperbolicFactor], beta: float) -> ProductCertificate:
    """Run the coefficient recurrence and certify the growth sandwich.

    The coefficient step solves U_{n+1} (A_{n+1}, B_{n+1}) = U_n Lambda_n
    (A_n, B_n) with rescaling, then checks |B_n| <= beta |A_n| at every n
    and the final (1 -+ beta) exponential bounds.  A violated hypothesis
    still runs the recurrence but the verdict reports the first bad index.
    """
    margins = hypothesis_margins(factors, beta)
    n_fact = len(factors)
    hyp_bad = next((i + 1 for i, mg in enumerate(margins) if mg <= 0.0), None)

    A = [1.0 + 0j]
    B = [0j]
    scale_log = [0.0]
    ind_bad = None
    a, b, s_log = A[0], B[0], 0.0
    for n in range(n_fact):
        cur = factors[n]
        nxt = factors[n + 1] if n + 1 < n_fact else factors[n]
        lam = cmath.exp(complex(cur.gamma, cur.zeta))
        wa = a * lam
        wb = b / lam
        rhs = (
            wa * cur.phi_plus[0] + wb * cur.phi_minus[0],
            wa * cur.phi_plus[1] + wb * cur.phi_minus[1],
        )
        a, b = _solve_u(nxt, rhs)
        m = max(abs(a), abs(b))
        if m > 0.0:
            a /= m
            b /= m
            s_log += math.log(m)
        A.append(a)
        B.append(b)
        scale_log.append(s_log)
        if abs(b) > beta * abs(a) and ind_bad is None:
            ind_bad = n + 1
    induction_ok = ind_bad is None

    last = factors[-1]
    final_vec = (
        A[-1] * last.phi_plus[0] + B[-1] * last.phi_minus[0],
        A[-1] * last.phi_plus[1] + B[-1] * last.phi_minus[1],
    )
    norm_final_log = scale_log[-1] + math.log(
        math.hypot(abs(final_vec[0]), abs(final_vec[1]))
    )
    sum_gamma = sum(f.gamma for f in factors)
    lower_log = math.log1p(-beta) + (1.0 - beta) * sum_gamma
    upper_log = math.log1p(beta) + (1.0 + beta) * sum_gamma

    log_a_final = scale_log[-1] + math.log(max(abs(A[-1]), 1e-300))
    lower_chain_ok = log_a_final >= (1.0 - beta) * sum_gamma - 1e-9

    sandwich_ok = lower_log - 1e-9 <= norm_final_log <= upper_log + 1e-9
    if hyp_bad is not None:
        verdict, loc = "fail", hyp_bad
    elif not induction_ok:
        verdict, loc = "fail", ind_bad
    elif not sandwich_ok:
        verdict, loc = "fail", n_fact
    else:
        verdict, loc = "pass", None

    return ProductCertificate(
        beta=beta,
        gammas=tuple(f.gamma for f in factors),
        A=tuple(A),
        B=tuple(B),
        scale_log=tuple(scale_log),
        hypothesis_margins=tuple(margins),
        norm_final_log=norm_final_log,
        lower_log=lower_log,
        upper_log=upper_log,
        induction_ok=induction_ok,
        lower_chain_ok=lower_chain_ok,
        verdict=verdict,
        fail_location=loc,
    )


def random_drift_chain(
    rng: np.random.Generator,
    n_factors: int,
    beta: float,
    gamma_range: tuple[float, float] = (0.3, 1.5),
) -> list[HyperbolicFactor]:
    """Admissible random factor chain; intended for tests and self-checks.

    Starts from a random hyperbolic factor and evolves the eigenvector frame
    by rotations of angle at most (beta/8) gamma e^{-gamma}
    |det U|, half of what the drift hypothesis allows, so the resulting
    chain passes hypothesis_margins by construction.  Each new frame is
    re-phased so that the previous frame's diagonal coefficients in it are
    real and nonnegative, the condition :func:`align_phases` establishes, so
    the chain needs no align_phases pass.  The loop is plain complex
    arithmetic in the operation order of ``Mat2`` products and ``_solve_u``.
    """
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
    p0, p1 = complex(p[0]), complex(p[1])
    m0, m1 = complex(m_[0]), complex(m_[1])
    steps = rng.uniform([-0.05, -0.02], [0.05, 0.02], size=(n_factors, 2)).tolist()

    factors = []
    for n in range(n_factors):
        lam = cmath.exp(complex(gamma, zeta))
        d = p0 * m1 - m0 * p1
        # T = U diag(lam, 1/lam) U^-1, the first product being [[l0, r0], [l1, r1]]
        i11, i12, i21, i22 = m1 / d, -m0 / d, -p1 / d, p0 / d
        l0, l1, r0, r1 = p0 * lam, p1 * lam, m0 * (1.0 / lam), m1 * (1.0 / lam)
        t = Mat2(l0 * i11 + r0 * i21, l0 * i12 + r0 * i22,
                 l1 * i11 + r1 * i21, l1 * i12 + r1 * i22)
        factors.append(HyperbolicFactor(t, gamma, zeta, (p0, p1), (m0, m1)))
        det_u = abs(d)
        # target drift: half of what the hypothesis allows for this factor
        bound = 0.5 * beta * gamma * math.exp(-gamma)
        ang = bound * det_u / 4.0
        for _ in range(60):
            ca, sa = math.cos(ang), math.sin(ang)
            c0, c1 = ca * p0 - sa * p1, sa * p0 + ca * p1
            k0, k1 = ca * m0 - sa * m1, sa * m0 + ca * m1
            # re-phase the candidate so that the previous frame's diagonal
            # coefficients in it come out real nonnegative
            dc = c0 * k1 - k0 * c1
            a = (k1 * p0 - k0 * p1) / dc
            b = (-c1 * m0 + c0 * m1) / dc
            na, nb = abs(a), abs(b)
            ph_p = a / na if na > 0.0 else 1.0
            ph_m = b / nb if nb > 0.0 else 1.0
            c0, c1, k0, k1 = c0 * ph_p, c1 * ph_p, k0 * ph_m, k1 * ph_m
            drift = max(
                math.hypot(abs(c0 - p0), abs(c1 - p1)),
                math.hypot(abs(k0 - m0), abs(k1 - m1)),
            )
            if 4.0 * drift / det_u <= bound:
                break
            ang /= 2.0
        p0, p1, m0, m1 = c0, c1, k0, k1
        gamma = float(min(hi_g, max(lo_g, gamma + steps[n][0])))
        zeta = float(zeta + steps[n][1])
    return factors
