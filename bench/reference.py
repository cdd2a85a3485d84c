"""Reference results computed apart from the ``almost_mathieu`` package.

Everything here starts from the operator itself,

    (H psi)(n) = psi(n+1) + psi(n-1) + lam cos(2 pi p n / q + theta) psi(n),

and uses scipy's dense symmetric eigensolver.  No function of the package
is imported, so a fault in the package cannot hide in its own reference.

Two facts carry the references:

* The discriminant D_theta(E) equals 2 cos(kappa) exactly at the
  eigenvalues of the q x q Floquet matrix with boundary phase e^{i kappa}.
  kappa = 0 gives the periodic eigenvalues (D = 2), kappa = pi the
  antiperiodic ones (D = -2).
* Chambers' formula D_theta = Delta - 2 (lam/2)^q cos(q theta).  The union
  over theta of the spectra, S(p/q, lam) = {|Delta| <= 2 + 2 (lam/2)^q},
  therefore has as its 2q edges the periodic eigenvalues at theta = 0
  together with the antiperiodic eigenvalues at theta = pi/q.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

THOULESS = 32.0 * 0.915965594177219015054603514932384110774 / math.pi  # 32 G / pi


def potential(p: int, q: int, lam: float, theta: float) -> np.ndarray:
    """V(1), ..., V(q) with the phase 2 pi p n / q reduced exactly mod 2 pi."""
    n = np.arange(1, q + 1, dtype=np.int64)
    return lam * np.cos(2.0 * math.pi * ((p * n) % q) / q + theta)


def floquet_eigenvalues(V: np.ndarray, corner: float) -> np.ndarray:
    """Sorted eigenvalues of the Floquet matrix with real boundary phase.

    ``corner`` is e^{i kappa} = +1 (periodic) or -1 (antiperiodic).  The
    corner entries add onto the hopping, which covers q = 2 (one entry
    1 + corner) and q = 1 (the single entry V + 2 corner) as well.
    """
    q = len(V)
    H = np.diag(np.asarray(V, dtype=np.float64))
    idx = np.arange(q - 1)
    H[idx, idx + 1] = 1.0
    H[idx + 1, idx] = 1.0
    H[q - 1, 0] += corner
    H[0, q - 1] += corner
    return np.sort(scipy.linalg.eigvalsh(H))


def union_s_bands(p: int, q: int, lam: float = 2.0) -> np.ndarray:
    """The q bands of S(p/q, lam) as a (q, 2) array of [lo, hi], ascending."""
    periodic = floquet_eigenvalues(potential(p, q, lam, 0.0), +1.0)
    antiperiodic = floquet_eigenvalues(potential(p, q, lam, math.pi / q), -1.0)
    return np.sort(np.concatenate((periodic, antiperiodic))).reshape(q, 2)


def edge_tolerance(widths: np.ndarray) -> np.ndarray:
    """The package's documented placement bound for each band's edges.

    1e-10 for bands at least 1e-8 wide; narrower bands may collapse onto
    their zero, so their edges are held to 1e-8.
    """
    return np.where(widths >= 1e-8, 1e-10, 1e-8)


def band_errors(bands: np.ndarray, reference: np.ndarray) -> list[str]:
    """Every way ``bands`` (q rows of [lo, hi]) misses ``reference``."""
    errors = []
    q = len(reference)
    if bands.shape != reference.shape:
        return [f"{len(bands)} bands, expected {q}"]
    lo, hi = bands[:, 0], bands[:, 1]
    if np.any(hi < lo) or np.any(lo[1:] < hi[:-1]):
        errors.append("bands not ordered")
    tol = edge_tolerance(reference[:, 1] - reference[:, 0])
    off = np.abs(bands - reference).max(axis=1)
    for k in np.nonzero(off > tol)[0]:
        errors.append(f"band {k + 1} edge off by {off[k]:.3g} (tolerance {tol[k]:.0e})")
    return errors


def box_count_bounds(measure: float, q: int, scale: float) -> tuple[float, float]:
    """Bounds on the number of grid boxes of side ``scale`` meeting q bands.

    N boxes of side s cover a set of measure |S|, so N >= |S| / s; a band
    of width w meets at most w / s + 2 boxes, so N <= |S| / s + 2 q.
    """
    return measure / scale, measure / scale + 2.0 * q


def lyapunov(p: int, q: int, lam: float, theta: float, energies: np.ndarray):
    """(gamma, D / 2) at real energies, from the periodic eigenvalues.

    D(E) - 2 = prod_k (E - e_k) over the periodic eigenvalues e_k, so
    log |D - 2| is a sum of logarithms and never overflows.  Then
    gamma = arccosh(|D| / 2) / q, taken in log form where |D| is large,
    and 0 where |D| <= 2.  D / 2 saturates to +-inf beyond float range.
    """
    e = floquet_eigenvalues(potential(p, q, lam, theta), +1.0)
    E = np.asarray(energies, dtype=np.float64)
    diff = E[:, None] - e[None, :]
    log_prod = np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.prod(np.sign(diff), axis=1)
    gamma = np.zeros(len(E))
    half_d = np.empty(len(E))
    for i, (lp, s) in enumerate(zip(log_prod, sign)):
        if lp > 40.0:
            # log(|D| / 2) = log|D - 2| - log 2 + log|1 + 2 / (D - 2)|
            L = lp - math.log(2.0) + math.log1p(2.0 * s * math.exp(-lp))
            gamma[i] = (L + math.log1p(math.sqrt(-math.expm1(-2.0 * L)))) / q
            half_d[i] = s * (math.exp(L) if L < 709.0 else math.inf)
            continue
        half_d[i] = (s * math.exp(lp) + 2.0) / 2.0
        if abs(half_d[i]) > 1.0:
            gamma[i] = math.acosh(abs(half_d[i])) / q
    return gamma, half_d
