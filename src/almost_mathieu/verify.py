"""Named self-check suites behind the `verify` CLI subcommand.

Every suite re-derives a batch of the library's contracts from scratch at a
fixed seed and reports one named check per contract.  Results are plain
dicts in a deterministic order so the CLI can serialize them byte-stably.
"""

from __future__ import annotations

import math

import numpy as np

from . import alpha as alphamod
from . import bands as bandsmod
from . import core, experiments, greens, interpolation, products

SUITE_NAMES = (
    "core",
    "bands",
    "greens",
    "products",
    "interpolation",
    "experiments",
    "alpha",
)


def _random_reduced(rng, q_max):
    while True:
        q = int(rng.integers(1, q_max + 1))
        p = int(rng.integers(0, q)) if q > 1 else 0
        if math.gcd(p, q) == 1 or (p == 0 and q == 1):
            return core.reduce_fraction(p, q)


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def suite_core(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    worst, bits = 0.0, 0
    for _ in range(200):
        r = _random_reduced(rng, 40)
        lam = float(rng.choice([1.0, 2.0, 3.0]))
        E = float(rng.uniform(-6, 6))
        theta = float(rng.uniform(0, 2 * math.pi))
        res = core.chambers_residual(r, lam, E, theta)
        worst = max(worst, res / (1e-9 * max(1.0, abs(E) ** r.q)))
        bits = max(bits, core.chambers_bits(r.q, lam, E))
    detail = f"worst ratio {worst:.3e}, working precision up to {bits} bits"
    checks.append(_check("chambers-residual", worst <= 1.0, detail))

    worst = 0.0
    for _ in range(100):
        r = _random_reduced(rng, 60)
        spec = core.OperatorSpec.almost_mathieu(
            r, float(rng.choice([1.0, 2.0, 3.0])), float(rng.uniform(0, 2 * math.pi))
        )
        m, log_s = core.monodromy_scaled(spec, complex(rng.uniform(-6, 6)))
        m = m.scaled(math.exp(log_s))
        norm2 = sum(abs(x) ** 2 for x in (m.a11, m.a12, m.a21, m.a22))
        worst = max(worst, abs(m.det() - 1.0) / (1e-10 * max(1.0, 1e-3 * norm2)))
    checks.append(_check("monodromy-det", worst <= 1.0, f"worst ratio {worst:.3e}"))

    worst = 0.0
    h = 1e-5
    for _ in range(50):
        r = _random_reduced(rng, 12)
        spec = core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        E = float(rng.uniform(-4, 4))
        _, dmant, logs = core.discriminant_and_derivative_grid(spec, np.array([E]))
        deriv = float(dmant[0]) * math.exp(float(logs[0]))
        (mp, sp), (mm, sm) = (core.monodromy_scaled(spec, x) for x in (E + h, E - h))
        fd = (mp.trace().real * math.exp(sp) - mm.trace().real * math.exp(sm)) / (2 * h)
        worst = max(worst, abs(deriv - fd) / max(1.0, abs(fd)))
    checks.append(_check("dual-vs-finite-difference", worst <= 1e-6, f"worst rel {worst:.3e}"))

    worst = 0.0
    for _ in range(5):
        r = _random_reduced(rng, 6)
        spec = core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        mant, logs = core.discriminant_grid(spec, np.array([1e6]))
        ratio = float(mant[0]) * math.exp(float(logs[0]) - spec.period * math.log(1e6))
        worst = max(worst, abs(ratio - 1.0))
    checks.append(_check("discriminant-monic-degree", worst < 2e-5, f"worst {worst:.3e}"))
    return checks


def suite_bands(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # the edges pair up into q bands by construction, so band-count checks
    # each band against D itself: the i-th zero of D (a separate eigensolve)
    # lies in band i, and D reads |D| <= 2 at the midpoint of every band at
    # least 1e-8 wide (narrower ones read evaluation noise there)
    hull_ok, worst, n_mid, n_out = True, 0.0, 0, 0
    for _ in range(40):
        r = _random_reduced(rng, 30)
        lam = float(rng.choice([1.0, 2.0, 3.0]))
        spec = core.OperatorSpec.almost_mathieu(r, lam, float(rng.uniform(0, 2 * math.pi)))
        s = bandsmod.spectrum_bands(spec)
        lo, hi = s.edges.T
        zeros = bandsmod._band_zeros(spec)
        worst = max(worst, float(np.max(np.maximum(lo - zeros, zeros - hi))))
        mid = 0.5 * (lo + hi)[hi - lo >= 1e-8]
        tr, logs = core.discriminant_grid(spec, mid)
        n_mid += mid.size
        n_out += int(np.sum(np.abs(tr) * np.exp(logs) > 2.0))
        hull = 2.0 + lam + 1e-9
        hull_ok &= bool(np.all((-hull <= lo) & (lo <= hi) & (hi <= hull)))
    checks.append(
        _check(
            "band-count",
            worst <= 1e-12 and n_out == 0,
            f"zero i of D outside band i by at most {worst:.3e}; "
            f"{n_out} of {n_mid} band midpoints read |D| > 2",
        )
    )
    checks.append(_check("band-hull", hull_ok, "bands within [-2-lam, 2+lam]"))

    incl_ok = True
    for _ in range(6):
        r = _random_reduced(rng, 14)
        union = bandsmod.spectral_union_S(r, 2.0)
        zeros = bandsmod.sminus_points(r, 2.0)
        for _ in range(6):
            sigma = bandsmod.spectrum_bands(
                core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
            )
            incl_ok &= bool(np.all(sigma.distance(zeros) <= 1e-8))
            lo, hi = sigma.edges.T
            incl_ok &= bool(np.all(union.distance(np.stack((lo, 0.5 * (lo + hi), hi))) <= 1e-8))
    checks.append(_check("sminus-sigma-union-inclusion", incl_ok, "S- in sigma in S"))

    worst = 0.0
    for q in range(1, 21):
        for p in range(q):
            if math.gcd(p, q) == 1 or (p == 0 and q == 1):
                s = bandsmod.last_wilkinson_sum(core.reduce_fraction(p, q))
                worst = max(worst, abs(s - 1.0 / q) * q)
    checks.append(_check("last-wilkinson", worst <= 1e-8, f"worst rel {worst:.3e}"))

    jd_ok = True
    deltas = list(np.geomspace(1e-3, 0.5, 6))
    for q in (3, 7, 12, 20):
        for res in bandsmod.jdelta_sweep(core.reduce_fraction(1, q), deltas):
            jd_ok &= res.bound_ok
    checks.append(_check("jdelta-measure-bound", jd_ok, "meas <= 2 e delta / q"))

    ids_ok = True
    for spec in (
        core.OperatorSpec.almost_mathieu(core.reduce_fraction(1, 2), 2.0, 0.9),
        core.OperatorSpec.almost_mathieu(core.reduce_fraction(2, 5), 2.0, 0.0),
        core.OperatorSpec.almost_mathieu(core.reduce_fraction(1, 3), 1.0, 2.0),
    ):
        prof = bandsmod.ids_profile(spec, np.linspace(-5, 5, 2001))
        ids_ok &= bool(np.all(np.diff(prof) >= -1e-12))
        ids_ok &= prof[0] == 0.0 and prof[-1] == 1.0
    checks.append(_check("ids-monotone", ids_ok, "nondecreasing, 0 to 1"))

    # the upper edges of S are reflections of its lower ones, so they are
    # checked against eigenvalues, which share nothing with the reflection:
    # Delta = 4 where D_0 = 2 (periodic, theta = 0) and Delta = -4 where
    # D_{pi/q} = -2 (antiperiodic, theta = pi/q)
    worst = 0.0
    for _ in range(6):
        r = _random_reduced(rng, 8)
        edges = bandsmod.spectral_union_S(r, 2.0).edges.ravel()
        periodic = core.OperatorSpec.almost_mathieu(r, 2.0, 0.0)
        antiperiodic = core.OperatorSpec.almost_mathieu(r, 2.0, math.pi / r.q)
        eig = np.sort(
            np.concatenate(
                (bandsmod._band_zeros(periodic, 1.0), bandsmod._band_zeros(antiperiodic, -1.0))
            )
        )
        worst = max(worst, float(np.max(np.abs(edges[r.q :] - eig[r.q :]))))
    checks.append(
        _check(
            "union-reflection-symmetry",
            worst <= 1e-9,
            f"upper edges of S off the eigenvalue edges by at most {worst:.3e}",
        )
    )
    return checks


def suite_greens(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    zero_ok = True
    for _ in range(4):
        r = _random_reduced(rng, 15)
        spec = core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        s = bandsmod.spectrum_bands(spec)
        E = np.linspace(-4.5, 4.5, 300)
        g = greens.lyapunov_grid(spec, E)
        d = s.distance(E)
        zero_ok &= bool(np.all(g[d == 0.0] <= 1e-9) and np.all(g[d >= 1e-2] >= 1e-6))
    checks.append(_check("gamma-zero-on-bands", zero_ok, "gamma = 0 iff on spectrum"))

    worst = 0.0
    for _ in range(30):
        r = _random_reduced(rng, 15)
        spec = core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-4.5, 4.5), rng.uniform(0.05, 1.0))
        g = greens.green_halfline(spec, 1, r.q, z)
        worst = max(worst, abs(greens.lyapunov(spec, z).gamma + math.log(abs(g)) / r.q))
    checks.append(_check("gamma-green-relation", worst <= 1e-6, f"worst {worst:.3e}"))

    ident_ok = True
    for _ in range(20):
        r = _random_reduced(rng, 10)
        spec = core.OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 1.0))
        rep = greens.green_identities_check(spec, z, int(rng.integers(1, 6)))
        ident_ok &= rep.ok and rep.l2_identity_residual <= 1e-6
    checks.append(_check("green-identities", ident_ok, "power, l2"))

    worst = 0.0
    free = core.OperatorSpec.explicit([0.0])
    for E in (2.5, 3.0, 5.0, 10.0, -2.5, -7.0):
        want = math.acosh(abs(E) / 2.0)
        worst = max(worst, abs(greens.lyapunov(free, E).gamma - want) / want)
    checks.append(_check("free-closed-form", worst <= 1e-10, f"worst rel {worst:.3e}"))

    sur_ok = True
    spec = core.OperatorSpec.almost_mathieu(core.reduce_fraction(2, 5), 2.0, 0.4)
    for eps, eta in ((0.005, 0.02), (0.02, 0.1), (0.1, 0.4), (0.01, 0.05)):
        sur_ok &= greens.surace_deviation(spec, eps, eta, 6001).ok
    checks.append(_check("surace-bound", sur_ok, "measured <= pi eps / eta + slack"))
    return checks


def suite_products(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    all_pass = True
    for _ in range(200):
        n = int(rng.integers(2, 100))
        chain = products.random_drift_chain(rng, n, 0.5)
        cert = products.product_growth(chain, 0.5)
        all_pass &= cert.passed and cert.induction_ok and cert.lower_chain_ok
    checks.append(_check("growth-sandwich", all_pass, "200 chains, beta = 1/2"))

    recomp_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 20))
        chain = products.random_drift_chain(rng, n, 0.5)
        if sum(f.gamma for f in chain) > 30:
            continue
        cert = products.product_growth(chain, 0.5)
        prod = core.Mat2.identity()
        for f in chain:
            prod = f.T @ prod
        direct = prod.apply(chain[0].phi_plus)
        last = chain[-1]
        scale = math.exp(cert.scale_log[n])
        rec = (
            scale * (cert.A[n] * last.phi_plus[0] + cert.B[n] * last.phi_minus[0]),
            scale * (cert.A[n] * last.phi_plus[1] + cert.B[n] * last.phi_minus[1]),
        )
        err = math.hypot(abs(direct[0] - rec[0]), abs(direct[1] - rec[1]))
        recomp_ok &= err <= 1e-8 * math.hypot(abs(direct[0]), abs(direct[1]))
    checks.append(_check("coefficient-recomposition", recomp_ok, "A phi+ + B phi- track"))

    f = products.eigensystem_2x2(core.Mat2(math.e, 0.0, 0.0, 1.0 / math.e))
    g = products.eigensystem_2x2(core.Mat2(0.0, -0.5, 2.0, 3.0))
    cert = products.product_growth([f, f, g], 0.5)
    checks.append(
        _check(
            "violation-detected",
            (not cert.passed) and cert.fail_location == 2,
            f"verdict {cert.verdict} at {cert.fail_location}",
        )
    )
    return checks


def suite_interpolation(seed: int) -> list[dict]:
    checks = []
    half = core.reduce_fraction(1, 2)

    ip0 = interpolation.build_intermediate(half, half, 1.0, ctilde=1.0)
    z = 0.37 + 0.01j
    blocks = interpolation.inverse_blocks(ip0, 0.37, 0.01)
    spec = core.OperatorSpec.almost_mathieu(half, 2.0, 0.0)
    m, log_s = core.monodromy_scaled(spec, z)
    tr_match = abs(complex(blocks[0].trace()) - m.trace() * math.exp(log_s)) <= 1e-10
    rep0 = interpolation.green_comparison(ip0, 0.0, 0.2)
    checks.append(
        _check(
            "zero-drift-degeneration",
            tr_match and rep0.step_i_ok,
            "trace = discriminant, G~ = G",
        )
    )

    ip = interpolation.build_intermediate(half, core.reduce_fraction(13, 27), 0.25, ctilde=0.5)
    rep = interpolation.green_comparison(ip, 0.0, 0.1)
    checks.append(
        _check(
            "step-i-inequality",
            rep.step_i_ok,
            f"lhs {math.exp(rep.ln_lhs_i):.3e} <= rhs {math.exp(rep.ln_rhs_i):.3e}",
        )
    )

    ip_fine = interpolation.build_intermediate(
        half, core.reduce_fraction(7000, 14001), 0.3, ctilde=0.05
    )
    win = interpolation.window_check(ip_fine, 0.0)
    tr = interpolation.trace_margin_check(ip_fine, 0.0, 0.1)
    factors = products.align_phases(
        [products.eigensystem_2x2(b) for b in reversed(interpolation.inverse_blocks(ip_fine, 0.0, 0.1))]
    )
    cert = products.product_growth(factors, 0.5)
    growth_ok = (
        ip_fine.gate_ok
        and win.ok
        and tr.ok
        and cert.passed
        and cert.norm_final_log >= math.log(0.5) + 0.5 * cert.sum_gamma - 1e-9
    )
    checks.append(_check("growth-certificate-application", growth_ok, f"l0 {ip_fine.l0} blocks"))

    rep_a = interpolation.green_comparison(ip, 0.37, 0.1)
    rep_b = interpolation.green_comparison(ip, 0.37 + 1e-12, 0.1)
    stable = (
        abs(rep_a.ln_lhs_i - rep_b.ln_lhs_i) <= 1e-6
        and rep_a.step_i_ok == rep_b.step_i_ok
    )
    checks.append(_check("perturbation-stability", stable, "1e-12 energy shift"))
    return checks


def suite_experiments(seed: int) -> list[dict]:
    checks = []
    half = core.reduce_fraction(1, 2)

    fam = experiments.approximant_family(half, 3, 12)
    rep = experiments.measure_decay(half, 0.5, fam)
    checks.append(
        _check(
            "measure-decay-fit",
            rep.fitted_rate < 0.0 and rep.r_squared > 0.5,
            f"rate {rep.fitted_rate:.4f}, R2 {rep.r_squared:.3f}",
        )
    )

    ds = experiments.butterfly_generate(12, 2.0)
    want = 1 + sum(
        q * sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)
        for q in range(2, 13)
    )
    cells: dict[tuple[int, int], list[int]] = {}
    for p, q, band, _lo, _hi in ds.rows:
        cells.setdefault((p, q), []).append(band)
    indices_ok = all(b == list(range(1, q + 1)) for (_p, q), b in cells.items())
    ordered_ok = all(lo <= hi for *_, lo, hi in ds.rows)
    checks.append(
        _check(
            "butterfly-rows",
            len(ds.rows) == want and indices_ok and ordered_ok,
            f"{len(ds.rows)} rows in {len(cells)} cells, bands 1..q, lo <= hi",
        )
    )

    s = bandsmod.SpectralSet.from_intervals([(0.0, 1.0)])
    box = experiments.box_counting_dimension(s, [2.0**-k for k in range(1, 11)])
    pts = bandsmod.SpectralSet.from_intervals(
        [(p, p) for p in (0.1, 0.37, 0.62, 0.9)], merge_overlaps=False
    )
    box0 = experiments.box_counting_dimension(pts, [2.0**-k for k in range(3, 13)])
    checks.append(
        _check(
            "box-counting-calibration",
            abs(box.estimate - 1.0) <= 0.02 and abs(box0.estimate) <= 0.05,
            f"interval {box.estimate:.3f}, points {box0.estimate:.3f}",
        )
    )

    rng = np.random.default_rng(seed)
    levels = []
    for n in range(1, 4):
        q_n, qt_n = 8 * 2**n, 12 * 2**n
        f1, x = [], 0.0
        for w in rng.dirichlet(np.ones(q_n)) * 0.9 / q_n:
            f1.append((x, x + w))
            x += w + 0.01
        f2, x = [], 100.0
        for w in rng.dirichlet(np.ones(qt_n)) * 0.9 / qt_n:
            f2.append((x, x + w))
            x += w + 0.01
        levels.append(experiments.CoverLevel(n, q_n, qt_n, tuple(f1), tuple(f2)))
    cf = experiments.CoverFamily(tuple(levels), 1.0, 1.0, 1.0, 1.0)
    bound = experiments.cover_dimension_bound(cf)
    checks.append(
        _check("cover-dimension-bound", abs(bound.bound - 0.5) < 1e-12, f"bound {bound.bound}")
    )

    s_one = bandsmod.spectral_union_S(core.reduce_fraction(144, 233), 1.0)
    meas = s_one.measure
    checks.append(
        _check("lambda-one-measure-limit", abs(meas - 2.0) <= 0.2, f"measure {meas:.4f}")
    )
    return checks


def suite_alpha(seed: int) -> list[dict]:
    checks = []

    cf = alphamod.convergents([1, 1, 1, 1, 1])
    fib_ok = [(c.p, c.q) for c in cf.convergents] == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]
    checks.append(_check("convergent-recurrence", fib_ok, "Fibonacci chain"))

    ok = True
    for c in (1.0, 10.0):
        for j_max in (1, 3):
            built, cert = alphamod.construct_alpha(c, j_max)
            ok &= cert.all_ok and alphamod.verify_conditions(built, c, j_max).all_ok
            for j in range(1, j_max + 1, 2):
                ok &= built.convergents[j].q > built.convergents[j - 1].q ** j
    checks.append(_check("construct-roundtrip", ok, "C in {1, 10}, j_max in {1, 3}"))

    golden = alphamod.verify_conditions(alphamod.convergents([1] * 12), 10.0, 5)
    by_j = {lev.j: lev for lev in golden.levels}
    checks.append(
        _check(
            "golden-mean-rejected",
            by_j[3].cond3a_margin <= 0 and not golden.all_ok,
            "Fibonacci growth fails q_{j+1} > q_j^j",
        )
    )
    return checks


SUITES = {
    "core": suite_core,
    "bands": suite_bands,
    "greens": suite_greens,
    "products": suite_products,
    "interpolation": suite_interpolation,
    "experiments": suite_experiments,
    "alpha": suite_alpha,
}


def run_suites(names: list[str], seed: int) -> list[dict]:
    """Run the requested suites in canonical order; deterministic for a seed."""
    out = []
    for name in SUITE_NAMES:
        if name not in names:
            continue
        checks = SUITES[name](seed)
        out.append(
            {
                "name": name,
                "ok": all(c["ok"] for c in checks),
                "passed": sum(1 for c in checks if c["ok"]),
                "failed": sum(1 for c in checks if not c["ok"]),
                "checks": checks,
            }
        )
    return out
