"""Acceptance gate: the twelve top-level criteria at their stated tolerances.

Each test prints one PASS/FAIL line with its measured quantities and
runtime, so `pytest -s tests/test_acceptance.py` doubles as the acceptance
report.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from almost_mathieu.alpha import construct_alpha, verify_conditions
from almost_mathieu.bands import jdelta_sets, last_wilkinson_sum, spectral_union_S
from almost_mathieu.core import (
    OperatorSpec,
    chambers_residual,
    potential_array,
    reduce_fraction,
)
from almost_mathieu.experiments import approximant_family, box_counting_dimension, measure_decay
from almost_mathieu.greens import green_halfline, green_identities_check, surace_deviation
from almost_mathieu.interpolation import build_intermediate, green_comparison, inverse_blocks
from almost_mathieu.products import product_growth, random_drift_chain
from conftest import plain_discriminant, random_reduced
from oracles import truncated_halfline_green


def report(name, ok, runtime, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({runtime:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert runtime < budget, f"{name} runtime {runtime:.1f}s over budget {budget}s"


def test_criterion_01_chambers_identity():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        r = random_reduced(rng, 60)
        lam = float(rng.choice([1.0, 2.0, 3.0]))
        E = float(rng.uniform(-6, 6))
        theta = float(rng.uniform(0, 2 * math.pi))
        ratio = chambers_residual(r, lam, E, theta) / (1e-9 * max(1.0, abs(E) ** r.q))
        worst = max(worst, ratio)
    rt = time.monotonic() - t0
    report("criterion 1 chambers", worst <= 1.0, rt, 5.0, f"worst ratio {worst:.2e}")


def test_criterion_02_last_wilkinson():
    t0 = time.monotonic()
    worst = 0.0
    n_checked = 0
    for q in range(1, 41):
        for p in range(q):
            if math.gcd(p, q) == 1 or (p == 0 and q == 1):
                s = last_wilkinson_sum(reduce_fraction(p, q))
                worst = max(worst, abs(s - 1.0 / q) * q)
                n_checked += 1
    rt = time.monotonic() - t0
    report(
        "criterion 2 last-wilkinson",
        worst <= 1e-8,
        rt,
        30.0,
        f"{n_checked} fractions, worst rel {worst:.2e}",
    )


def test_criterion_03_jdelta_measure_bound():
    from almost_mathieu.bands import jdelta_sweep

    t0 = time.monotonic()
    deltas = list(np.geomspace(1e-3, 0.5, 10))
    worst = 0.0
    n_checked = 0
    for q in range(1, 31):
        for p in range(q):
            if math.gcd(p, q) == 1 or (p == 0 and q == 1):
                for res in jdelta_sweep(reduce_fraction(p, q), deltas):
                    worst = max(worst, res.measure_complement / res.bound)
                    n_checked += 1
    rt = time.monotonic() - t0
    report(
        "criterion 3 jdelta-bound",
        worst <= 1.0 + 1e-12,
        rt,
        60.0,
        f"{n_checked} cases, worst meas/bound {worst:.4f}",
    )


def test_criterion_04_growth_sandwich():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    n_pass = 0
    total = 1000
    for _ in range(total):
        n = int(rng.integers(1, 201))
        chain = random_drift_chain(rng, n, 0.5)
        cert = product_growth(chain, 0.5)
        if cert.passed and cert.induction_ok:
            n_pass += 1
    rt = time.monotonic() - t0
    report(
        "criterion 4 growth-sandwich",
        n_pass == total,
        rt,
        20.0,
        f"{n_pass}/{total} certificates",
    )


def test_criterion_05_green_identities():
    rng = np.random.default_rng(5)
    t0 = time.monotonic()
    n_sites = 2000
    ok = True
    worst_oracle = 0.0
    for _ in range(100):
        r = random_reduced(rng, 15)
        spec = OperatorSpec.almost_mathieu(r, 2.0, float(rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 1.0))
        m = int(rng.integers(1, 6))
        rep = green_identities_check(spec, z, m)
        ok &= rep.power_residual <= 1e-8
        ok &= rep.l2_bound_ok
        col = truncated_halfline_green(
            potential_array(spec, 1, n_sites), z, [1], n_sites
        )[:, 0]
        got = green_halfline(spec, 1, m * r.q, z)
        rel = abs(got - complex(col[m * r.q - 1])) / abs(col[m * r.q - 1])
        worst_oracle = max(worst_oracle, rel)
    ok &= worst_oracle <= 1e-8
    rt = time.monotonic() - t0
    report(
        "criterion 5 green-identities",
        ok,
        rt,
        60.0,
        f"worst oracle rel {worst_oracle:.2e}",
    )


def test_criterion_06_surace():
    rng = np.random.default_rng(6)
    t0 = time.monotonic()
    specs = [
        OperatorSpec.almost_mathieu(reduce_fraction(1, 2), 2.0, 0.0),
        OperatorSpec.almost_mathieu(reduce_fraction(2, 5), 2.0, 0.4),
        OperatorSpec.explicit([0.0]),
        OperatorSpec.almost_mathieu(reduce_fraction(3, 7), 2.0, 1.1),
    ]
    n_ok = 0
    total = 0
    for spec in specs:
        for _ in range(5):
            eps = float(rng.uniform(0.003, 0.15))
            eta = float(rng.uniform(0.02, 0.5))
            total += 1
            if surace_deviation(spec, eps, eta, 8001).ok:
                n_ok += 1
    rt = time.monotonic() - t0
    report("criterion 6 surace", n_ok == total, rt, 60.0, f"{n_ok}/{total} pairs")


def test_criterion_07_measure_decay():
    t0 = time.monotonic()
    half = reduce_fraction(1, 2)
    fam = approximant_family(half, 3, 40)
    assert [(f.p, f.q) for f in fam][:2] == [(3, 7), (4, 9)]
    rep = measure_decay(half, 0.5, fam)
    rt = time.monotonic() - t0
    ok = rep.fitted_rate < 0.0 and rep.r_squared >= 0.9
    report(
        "criterion 7 measure-decay",
        ok,
        rt,
        600.0,
        f"rate {rep.fitted_rate:.4f}, R2 {rep.r_squared:.3f}",
    )


def test_criterion_08_dimension_trend():
    t0 = time.monotonic()
    # F_16 / F_17 = 987 / 1597 with F_1 = 1, F_2 = 2
    s = spectral_union_S(reduce_fraction(987, 1597), 2.0)
    rep = box_counting_dimension(s, list(np.geomspace(1e-1, 1e-6, 11)))
    rt = time.monotonic() - t0
    ok = 0.4 <= rep.estimate <= 0.6
    report(
        "criterion 8 dimension-trend",
        ok,
        rt,
        600.0,
        f"estimate {rep.estimate:.4f}, R2 {rep.r_squared:.3f}",
    )


def test_criterion_09_lambda_one_measure():
    t0 = time.monotonic()
    meas = spectral_union_S(reduce_fraction(233, 377), 1.0).measure
    rt = time.monotonic() - t0
    ok = abs(meas - 2.0) <= 0.2
    report("criterion 9 lambda-one-measure", ok, rt, 120.0, f"measure {meas:.6f}")


def test_criterion_10_alpha_constructor():
    t0 = time.monotonic()
    cf, cert = construct_alpha(10.0, 3)
    re_cert = verify_conditions(cf, 10.0, 3)
    growth = all(
        cf.convergents[j].q > cf.convergents[j - 1].q ** j for j in (1, 3)
    )
    rt = time.monotonic() - t0
    ok = cert.all_ok and re_cert.all_ok and growth
    report(
        "criterion 10 alpha-constructor",
        ok,
        rt,
        30.0,
        f"levels {[lev.j for lev in re_cert.levels]}, growth exact {growth}",
    )


def test_criterion_11_interpolation_machinery():
    t0 = time.monotonic()
    half = reduce_fraction(1, 2)

    ip0 = build_intermediate(half, half, 1.0, ctilde=1.0)
    z = 0.37 + 0.01j
    blocks = inverse_blocks(ip0, 0.37, 0.01)
    spec = OperatorSpec.almost_mathieu(half, 2.0, 0.0)
    trace_dev = abs(complex(blocks[0].trace()) - plain_discriminant(spec, z))
    det_dev = max(abs(complex(b.det()) - 1.0) for b in blocks)
    rep0 = green_comparison(ip0, 0.0, 0.2)
    zero_drift_ok = trace_dev <= 1e-10 and det_dev <= 1e-10 and rep0.step_i_ok

    ip = build_intermediate(half, reduce_fraction(13, 27), 0.25, ctilde=0.5)
    rep = green_comparison(ip, 0.0, 0.1)
    rt = time.monotonic() - t0
    ok = zero_drift_ok and rep.step_i_ok
    report(
        "criterion 11 interpolation",
        ok,
        rt,
        120.0,
        f"zero-drift dev {trace_dev:.1e}, step (i) ln {rep.ln_lhs_i:.3f} <= {rep.ln_rhs_i:.3f}",
    )


def test_criterion_12_verify_determinism():
    t0 = time.monotonic()
    env = dict(os.environ)
    outputs = []
    codes = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "almost_mathieu.cli", "verify", "--suite", "all", "--seed", "7"],
            capture_output=True,
            env=env,
        )
        codes.append(proc.returncode)
        outputs.append(proc.stdout)
    rt = time.monotonic() - t0
    doc = json.loads(outputs[0])
    ok = codes == [0, 0] and outputs[0] == outputs[1] and not doc["failures"]
    report(
        "criterion 12 determinism",
        ok,
        rt,
        1500.0,
        "byte-identical over two runs",
    )
