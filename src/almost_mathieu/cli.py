"""Command-line front end: datasets, spot checks, and the verify suite.

Every subcommand writes a single artifact to --output (stdout by default):
CSV with a mandatory header and 17-significant-digit floats, a JSON report
with the fixed envelope {command, config, results, failures, version}, or
an SVG plot for the butterfly.  Outputs are byte-identical for identical
(config, seed).

`config` is every parsed option under its option name, in parser order,
without --output; `lam` is reported as `lambda`.  A computation that raises
writes the same envelope to stdout with empty results and the named
exception as its failure.  A JSON command exits 1 exactly when its failures
list is non-empty.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .alpha import construct_alpha, margin_sign_log10
from .bands import SpectralSet, band_parity, sminus_points, spectral_union_S, spectrum_bands
from .core import OperatorSpec, reduce_fraction
from .experiments import (
    approximant_family,
    box_counting_dimension,
    butterfly_generate,
    measure_decay,
)
from .greens import green_identities_check, lyapunov, surace_deviation
from .interpolation import build_intermediate, green_comparison
from .products import product_growth, random_drift_chain
from .verify import SUITE_NAMES, run_suites


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config(args) -> dict:
    """Every parsed option of the command under its option name, in parser order."""
    return {
        "lambda" if k == "lam" else k: v
        for k, v in vars(args).items()
        if k not in ("command", "output", "func")
    }


def _json_report(args, results, failures: list[str]) -> str:
    doc = {
        "command": args.command,
        "config": _config(args),
        "results": results,
        "failures": failures,
        "version": __version__,
    }
    return json.dumps(doc, indent=2) + "\n"


def _report(args, results, failures: list[str]) -> int:
    """Write the JSON run record; the exit code is 1 exactly when it names a failure."""
    _emit(_json_report(args, results, failures), args.output)
    return 1 if failures else 0


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, float):
                cells.append(_fmt(x))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _margin_json(x) -> dict:
    """An exact margin by its sign and log10 of its magnitude (null at 0)."""
    sign, log10 = margin_sign_log10(x)
    return {"sign": sign, "log10_abs": log10}


def _margin_text(x) -> str:
    """An exact margin as a float where one holds it, else as +-10^log10 |margin|."""
    sign, log10 = margin_sign_log10(x)
    if log10 is None:
        return "0"
    if abs(log10) < 300:
        return _fmt(float(x))
    return f"{'-' if sign < 0 else ''}10^{log10:.6f}"


def _alpha_arg(args):
    return reduce_fraction(args.p, args.q)


# ---------------------------------------------------------------------------
# subcommands


def cmd_butterfly(args) -> int:
    ds = butterfly_generate(
        args.qmax,
        args.lam,
        theta_mode=args.theta_mode,
        theta=args.theta,
    )
    if args.format == "csv":
        _emit(_csv(["p", "q", "band", "lo", "hi"], ds.rows), args.output)
    elif args.format == "svg":
        _emit(_butterfly_svg(ds, args.width, args.height, args.lam), args.output)
    else:
        rows = [
            {"p": p, "q": q, "band": b, "lo": lo, "hi": hi}
            for p, q, b, lo, hi in ds.rows
        ]
        _emit(_json_report(args, {"rows": rows}, list(ds.failures)), args.output)
    for failure in ds.failures:
        print(failure, file=sys.stderr)
    return 0 if not ds.failures else 1


def _butterfly_svg(ds, width: int, height: int, lam: float) -> str:
    hull = 2.0 + abs(lam)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    qmax = max((r[1] for r in ds.rows), default=1)
    for p, q, _band, lo, hi in ds.rows:
        x = (lo + hull) / (2.0 * hull) * width
        w = max((hi - lo) / (2.0 * hull) * width, 0.1)
        y = (1.0 - p / q) * height
        h = max(0.25, 0.5 * height / (qmax * qmax))
        lines.append(
            f'<rect x="{x:.4f}" y="{y - h / 2:.4f}" width="{w:.4f}" '
            f'height="{h:.4f}" fill="black"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_bands(args) -> int:
    spec = OperatorSpec.almost_mathieu(_alpha_arg(args), args.lam, args.theta)
    s = spectrum_bands(spec)
    parity = band_parity(spec.period).tolist()
    rows = [(i, lo, hi, m) for i, ((lo, hi), m) in enumerate(zip(s.edges.tolist(), parity), 1)]
    if args.format == "csv":
        _emit(_csv(["band", "lo", "hi", "monotonicity"], rows), args.output)
        return 0
    results = {
        "bands": [
            {"band": i, "lo": lo, "hi": hi, "monotonicity": m} for i, lo, hi, m in rows
        ],
        "measure": s.measure,
    }
    return _report(args, results, [])


def cmd_sminus(args) -> int:
    res = sminus_points(_alpha_arg(args), args.lam)
    if isinstance(res, SpectralSet):
        header = ["band", "lo", "hi"]
        rows = [(i, lo, hi) for i, (lo, hi) in enumerate(res.edges.tolist(), 1)]
        results = {"bands": [{"lo": lo, "hi": hi} for _, lo, hi in rows]}
    else:
        points = res.tolist()
        header = ["index", "energy"]
        rows = list(enumerate(points, 1))
        results = {"points": points}
    if args.format == "csv":
        _emit(_csv(header, rows), args.output)
        return 0
    return _report(args, results, [])


def cmd_lyapunov(args) -> int:
    spec = OperatorSpec.almost_mathieu(_alpha_arg(args), args.lam, args.theta)
    if not args.grid:
        v = lyapunov(spec, complex(args.e_re, args.e_im))
        return _report(args, {"gamma": v.gamma, "bloch_k": v.bloch_k}, [])
    # the spectrum lies in [-2 - |lam|, 2 + |lam|] for either sign of lam
    hull = 2.0 + abs(args.lam)
    energies = np.linspace(-hull, hull, args.grid)
    header = ["e_re", "e_im", "gamma", "bloch_k"]
    rows = []
    for E in energies:
        v = lyapunov(spec, complex(E, args.e_im))
        rows.append((float(E), args.e_im, v.gamma, v.bloch_k))
    if args.format == "csv":
        # off the spectrum bloch_k is None: an empty CSV cell, a JSON null
        cells = (r[:3] + ("" if r[3] is None else r[3],) for r in rows)
        _emit(_csv(header, cells), args.output)
        return 0
    return _report(args, {"values": [dict(zip(header, r)) for r in rows]}, [])


def cmd_green_check(args) -> int:
    spec = OperatorSpec.almost_mathieu(_alpha_arg(args), args.lam, args.theta)
    rep = green_identities_check(spec, complex(args.z_re, args.z_im), args.m)
    results = {
        "power_residual": rep.power_residual,
        "l2_sum": rep.l2_sum,
        "l2_identity_residual": rep.l2_identity_residual,
        "l2_bound_ok": rep.l2_bound_ok,
        "ok": rep.ok,
    }
    return _report(args, results, rep.failures)


def cmd_surace(args) -> int:
    spec = OperatorSpec.almost_mathieu(_alpha_arg(args), args.lam, args.theta)
    rep = surace_deviation(spec, args.epsilon, args.eta, args.grid_points)
    results = {
        "measured_measure": rep.measured_measure,
        "bound": rep.bound,
        "slack": rep.slack,
        "ok": rep.ok,
    }
    failures = [] if rep.ok else [
        f"measured_measure {_fmt(rep.measured_measure)} exceeds bound + slack "
        f"{_fmt(rep.bound + rep.slack)}"
    ]
    return _report(args, results, failures)


def cmd_product_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    weakest = (None, None)  # smallest hypothesis margin, [chain, factor from 1]
    for i in range(args.count):
        n = int(rng.integers(1, args.n_max + 1))
        chain = random_drift_chain(rng, n, args.beta)
        cert = product_growth(chain, args.beta)
        if not cert.passed:
            failures.append(f"chain {i} ({n} factors): growth fails at factor {cert.fail_location}")
        for k, margin in enumerate(cert.hypothesis_margins, 1):
            if weakest[0] is None or margin < weakest[0]:
                weakest = (margin, [i, k])
    results = {
        "count": args.count,
        "passed": args.count - len(failures),
        "min_hypothesis_margin": weakest[0],
        "min_hypothesis_margin_at": weakest[1],
    }
    return _report(args, results, failures)


def cmd_interp_check(args) -> int:
    ip = build_intermediate(
        reduce_fraction(args.p, args.q),
        reduce_fraction(args.pt, args.qt),
        args.delta,
        ctilde=args.ctilde,
    )
    rep = green_comparison(ip, args.energy, args.epsilon)
    results = {
        "l0": ip.l0,
        "gate_ok": ip.gate_ok,
        "ln_lhs_i": rep.ln_lhs_i,
        "ln_rhs_i": rep.ln_rhs_i,
        "fitted_cprime": rep.fitted_cprime,
        "window_ok": rep.window_ok,
        "trace_ok": rep.trace_ok,
        "step_i_ok": rep.step_i_ok,
    }
    failures = [] if rep.step_i_ok else [
        f"step (i): lhs_i exp({_fmt(rep.ln_lhs_i)}) exceeds rhs_i exp({_fmt(rep.ln_rhs_i)})"
    ]
    return _report(args, results, failures)


def cmd_measure_decay(args) -> int:
    base = _alpha_arg(args)
    if args.approximants:
        fam = []
        for tok in args.approximants.split(","):
            pp, qq = tok.strip().split("/")
            fam.append(reduce_fraction(int(pp), int(qq)))
    else:
        fam = approximant_family(base, args.kmin, args.kmax)
    rep = measure_decay(base, args.delta, fam)
    rows = [
        (r.approximant.p, r.approximant.q, r.measure, int(r.gate_ok), r.collapsed_bands)
        for r in rep.rows
    ]
    failures = []
    if rep.fitted_rate is None:
        failures.append(
            f"decay fit needs 2 distinct q~ with positive measure, got {rep.fit_qs}"
        )
    if args.format == "csv":
        _emit(_csv(["p", "q", "measure", "gate_ok", "collapsed_bands"], rows), args.output)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1 if failures else 0
    results = {
        "rows": [
            {"p": p, "q": q, "measure": m, "gate_ok": bool(g), "collapsed_bands": c}
            for p, q, m, g, c in rows
        ],
        "fitted_rate": rep.fitted_rate,
        "fitted_prefactor": rep.fitted_prefactor,
        "r_squared": rep.r_squared,
    }
    return _report(args, results, failures)


def cmd_dimension(args) -> int:
    s = spectral_union_S(_alpha_arg(args), args.lam)
    scales = list(np.geomspace(args.scale_max, args.scale_min, args.nscales))
    rep = box_counting_dimension(s, scales)
    results = {
        "estimate": rep.estimate,
        "r_squared": rep.r_squared,
        "scales": list(rep.scales),
        "counts": list(rep.counts),
        "set_measure": s.measure,
        "n_bands": len(s),
    }
    return _report(args, results, [])


def cmd_alpha_construct(args) -> int:
    cf, cert = construct_alpha(args.c, args.jmax)
    keys = ("cond1_margin", "cond2_margin", "cond3a_margin", "cond3b_margin")
    results = {
        "quotients": [str(n) for n in cf.quotients],
        "denominators": [str(c.q) for c in cf.convergents],
        "levels": [
            {
                "j": lev.j,
                "q_j": str(lev.q_j),
                "q_j1": str(lev.q_j1),
                **{key: _margin_json(getattr(lev, key)) for key in keys},
                "ok": lev.ok,
            }
            for lev in cert.levels
        ],
        "all_ok": cert.all_ok,
    }
    failures = [
        f"level {lev.j}: {key} {_margin_text(getattr(lev, key))} is not positive"
        for lev in cert.levels
        for key in keys
        if not getattr(lev, key) > 0
    ]
    return _report(args, results, failures)


def cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else args.suite.split(",")
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    suites = run_suites(names, args.seed)
    failures = [
        f"{s['name']}:{c['name']}" for s in suites for c in s["checks"] if not c["ok"]
    ]
    for s in suites:
        status = "ok" if s["ok"] else "FAIL"
        print(f"{s['name']}: {status} ({s['passed']} passed, {s['failed']} failed)", file=sys.stderr)
    return _report(args, {"suites": suites}, failures)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amo",
        description="Spectral computations for the almost Mathieu operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices=("json", "csv")):
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        if fmt_choices:
            sp.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    def rational(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)

    sp = sub.add_parser("butterfly", help="band dataset over all reduced p/q")
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--theta-mode", choices=("union-S", "fixed-theta"), default="union-S")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--width", type=int, default=800)
    sp.add_argument("--height", type=int, default=800)
    common(sp, ("csv", "json", "svg"))
    sp.set_defaults(func=cmd_butterfly)

    sp = sub.add_parser("bands", help="band structure of one periodic operator")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--theta", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("sminus", help="phase-intersection spectrum")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    common(sp)
    sp.set_defaults(func=cmd_sminus)

    sp = sub.add_parser("lyapunov", help="Lyapunov exponent at one energy or a grid")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--e-re", type=float, default=0.0)
    sp.add_argument("--e-im", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=0, help="grid size (0 = single energy)")
    common(sp)
    sp.set_defaults(func=cmd_lyapunov)

    sp = sub.add_parser("green-check", help="half-line Green identity residuals")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--z-re", type=float, default=0.0)
    sp.add_argument("--z-im", type=float, default=0.5)
    sp.add_argument("--m", type=int, default=2)
    common(sp, None)
    sp.set_defaults(func=cmd_green_check)

    sp = sub.add_parser("surace", help="complexified-energy deviation measure")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--grid-points", type=int, default=10001)
    common(sp, None)
    sp.set_defaults(func=cmd_surace)

    sp = sub.add_parser("product-check", help="random hyperbolic-product certificates")
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--n-max", type=int, default=100)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, None)
    sp.set_defaults(func=cmd_product_check)

    sp = sub.add_parser("interp-check", help="two-scale Green comparison")
    rational(sp)
    sp.add_argument("--pt", type=int, required=True)
    sp.add_argument("--qt", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--ctilde", type=float, default=0.5)
    sp.add_argument("--energy", type=float, default=0.0)
    common(sp, None)
    sp.set_defaults(func=cmd_interp_check)

    sp = sub.add_parser("measure-decay", help="measure of S(p~/q~) inside J_delta")
    rational(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--kmin", type=int, default=3)
    sp.add_argument("--kmax", type=int, default=15)
    sp.add_argument("--approximants", default=None, help="comma list of p/q")
    common(sp)
    sp.set_defaults(func=cmd_measure_decay)

    sp = sub.add_parser("dimension", help="box-counting dimension of S(p/q, lambda)")
    rational(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0)
    sp.add_argument("--scale-min", type=float, default=1e-6)
    sp.add_argument("--scale-max", type=float, default=1e-1)
    sp.add_argument("--nscales", type=int, default=12)
    common(sp, None)
    sp.set_defaults(func=cmd_dimension)

    sp = sub.add_parser("alpha-construct", help="zero-dimension frequency certificate")
    sp.add_argument("--c", type=float, default=10.0)
    sp.add_argument("--jmax", type=int, default=3)
    common(sp, None)
    sp.set_defaults(func=cmd_alpha_construct)

    sp = sub.add_parser("verify", help="run the self-check suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=7)
    common(sp, None)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        sys.stdout.write(_json_report(args, {}, [f"{type(exc).__name__}: {exc}"]))
        return 1


if __name__ == "__main__":
    sys.exit(main())
