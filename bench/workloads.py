"""The four workloads: the `amo` commands they run and how their outputs are checked.

Each workload turns ``--seed`` into argv lists for ``almost_mathieu.cli.main``
and splits each command's output into operations: a cell (butterfly), a
ratio (fibonacci), a grid point (lyapunov) or a check (verify).
``check`` returns, for every operation of one command, its output record
(the bytes compared across repetitions) and the list of ways it is wrong.
"""

from __future__ import annotations

import json
import math
import random
import sys
from math import gcd

import numpy as np

import reference as ref
import tracing


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out_dir = out_dir

    def output(self, tag: str) -> str:
        return str(self.out_dir / f"{self.name}-{tag}")

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def operations(self, i: int) -> list:
        """The operations of command ``i``, all failed when the command fails."""
        raise NotImplementedError

    def attach(self) -> None:
        """Hook into the package before the first repetition."""

    def detach(self) -> None:
        """Undo ``attach``."""

    def start_round(self) -> list:
        """A fresh list for what ``attach`` collects during one repetition."""
        return []

    def check(self, i: int, output: bytes, collected: list) -> dict:
        """{operation: (record bytes, [errors])} for command ``i`` of one repetition.

        ``collected`` holds what ``attach`` collected while the command ran.
        """
        raise NotImplementedError


class Butterfly(Workload):
    """`amo butterfly --qmax 25 --lambda 2 --format csv`: 200 small cells of S(p/q, 2)."""

    name = "butterfly"
    QMAX = 25

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.cells = [(0, 1)] + [
            (p, q) for q in range(2, self.QMAX + 1) for p in range(1, q) if gcd(p, q) == 1
        ]
        self._refs = None

    def commands(self):
        return [["butterfly", "--qmax", str(self.QMAX), "--lambda", "2", "--format", "csv",
                 "--output", self.output("butterfly.csv")]]

    def operations(self, i):
        return self.cells

    def check(self, i, output, collected):
        if self._refs is None:
            self._refs = {c: ref.union_s_bands(*c) for c in self.cells}
        lines = output.decode().splitlines()
        if lines[0] != "p,q,band,lo,hi":
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        rows: dict[tuple[int, int], list[str]] = {}
        for line in lines[1:]:
            p, q, _ = line.split(",", 2)
            rows.setdefault((int(p), int(q)), []).append(line)
        result = {}
        for cell in self.cells:
            cell_lines = rows.pop(cell, [])
            errors = []
            bands = np.array([[float(x) for x in ln.split(",")[3:]] for ln in cell_lines])
            indices = [int(ln.split(",")[2]) for ln in cell_lines]
            if indices != list(range(1, len(cell_lines) + 1)):
                errors.append("band indices not 1..n")
            errors += ref.band_errors(bands.reshape(-1, 2), self._refs[cell])
            result[cell] = ("\n".join(cell_lines).encode(), errors)
        if rows:
            raise ValueError(f"rows for cells outside the workload: {sorted(rows)[:3]}")
        return result


class Fibonacci(Workload):
    """`amo dimension` at four Fibonacci ratios; the seed picks the box-count scales."""

    name = "fibonacci"
    RATIOS = ((233, 377), (377, 610), (610, 987), (987, 1597))

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(seed)
        self.scale_max = 10.0 ** rng.uniform(math.log10(0.05), math.log10(0.2))
        self.scale_min = 10.0 ** rng.uniform(-6.3, -5.7)
        self.nscales = rng.randint(10, 14)
        self._refs = None
        self._sets: list = []
        self._undo: list = []

    def commands(self):
        return [["dimension", "--p", str(p), "--q", str(q), "--lambda", "2",
                 "--scale-min", repr(self.scale_min), "--scale-max", repr(self.scale_max),
                 "--nscales", str(self.nscales), "--output", self.output(f"{p}-{q}.json")]
                for p, q in self.RATIOS]

    def operations(self, i):
        p, q = self.RATIOS[i]
        return [f"{p}/{q}"]

    def attach(self):
        # The band edges never reach the JSON report, so the set that
        # `dimension` computes is kept as it leaves `bands.spectral_union_S`.
        # The wrapper is bound wherever a module of the package binds the
        # function, so it sees the call however the CLI reaches it.
        original = sys.modules["almost_mathieu.bands"].spectral_union_S

        def spectral_union_S(alpha, lam):
            s = original(alpha, lam)
            self._sets.append(s)
            return s

        self._undo = tracing.rebind(original, spectral_union_S)

    def detach(self):
        tracing.restore(self._undo)

    def start_round(self):
        self._sets = []
        return self._sets

    def check(self, i, output, collected):
        if self._refs is None:
            self._refs = [ref.union_s_bands(p, q) for p, q in self.RATIOS]
        if len(collected) != 1:
            raise ValueError(f"{len(collected)} spectral sets computed by one `dimension`")
        (p, q), want = self.RATIOS[i], self._refs[i]
        res = json.loads(output)["results"]
        measure = res["set_measure"]
        bands = np.array(collected[0].intervals(), dtype=np.float64).reshape(-1, 2)
        errors = []
        if res["n_bands"] != q:
            errors.append(f"n_bands {res['n_bands']}, expected {q}")
        errors += ref.band_errors(bands, want)
        if not measure < 8.0 * math.e / q:
            errors.append(f"|S| = {measure} breaks Last's 8e/q")
        if abs(q * measure - ref.THOULESS) > 1e-3:
            errors.append(f"q|S| = {q * measure} far from 32G/pi")
        for scale, count in zip(res["scales"], res["counts"]):
            lo, hi = ref.box_count_bounds(measure, q, scale)
            if not lo * (1 - 1e-9) <= count <= hi * (1 + 1e-9):
                errors.append(f"N({scale:.3g}) = {count} outside [{lo:.6g}, {hi:.6g}]")
        return {f"{p}/{q}": (output + bands.tobytes(), errors)}


class Lyapunov(Workload):
    """`amo lyapunov --grid 3000` at 144/233; the seed picks the phase theta."""

    name = "lyapunov"
    P, Q, N = 144, 233, 3000
    # |D|/2 within this of 1: the point sits on a band edge to within the
    # package's evaluation noise, so only gamma's size is checked there
    EDGE_ZONE = 1e-6

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        self.energies = np.linspace(-4.0, 4.0, self.N)
        self._ref = None

    def commands(self):
        return [["lyapunov", "--p", str(self.P), "--q", str(self.Q), "--lambda", "2",
                 "--theta", repr(self.theta), "--grid", str(self.N), "--format", "csv",
                 "--output", self.output("grid.csv")]]

    def operations(self, i):
        return list(range(self.N))

    def check(self, i, output, collected):
        if self._ref is None:
            self._ref = ref.lyapunov(self.P, self.Q, 2.0, self.theta, self.energies)
        gamma_ref, half_d = self._ref
        lines = output.decode().splitlines()
        if lines[0] != "e_re,e_im,gamma,bloch_k":
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        if len(lines) - 1 != self.N:
            raise ValueError(f"{len(lines) - 1} grid points, expected {self.N}")
        q = self.Q
        result = {}
        for i, line in enumerate(lines[1:]):
            e_re, e_im, g, k = line.split(",")
            g = float(g)
            errors = []
            if float(e_re) != self.energies[i] or float(e_im) != 0.0:
                errors.append("energy differs from the grid")
            h = half_d[i]
            if abs(abs(h) - 1.0) <= self.EDGE_ZONE:
                if not 0.0 <= g <= math.acosh(1.0 + 2 * self.EDGE_ZONE) / q:
                    errors.append(f"gamma {g} too large at a band edge")
            elif abs(h) < 1.0:
                if g != 0.0:
                    errors.append(f"gamma {g} nonzero on a band")
                if k == "" or abs(float(k) - math.acos(h) / q) > 1e-9:
                    errors.append(f"Bloch phase {k!r}, expected {math.acos(h) / q}")
            else:
                if not g > 0.0 or abs(g - gamma_ref[i]) > 1e-10:
                    errors.append(f"gamma {g}, expected {gamma_ref[i]}")
                if k != "":
                    errors.append("Bloch phase off the spectrum")
            result[i] = (line.encode(), errors)
        return result


class Verify(Workload):
    """`amo verify --suite all --seed 7`: the package's 31 self-checks."""

    name = "verify"
    CHECKS = {
        "core": ("chambers-residual", "monodromy-det", "dual-vs-finite-difference",
                 "discriminant-monic-degree"),
        "bands": ("band-count", "band-hull", "sminus-sigma-union-inclusion", "last-wilkinson",
                  "jdelta-measure-bound", "ids-monotone", "union-reflection-symmetry"),
        "greens": ("gamma-zero-on-bands", "gamma-green-relation", "green-identities",
                   "free-closed-form", "surace-bound"),
        "products": ("growth-sandwich", "coefficient-recomposition", "violation-detected"),
        "interpolation": ("zero-drift-degeneration", "step-i-inequality",
                          "growth-certificate-application", "perturbation-stability"),
        "experiments": ("measure-decay-fit", "butterfly-rows", "box-counting-calibration",
                        "cover-dimension-bound", "lambda-one-measure-limit"),
        "alpha": ("convergent-recurrence", "construct-roundtrip", "golden-mean-rejected"),
    }

    def commands(self):
        return [["verify", "--suite", "all", "--seed", "7", "--output", self.output("report.json")]]

    def operations(self, i):
        return [f"{suite}:{name}" for suite, names in self.CHECKS.items() for name in names]

    def check(self, i, output, collected):
        doc = json.loads(output)
        found = {
            f"{s['name']}:{c['name']}": c for s in doc["results"]["suites"] for c in s["checks"]
        }
        result = {}
        for key in self.operations(i):
            c = found.pop(key, None)
            if c is None:
                result[key] = (b"", ["missing"])
            else:
                errors = [] if c["ok"] is True else [f"not ok: {c['detail']}"]
                result[key] = (json.dumps(c, sort_keys=True).encode(), errors)
        if found:
            raise ValueError(f"unexpected checks {sorted(found)}")
        return result


WORKLOADS = {w.name: w for w in (Butterfly, Fibonacci, Lyapunov, Verify)}
