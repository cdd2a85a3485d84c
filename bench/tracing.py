"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function everywhere a caller of
the package looks it up: a module attribute bound to the same object (so
``bands.discriminant_grid`` and ``core.discriminant_grid`` both, see
``rebind``), the ``verify.SUITES`` table, and ``numpy.linalg.eigvalsh``
for the calls ``bands`` makes.  ``uninstall()`` puts every original back,
so traced and untraced rounds can alternate in one process.

A span is ``[name, start, end, parent, work]``: ``parent`` is the index of
the enclosing span in the same thread (or None) and ``work`` is a count
taken from the arguments (energy-steps, matrix order) or None.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

import numpy as np

SUITE_NAMES = ("core", "bands", "greens", "products", "interpolation", "experiments", "alpha")

# spans whose calls each produce one spectral set
SET_SPANS = ("bands.spectral_union_S", "bands.spectrum_bands", "bands.jdelta_sets")


def _grid_steps(args, kwargs):
    spec, energies = args[0], args[1] if len(args) > 1 else kwargs["energies"]
    return spec.period * int(np.size(energies))


def _matrix_order(args, kwargs):
    return int(np.shape(args[0])[0])


# (module, attribute, span name, work counter)
TARGETS = (
    ("core", "discriminant_grid", "core.grid", _grid_steps),
    ("core", "discriminant_and_derivative_grid", "core.grid", _grid_steps),
    ("core", "monodromy_scaled", "core.monodromy_scaled", None),
    ("core", "chambers_residual", "core.chambers_residual", None),
    ("bands", "spectral_union_S", "bands.spectral_union_S", None),
    ("bands", "spectrum_bands", "bands.spectrum_bands", None),
    ("bands", "jdelta_sets", "bands.jdelta_sets", None),
    ("bands", "jdelta_sweep", "bands.jdelta_sweep", None),
    ("greens", "lyapunov", "greens.lyapunov", None),
    ("greens", "lyapunov_grid", "greens.lyapunov_grid", None),
    ("experiments", "butterfly_generate", "experiments.butterfly_generate", None),
    ("experiments", "box_counting_dimension", "experiments.box_counting_dimension", None),
    ("experiments", "measure_decay", "experiments.measure_decay", None),
    ("products", "product_growth", "products.product_growth", None),
    ("interpolation", "green_comparison", "interpolation.green_comparison", None),
    ("alpha", "construct_alpha", "alpha.construct_alpha", None),
)

PACKAGE = "almost_mathieu"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    work(args, kwargs) if work else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for mod_name, attr, span_name, work in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            self._undo += rebind(original, self.wrap(span_name, original, work))

        suites = sys.modules[f"{PACKAGE}.verify"].SUITES
        for name in SUITE_NAMES:
            self._undo += replace(suites, name, self.wrap(f"verify.suite.{name}", suites[name]))

        eigvalsh = np.linalg.eigvalsh
        traced_eig = self.wrap("bands.eigensolve", eigvalsh, _matrix_order)
        bands_module = f"{PACKAGE}.bands"

        @functools.wraps(eigvalsh)
        def eigvalsh_from_bands(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == bands_module:
                return traced_eig(*args, **kwargs)
            return eigvalsh(*args, **kwargs)

        self._undo += replace(np.linalg, "eigvalsh", eigvalsh_from_bands)

    def uninstall(self) -> None:
        restore(self._undo)


def replace(container, key, new) -> list[tuple]:
    """Set ``container[key]`` (a dict) or ``container.key`` to ``new``; returns the undo list."""
    if isinstance(container, dict):
        undo = [(container, key, container[key])]
        container[key] = new
    else:
        undo = [(container, key, getattr(container, key))]
        setattr(container, key, new)
    return undo


def rebind(original, new) -> list[tuple]:
    """Bind ``new`` wherever a module of the package binds ``original``.

    This reaches every caller that looks the function up as a module
    global, whether it imported the name or reaches it through its module.
    Returns the undo list for ``restore``.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    undo = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo += replace(mod, key, new)
    return undo


def restore(undo: list[tuple]) -> None:
    """Undo ``replace`` and ``rebind``, last change first."""
    while undo:
        container, key, original = undo.pop()
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer counts and times from ``spans[first:last]``, one round's spans.

    ``<name>.s`` sums the spans not nested in a span of the same name;
    ``<name>.self_s`` subtracts from each span the time of its direct
    children.
    """
    own = spans[first:last]
    child_time = [0.0] * len(own)
    for name, start, end, parent, _ in own:
        if parent is not None and parent >= first:
            child_time[parent - first] += end - start

    def ancestors(i):
        parent = own[i][3]
        while parent is not None and parent >= first:
            yield parent - first
            parent = own[parent - first][3]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    work: dict[str, int] = {}
    grid_in_sets = 0
    sets = 0
    for i, (name, start, end, parent, w) in enumerate(own):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
        up = [own[a][0] for a in ancestors(i)]
        if name not in up:
            total[name] = total.get(name, 0.0) + duration
        if w is not None:
            work[name] = work.get(name, 0) + w
        if name == "core.grid" and any(a in SET_SPANS for a in up):
            grid_in_sets += 1
        if name in SET_SPANS and not any(a in SET_SPANS for a in up):
            sets += 1

    out = {
        "core.grid.calls": calls.get("core.grid", 0),
        "core.grid.energy_steps": work.get("core.grid", 0),
        "core.grid.s": total.get("core.grid", 0.0),
        "core.monodromy_scaled.calls": calls.get("core.monodromy_scaled", 0),
        "core.monodromy_scaled.s": total.get("core.monodromy_scaled", 0.0),
        "core.chambers_residual.calls": calls.get("core.chambers_residual", 0),
        "core.chambers_residual.s": total.get("core.chambers_residual", 0.0),
        "bands.eigensolve.calls": calls.get("bands.eigensolve", 0),
        "bands.eigensolve.s": total.get("bands.eigensolve", 0.0),
        "bands.eigensolve.order_sum": work.get("bands.eigensolve", 0),
        "bands.spectral_union_S.calls": calls.get("bands.spectral_union_S", 0),
        "bands.spectral_union_S.s": total.get("bands.spectral_union_S", 0.0),
        "bands.spectral_union_S.self_s": self_time.get("bands.spectral_union_S", 0.0),
        "bands.grid_calls_per_set": grid_in_sets / sets if sets else 0.0,
        "bands.spectrum_bands.s": total.get("bands.spectrum_bands", 0.0),
        "bands.jdelta_sets.s": total.get("bands.jdelta_sets", 0.0),
        "bands.jdelta_sweep.s": total.get("bands.jdelta_sweep", 0.0),
        "greens.lyapunov.calls": calls.get("greens.lyapunov", 0),
        "greens.lyapunov.s": total.get("greens.lyapunov", 0.0),
        "greens.lyapunov_grid.s": total.get("greens.lyapunov_grid", 0.0),
        "experiments.butterfly_generate.self_s":
            self_time.get("experiments.butterfly_generate", 0.0),
        "experiments.box_counting_dimension.s":
            total.get("experiments.box_counting_dimension", 0.0),
        "experiments.measure_decay.s": total.get("experiments.measure_decay", 0.0),
        "products.product_growth.s": total.get("products.product_growth", 0.0),
        "interpolation.green_comparison.s": total.get("interpolation.green_comparison", 0.0),
        "alpha.construct_alpha.s": total.get("alpha.construct_alpha", 0.0),
    }
    for name in SUITE_NAMES:
        out[f"verify.suite.{name}.s"] = total.get(f"verify.suite.{name}", 0.0)
    out["cli.command.self_s"] = self_time.get("cli.command", 0.0)
    steps = out["core.grid.energy_steps"]
    out["core.grid.ns_per_energy_step"] = out["core.grid.s"] / steps * 1e9 if steps else 0.0
    return out


# every per-layer metric the traced run reports, with its unit
UNITS = {
    "core.grid.calls": "count", "core.grid.energy_steps": "count", "core.grid.s": "s",
    "core.grid.ns_per_energy_step": "ns",
    "core.monodromy_scaled.calls": "count", "core.monodromy_scaled.s": "s",
    "core.chambers_residual.calls": "count", "core.chambers_residual.s": "s",
    "bands.eigensolve.calls": "count", "bands.eigensolve.s": "s",
    "bands.eigensolve.order_sum": "count",
    "bands.spectral_union_S.calls": "count", "bands.spectral_union_S.s": "s",
    "bands.spectral_union_S.self_s": "s", "bands.grid_calls_per_set": "calls/set",
    "bands.spectrum_bands.s": "s", "bands.jdelta_sets.s": "s", "bands.jdelta_sweep.s": "s",
    "greens.lyapunov.calls": "count", "greens.lyapunov.s": "s", "greens.lyapunov_grid.s": "s",
    "experiments.butterfly_generate.self_s": "s", "experiments.box_counting_dimension.s": "s",
    "experiments.measure_decay.s": "s",
    "products.product_growth.s": "s", "interpolation.green_comparison.s": "s",
    "alpha.construct_alpha.s": "s",
    **{f"verify.suite.{name}.s": "s" for name in SUITE_NAMES},
    "cli.command.self_s": "s", "cli.output_bytes": "B",
    "process.cpu_s": "s",
    "setup.import.numpy_s": "s", "setup.import.scipy_s": "s", "setup.import.mpmath_s": "s",
    "setup.import.almost_mathieu_s": "s",
    "trace.overhead_s": "s",
}


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Metric by metric median over rounds; counts repeat, so stay exact."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
