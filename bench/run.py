"""Benchmark of the `amo` command-line pipeline, end to end and per layer.

    python3 bench/run.py --workload butterfly --seed 1 --seconds 20 --trace 0

Runs from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy.  One process runs the
workload: it measures set-up in fresh interpreters, warms up, then repeats
the workload's `amo` commands in process through ``almost_mathieu.cli.main``
in whole rounds until ``--seconds`` would be exceeded (at least two rounds,
so that outputs can be compared byte for byte).  After timing, every
round's outputs are checked against ``reference.py``.  A command that
exits with a code other than 0, or writes no output file, fails every one
of its operations.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, writing the
spans to ``bench/out/spans-<workload>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 11
MIN_ROUNDS = 2
# set-up as every `amo` call pays it: import the CLI and build its parser;
# the import of each dependency is timed on the way
IMPORT_CODE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.linalg
t2 = time.perf_counter()
import mpmath
t3 = time.perf_counter()
import almost_mathieu.cli as cli
cli.build_parser()
t4 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, t4 - t3]))
"""
IMPORT_METRICS = ("setup.import.numpy_s", "setup.import.scipy_s",
                  "setup.import.mpmath_s", "setup.import.almost_mathieu_s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_interpreter(code: str) -> tuple[float, str]:
    """Wall time of a new interpreter running ``code``, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout


def run_round(cli_main, workload) -> dict:
    """One repetition of the workload's commands; outputs are checked later.

    Each command's output file is removed before the command runs, so an
    output read afterwards is always the command's own.  A command that
    writes none gets ``None``, and what it printed is kept.
    """
    collected = workload.start_round()
    gc.collect()
    commands = []
    wall = 0.0
    cpu0 = time.process_time()
    for argv in workload.commands():
        path = Path(argv[argv.index("--output") + 1])
        path.unlink(missing_ok=True)
        first = len(collected)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli_main(argv)
            wall += time.perf_counter() - t0
        commands.append({"code": code, "output": path.read_bytes() if path.is_file() else None,
                         "printed": printed.getvalue(), "collected": collected[first:]})
    cpu = time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, "commands": commands}


def repeat(seconds: float, one_round) -> list[dict]:
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def command_result(workload, i: int, command: dict) -> dict:
    """{operation: (record, [errors])} for command ``i`` of one round.

    A command that exits with a code other than 0 or writes no output
    fails all its operations, whatever its output says.
    """
    code, output = command["code"], command["output"]
    if code != 0 or output is None:
        said = command["printed"].strip().replace("\n", " ")[:300]
        reason = f"exit code {code}, {'no output' if output is None else 'output written'}"
        return {op: (None, [f"{reason}: {said}" if said else reason])
                for op in workload.operations(i)}
    return workload.check(i, output, command["collected"])


def count_operations(workload, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all rounds.

    An operation fails when its command fails, when its check fails or
    when its output differs from the first round's.  Problems are faults
    no operation explains, such as output that cannot be read at all.
    """
    attempted = failed = 0
    problems: list[str] = []
    examples: list[str] = []
    first: dict = {}
    for r in rounds:
        for i, command in enumerate(r["commands"]):
            try:
                checked = command_result(workload, i, command)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
                continue
            for op, (record, errors) in checked.items():
                if record is not None and first.setdefault(op, record) != record:
                    errors = errors + ["output differs from the first repetition"]
                attempted += 1
                if errors:
                    failed += 1
                    if len(examples) < 5:
                        examples.append(f"{op}: {'; '.join(errors)}")
    for line in examples:
        print(f"failed: {line}", file=sys.stderr)
    return attempted, failed, problems


def blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, read through its own API."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "BUTTERFLY_THREADS": os.environ.get("BUTTERFLY_THREADS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "almost_mathieu" / "cli.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import almost_mathieu.cli as cli

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)

    # set-up: what every `amo` call pays before its command starts
    setup = [fresh_interpreter(IMPORT_CODE) for _ in range(SETUP_SAMPLES)]

    # warm-up: the first LAPACK call in a process sometimes stalls for most
    # of a second, which would land in the first round only
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["dimension", "--p", "55", "--q", "89", "--output", str(OUT / "warmup.json")])

    tracer = tracing.Tracer()
    main_traced = tracer.wrap("cli.command", cli.main)
    span_ranges = []

    def one_round(i: int) -> dict:
        if not (args.trace and i % 2):
            return run_round(cli.main, workload)
        first = len(tracer.spans)
        tracer.install()
        try:
            r = run_round(main_traced, workload)
        finally:
            tracer.uninstall()
        span_ranges.append((first, len(tracer.spans)))
        r["traced"] = True
        return r

    workload.attach()
    try:
        rounds = repeat(args.seconds, one_round)
    finally:
        workload.detach()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = count_operations(workload, rounds)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r.get("traced")]
    wall = statistics.median(r["wall"] for r in plain)
    if args.trace:
        traced = [r for r in rounds if r.get("traced")]
        layers = tracing.median_metrics([tracing.layer_metrics(tracer.spans, a, b)
                                         for a, b in span_ranges])
        layers["cli.output_bytes"] = sum(len(c["output"] or b"") for c in traced[0]["commands"])
        layers["process.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        for k, name in enumerate(IMPORT_METRICS):
            layers[name] = statistics.median(json.loads(out)[k] for _, out in setup)
        layers["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - wall
        spans_path = OUT / f"spans-{workload.name}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "work"], "spans": tracer.spans}))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, unit in tracing.UNITS.items():
            print(f"  {name:42s} {layers[name]:12.6g} {unit}")
        metrics = {name: metric(layers[name], unit) for name, unit in tracing.UNITS.items()}
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(wall for wall, _ in setup), "s"),
        }
    print(json.dumps({"environment": environment(),
                      "round_wall_s": [round(r["wall"], 4) for r in rounds]}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
