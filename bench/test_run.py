"""Tests of how the benchmark counts operations when a command fails.

    python3 -m pytest bench -q
"""

import sys

import run

sys.path.insert(0, str(run.SRC))

import almost_mathieu.cli as cli  # noqa: E402
from workloads import Fibonacci, Workload  # noqa: E402


class TwoCells(Workload):
    """One command whose output is two lines, one operation each."""

    name = "two-cells"

    def commands(self):
        return [["fake", "--output", self.output("cells.txt")]]

    def operations(self, i):
        return ["a", "b"]

    def check(self, i, output, collected):
        lines = output.decode().splitlines()
        return {op: (line.encode(), [] if line.strip() == "ok" else [line])
                for op, line in zip("ab", lines)}


def writes(text, code=0):
    def fake_main(argv):
        with open(argv[argv.index("--output") + 1], "w") as fh:
            fh.write(text)
        return code
    return fake_main


def test_a_good_round_fails_nothing(tmp_path):
    w = TwoCells(1, tmp_path)
    rounds = [run.run_round(writes("ok\nok\n"), w) for _ in range(2)]
    assert run.count_operations(w, rounds) == (4, 0, [])


def test_a_stale_output_is_never_read(tmp_path):
    w = TwoCells(1, tmp_path)
    good = run.run_round(writes("ok\nok\n"), w)

    def raises(argv):
        print('{"failures": ["ValueError: boom"]}')
        return 1

    bad = run.run_round(raises, w)
    assert bad["commands"][0]["output"] is None
    attempted, failed, problems = run.count_operations(w, [good, bad])
    assert (attempted, failed, problems) == (4, 2, [])


def test_a_nonzero_exit_fails_every_operation_of_the_command(tmp_path):
    w = TwoCells(1, tmp_path)
    rounds = [run.run_round(writes("ok\nok\n", code=1), w) for _ in range(2)]
    assert run.count_operations(w, rounds) == (4, 4, [])


def test_an_output_that_changes_between_rounds_fails(tmp_path):
    w = TwoCells(1, tmp_path)
    rounds = [run.run_round(writes(text), w) for text in ("ok\nok\n", "ok\nok \n")]
    assert run.count_operations(w, rounds) == (4, 1, [])


def test_a_command_that_raises_in_the_package_fails_its_operation(tmp_path):
    class BadRatio(Fibonacci):
        RATIOS = ((1, 0),)  # cli.main catches the ValueError and exits 1

    w = BadRatio(1, tmp_path)
    stale = tmp_path / "fibonacci-1-0.json"
    stale.write_text('{"results": {}}')
    w.attach()
    try:
        r = run.run_round(cli.main, w)
    finally:
        w.detach()
    command = r["commands"][0]
    assert command["code"] == 1 and command["output"] is None
    assert "denominator" in command["printed"]
    assert not stale.exists()
    assert run.count_operations(w, [r]) == (1, 1, [])


def test_detach_restores_the_package(tmp_path):
    bands = sys.modules["almost_mathieu.bands"]
    original = bands.spectral_union_S
    w = Fibonacci(1, tmp_path)
    w.attach()
    assert cli.spectral_union_S is not original and bands.spectral_union_S is not original
    w.detach()
    assert cli.spectral_union_S is original and bands.spectral_union_S is original
