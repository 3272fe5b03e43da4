"""The legacy PGAS rules (PGAS001-004, PGAS009) of the static analyzer.

Each rule fires on its fixture and the repo is clean, checked through
the analyzer's flow-insensitive path (``flow=False``, the CLI's
``--no-flow``): the rules that need no CFG or dataflow.
"""

from pathlib import Path

from repro.analyze.static import analyze_source, analyze_tree
from repro.analyze.static.__main__ import main

SRC = Path(__file__).resolve().parents[2] / "src"


def findings(source, path="pkg/mod.py"):
    return analyze_source(source, path, flow=False).findings


def codes(source, path="pkg/mod.py"):
    return [f.rule for f in findings(source, path)]


class TestPGAS001Wallclock:
    def test_time_module_flagged(self):
        assert codes("import time\nt0 = time.time()\n") == ["PGAS001"]
        assert codes("d = time.perf_counter()\n") == ["PGAS001"]

    def test_datetime_flagged(self):
        assert codes("stamp = datetime.now()\n") == ["PGAS001"]

    def test_harness_exempt(self):
        src = "import time\nt0 = time.time()\n"
        assert codes(src, "src/repro/harness/runner.py") == []

    def test_host_profiler_exempt(self):
        # the host profiler's whole job is reading the wall clock
        src = "import time\nnow = time.perf_counter_ns()\n"
        assert codes(src, "src/repro/obs/profile/host.py") == []
        # ...but the rest of the profile package is not exempt
        assert codes(src, "src/repro/obs/profile/cost.py") == ["PGAS001"]

    def test_simulated_clock_fine(self):
        assert codes("t0 = upc.wtime()\nt1 = sim.now\n") == []


class TestPGAS002DroppedGenerator:
    def test_bare_costed_call_flagged(self):
        src = "def f(upc, arr):\n    arr.read_elem(upc, 0)\n"
        assert codes(src) == ["PGAS002"]
        assert codes("def f(upc):\n    upc.barrier()\n") == ["PGAS002"]

    def test_driven_call_fine(self):
        src = "def f(upc, arr):\n    v = yield from arr.read_elem(upc, 0)\n"
        assert codes(src) == []

    def test_bound_handle_fine(self):
        assert codes("def f(upc):\n    h = upc.memput_nb(1, 64)\n") == []


class TestPGAS003LiteralMetricName:
    def test_string_literal_flagged(self):
        assert codes("stats.count('uts.steals')\n") == ["PGAS003"]
        assert codes("self.stats.add('x', 3)\n") == ["PGAS003"]

    def test_names_constant_fine(self):
        assert codes("stats.count(names.UTS_STEAL_LOCAL)\n") == []

    def test_non_stats_receiver_fine(self):
        # Counter.count('x') and friends are not metric emitters
        assert codes("tally.count('x')\n") == []

    def test_profiler_receiver_flagged(self):
        # repro.obs.profile emitters follow the same registered-name rule
        assert codes("profiler.count('profile.host.calls')\n") == ["PGAS003"]
        assert codes("self.cost_profiler.record('x', 1)\n") == ["PGAS003"]

    def test_profiler_constant_fine(self):
        assert codes("profiler.count(names.PROF_HOST_CALLS)\n") == []


class TestPGAS004PrivateData:
    def test_data_poke_flagged(self):
        assert codes("arr._data[0] = 1\n") == ["PGAS004"]

    def test_accessor_module_exempt(self):
        assert codes("self._data[0] = 1\n", "src/repro/upc/shared.py") == []


class TestMechanics:
    def test_noqa_suppresses(self):
        assert codes("t = time.time()  # noqa: PGAS001\n") == []
        # an unrelated code does not suppress
        assert codes("t = time.time()  # noqa: PGAS002\n") == ["PGAS001"]

    def test_syntax_error_reported(self):
        assert codes("def f(:\n") == ["PGAS000"]

    def test_unknown_noqa_id_flagged(self):
        assert codes("x = 1  # noqa: PGAS999\n") == ["PGAS009"]

    def test_violation_str_is_clickable(self):
        (f,) = findings("t = time.time()\n", "a/b.py")
        assert str(f).startswith("a/b.py:1:")
        assert "PGAS001" in str(f)

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("t = time.time()\n")
        assert main(["--no-flow", str(bad)]) == 1
        assert "PGAS001" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["--no-flow", str(good)]) == 0


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        # `python -m repro.analyze.static --no-flow src/repro`, as a test
        assert analyze_tree(SRC / "repro", flow=False).findings == []
