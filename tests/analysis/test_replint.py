"""Fixture tests for every replint rule: each must fire on a seeded
violation and stay quiet on the compliant twin."""

from pathlib import Path
from textwrap import dedent

from repro.analysis import run
from repro.analysis.cli import main
from repro.analysis.core import parse_suppressions

REPO = Path(__file__).resolve().parents[2]


def write(tmp_path: Path, rel: str, text: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(text), encoding="utf-8")
    return path


def lint(*paths) -> list:
    return run([str(p) for p in paths]).findings


def codes(findings) -> list:
    return [f.code for f in findings]


class TestRep001KnobRegistry:
    def test_fires_on_raw_environ(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/rogue.py",
            '''
            import os
            __all__ = ["value"]
            value = os.environ.get("PATH")
            ''',
        )
        assert "REP001" in codes(lint(tmp_path))

    def test_fires_on_os_getenv_and_from_import(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/rogue.py",
            '''
            import os
            from os import environ
            __all__ = ["value"]
            value = os.getenv("HOME")
            ''',
        )
        found = codes(lint(tmp_path))
        assert found.count("REP001") == 2

    def test_quiet_in_env_module(self, tmp_path):
        write(
            tmp_path,
            "src/repro/util/env.py",
            '''
            import os
            __all__ = ["read"]
            def read(name):
                return os.environ.get(name, "")
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_on_declared_and_test_namespace_knobs(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            from ..util.knobs import get_flag
            from ..util.env import env_int
            __all__ = ["a", "b"]
            a = get_flag("REPRO_LEDGER")
            b = env_int("REPRO_TEST_WHATEVER", 1)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep003Determinism:
    def test_fires_on_global_np_random(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/bad.py",
            '''
            import numpy as np
            __all__ = ["noise"]
            def noise(n):
                return np.random.randn(n)
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP003"]

    def test_quiet_on_seeded_generator(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/good.py",
            '''
            import numpy as np
            __all__ = ["noise"]
            def noise(n, seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(n)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_fires_on_wall_clock(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            import time
            __all__ = ["stamp"]
            def stamp():
                return time.time()
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP003"]

    def test_tests_are_out_of_scope(self, tmp_path):
        write(
            tmp_path,
            "tests/test_messy.py",
            '''
            import numpy as np
            def test_x():
                return np.random.randn(3)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep004AccumulationDtype:
    def test_fires_in_features_scope(self, tmp_path):
        write(
            tmp_path,
            "src/repro/features/stats.py",
            '''
            import numpy as np
            __all__ = ["centroid"]
            def centroid(x):
                return x.mean(axis=0)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP004"]

    def test_quiet_with_explicit_dtype(self, tmp_path):
        write(
            tmp_path,
            "src/repro/features/stats.py",
            '''
            import numpy as np
            __all__ = ["centroid"]
            def centroid(x):
                return np.sum(x, axis=0, dtype=np.float64)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_np_function_form_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "src/repro/features/moments.py",
            '''
            import numpy as np
            __all__ = ["total"]
            def total(x):
                return np.var(x)
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP004"]

    def test_out_of_scope_module_is_quiet(self, tmp_path):
        write(
            tmp_path,
            "src/repro/ml/other.py",
            '''
            __all__ = ["centroid"]
            def centroid(x):
                return x.mean(axis=0)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep006ImportLayering:
    def test_fires_on_absolute_import(self, tmp_path):
        write(
            tmp_path,
            "src/repro/dsp/leaky.py",
            '''
            from repro.experiments import table1
            __all__ = ["table1"]
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP006"]

    def test_fires_on_relative_import(self, tmp_path):
        write(
            tmp_path,
            "src/repro/sim/leaky.py",
            '''
            from ..experiments.configs import stationary_config
            __all__ = ["stationary_config"]
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP006"]

    def test_fires_on_plain_import(self, tmp_path):
        write(
            tmp_path,
            "src/repro/isa/leaky.py",
            '''
            import repro.experiments.table1 as t1
            __all__ = ["t1"]
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP006"]

    def test_quiet_on_substrate_imports(self, tmp_path):
        write(
            tmp_path,
            "src/repro/dsp/fine.py",
            '''
            from ..util.env import env_int
            import numpy as np
            __all__ = ["env_int", "np"]
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_experiments_may_import_substrate(self, tmp_path):
        write(
            tmp_path,
            "src/repro/experiments/runner.py",
            '''
            from ..dsp.cwt import get_cwt
            __all__ = ["get_cwt"]
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep007ExceptionHygiene:
    def test_fires_on_bare_except(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/swallow.py",
            '''
            __all__ = ["read"]
            def read(path):
                try:
                    return open(path).read()
                except:
                    return ""
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP007"]

    def test_fires_on_silent_broad_swallow(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/swallow.py",
            '''
            __all__ = ["read"]
            def read(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP007"]

    def test_fires_on_baseexception_in_tuple_with_continue(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/swallow.py",
            '''
            __all__ = ["drain"]
            def drain(items):
                out = []
                for item in items:
                    try:
                        out.append(item())
                    except (ValueError, BaseException):
                        continue
                return out
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP007"]

    def test_quiet_on_specific_exception_swallow(self, tmp_path):
        # Swallowing a *named* exception is a deliberate, reviewable
        # decision; only the broad shapes are flagged.
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            __all__ = ["read"]
            def read(path):
                try:
                    return open(path).read()
                except FileNotFoundError:
                    pass
                return ""
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_on_handled_broad_except(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            __all__ = ["read"]
            def read(path, log):
                try:
                    return open(path).read()
                except Exception as error:
                    log.append(error)
                    raise
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_in_tests(self, tmp_path):
        write(
            tmp_path,
            "tests/test_something.py",
            '''
            def test_x():
                try:
                    1 / 0
                except:
                    pass
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_waiver_comment_suppresses(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/teardown.py",
            '''
            __all__ = ["stop"]
            def stop(worker):
                try:
                    worker.terminate()
                except Exception:  # replint: disable=REP007 -- teardown must not mask the original failure
                    pass
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep008Printing:
    def test_fires_on_print_in_library(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/noisy.py",
            '''
            __all__ = ["capture"]
            def capture(n):
                print(f"capturing {n} traces")
                return n
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP008"]

    def test_quiet_in_entry_point_module(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/__main__.py",
            '''
            def main():
                print("data row")
                return 0
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_in_tests(self, tmp_path):
        write(
            tmp_path,
            "tests/test_noise.py",
            '''
            def test_x():
                print("debugging aid")
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_on_method_named_print(self, tmp_path):
        # Only the builtin is flagged; an attribute call is some other
        # object's API.
        write(
            tmp_path,
            "src/repro/power/printer.py",
            '''
            __all__ = ["render"]
            def render(device):
                device.print("ok")
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_waiver_comment_suppresses(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/contract.py",
            '''
            __all__ = ["show"]
            def show(table):
                print(table)  # replint: disable=REP008 -- stdout is the contract
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep014MetricNames:
    def test_fires_on_fstring_span_name(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/dynamic.py",
            '''
            from repro.obs.trace import span
            __all__ = ["capture"]
            def capture(mode, traces):
                with span(f"capture.{mode}"):
                    return list(traces)
            ''',
        )
        assert "REP014" in codes(lint(tmp_path))

    def test_fires_on_concatenated_counter_name(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/dynamic.py",
            '''
            from repro.obs import trace as _obs
            __all__ = ["hit"]
            def hit(kind):
                _obs.counter("cache_" + kind).inc()
            ''',
        )
        assert "REP014" in codes(lint(tmp_path))

    def test_fires_on_convention_breaking_literal(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/shouty.py",
            '''
            from repro.obs import trace as _obs
            __all__ = ["hit"]
            def hit():
                _obs.counter("CacheHits").inc()
                _obs.gauge("undotted").set(1.0)
            ''',
        )
        assert codes(lint(tmp_path)).count("REP014") == 2

    def test_quiet_on_dotted_literals(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clean.py",
            '''
            from repro.obs import trace as _obs
            from repro.obs.trace import span
            __all__ = ["capture"]
            def capture(traces):
                with span("capture.class", n=len(traces)):
                    _obs.counter("trace_cache.hits").inc()
                    _obs.gauge("parallel.worker_utilization").set(0.5)
                    _obs.histogram("parallel.task_ms").observe(2.0)
                return traces
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_in_obs_package_itself(self, tmp_path):
        # The obs helpers forward caller-supplied names by design.
        write(
            tmp_path,
            "src/repro/obs/forwarder.py",
            '''
            __all__ = ["counter"]
            def counter(registry, name):
                return registry.counter(name)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_in_tests(self, tmp_path):
        write(
            tmp_path,
            "tests/test_span_names.py",
            '''
            from repro.obs.trace import span
            def test_spans(name):
                with span(f"test.{name}"):
                    pass
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_waiver_for_bounded_name_set(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/staged.py",
            '''
            from repro.obs.trace import span
            __all__ = ["stage"]
            def stage(name, compute):
                with span(f"stage.{name}"):  # replint: disable=REP014 -- stage names are a fixed set
                    return compute()
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_unrelated_calls_untouched(self, tmp_path):
        # Only the five obs factories are name-checked; other APIs that
        # happen to share a method name pass untouched.
        write(
            tmp_path,
            "src/repro/power/other.py",
            '''
            __all__ = ["tally"]
            def tally(collections_counter, items):
                return collections_counter(items)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestSuppressions:
    def test_line_suppression_silences_one_code(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            import time
            __all__ = ["stamp"]
            def stamp():
                return time.time()  # replint: disable=REP003 -- display only
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_line_suppression_is_code_specific(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            import time
            __all__ = ["stamp"]
            def stamp():
                return time.time()  # replint: disable=REP001
            ''',
        )
        # The mismatched waiver does not silence REP003 — and is itself
        # reported as unused (REP013).
        assert sorted(codes(lint(tmp_path))) == ["REP003", "REP013"]

    def test_bare_disable_silences_all(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            import time
            __all__ = ["stamp"]
            def stamp():
                return time.time()  # replint: disable
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_file_wide_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            # replint: disable-file=REP003 -- timing harness
            import time
            __all__ = ["a", "b"]
            def a():
                return time.time()
            def b():
                return time.time()
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_cross_file_findings_respect_suppressions(self, tmp_path):
        # REP012's phantom-read finding comes from the whole-program
        # pass; a line waiver at the read site still silences it.
        write(
            tmp_path,
            "src/repro/util/knobs.py",
            '''
            __all__ = ["KNOBS", "Knob"]
            class Knob:
                def __init__(self, name):
                    self.name = name
            KNOBS = {"REPRO_N_JOBS": Knob("REPRO_N_JOBS")}
            ''',
        )
        write(
            tmp_path,
            "src/repro/power/rogue.py",
            '''
            from ..util.env import env_int
            __all__ = ["jobs", "value"]
            jobs = env_int("REPRO_N_JOBS", 1)
            value = env_int("REPRO_NOT_DECLARED", 3)  # replint: disable=REP012
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_parse_suppressions_shapes(self):
        sup = parse_suppressions(
            [
                "x = 1  # replint: disable=REP001, REP003",
                "y = 2  # replint: disable",
                "# replint: disable-file=REP004 -- why",
                "z = 3",
            ]
        )
        assert sup.by_line[1] == frozenset({"REP001", "REP003"})
        assert sup.by_line[2] is None
        assert 4 not in sup.by_line
        assert sup.file_wide == frozenset({"REP004"})


class TestIterPythonFiles:
    def test_excludes_caches_and_build_dirs(self, tmp_path):
        from repro.analysis import iter_python_files

        keep = write(tmp_path, "src/repro/ml/real.py", "x = 1\n")
        write(tmp_path, "src/repro/ml/__pycache__/real.cpython-311.py", "")
        write(tmp_path, "build/lib/repro/ml/real.py", "x = 1\n")
        write(tmp_path, ".git/hooks/hook.py", "x = 1\n")
        write(tmp_path, ".pytest_cache/v/cache.py", "x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert files == [str(keep)]

    def test_order_is_deterministic_and_sorted(self, tmp_path):
        from repro.analysis import iter_python_files

        for name in ("zeta", "alpha", "mid"):
            write(tmp_path, f"src/repro/ml/{name}.py", "x = 1\n")
        write(tmp_path, "src/repro/dsp/other.py", "x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert files == sorted(files)
        assert [Path(f).name for f in files] == [
            "other.py", "alpha.py", "mid.py", "zeta.py",
        ]
        # Passing overlapping roots or explicit files never duplicates.
        again = iter_python_files(
            [str(tmp_path), str(tmp_path / "src/repro/ml/alpha.py")]
        )
        assert again == files


class TestRunnerAndCli:
    def test_parse_error_becomes_rep000(self, tmp_path):
        write(tmp_path, "src/repro/ml/broken.py", "def f(:\n")
        found = lint(tmp_path)
        assert codes(found) == ["REP000"]

    def test_findings_sorted_and_text_renderer(self, tmp_path, capsys):
        write(tmp_path, "src/repro/ml/b.py", "print(1)\n")
        write(tmp_path, "src/repro/ml/a.py", "x = 1\nprint(x)\n")
        found = lint(tmp_path)
        assert codes(found) == ["REP008", "REP008"]
        assert found == sorted(found, key=lambda f: (f.path, f.line))
        assert main([str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[:2] == [f.render() for f in found]
        assert rows[2].startswith("replint: 2 findings in 2 file(s) (REP008 x2)")

    def test_cli_clean_exit_zero(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/repro/ml/clean.py",
            '__all__ = ["a"]\na = 1\n',
        )
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_missing_path_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "REP001", "REP003", "REP004", "REP006", "REP007", "REP008",
            "REP009", "REP010", "REP011", "REP012", "REP013", "REP014",
        ):
            assert code in out

    def test_check_docs_flags_drift(self, tmp_path, capsys):
        clean = write(
            tmp_path, "src/repro/ml/clean.py", '__all__ = ["a"]\na = 1\n'
        )
        readme = tmp_path / "README.md"
        readme.write_text(
            "# x\n<!-- replint:knob-table -->\nstale\n"
            "<!-- /replint:knob-table -->\n",
            encoding="utf-8",
        )
        rc = main(["--check-docs", "--readme", str(readme), str(clean)])
        assert rc == 1
        assert "out of sync" in capsys.readouterr().err

    def test_fix_docs_then_check_passes(self, tmp_path, capsys):
        clean = write(
            tmp_path, "src/repro/ml/clean.py", '__all__ = ["a"]\na = 1\n'
        )
        readme = tmp_path / "README.md"
        readme.write_text(
            "# x\n<!-- replint:knob-table -->\nstale\n"
            "<!-- /replint:knob-table -->\ntail\n",
            encoding="utf-8",
        )
        assert main(["--fix-docs", "--readme", str(readme)]) == 0
        assert (
            main(["--check-docs", "--readme", str(readme), str(clean)]) == 0
        )
        text = readme.read_text(encoding="utf-8")
        assert "REPRO_PARALLEL_MIN_FILES" in text
        assert text.endswith("tail\n")


class TestRepoIsClean:
    def test_replint_green_on_the_repo(self):
        # benchmarks joins the roots because REP012 judges knob liveness
        # whole-program and the bench-harness knobs are read there.
        roots = [
            str(REPO / name)
            for name in ("src", "tests", "benchmarks")
            if (REPO / name).is_dir()
        ]
        result = run(roots)
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_every_rule_has_fixture_coverage(self):
        # Meta-check: the classes above plus test_project_rules.py cover
        # each shipped rule code.
        from repro.analysis.core import RULE_REGISTRY

        # REP002 (fast/reference parity) was retired with the reference
        # twins, REP005 (export hygiene) for tests/test_public_api.py;
        # their codes are not reused.
        assert set(RULE_REGISTRY) == {
            f"REP{n:03d}" for n in range(1, 15) if n not in (2, 5)
        }
