"""Fixture tests for the whole-program rules (REP009–REP012) and the
unused-suppression report (REP013).

Each rule gets a firing fixture, a compliant twin, and a *cross-module*
case — a violation (or absolution) only visible through the project
model's import graph / call-def index, never from any single file.

Fixture trees avoid incidental findings from the per-file rules
(``__all__`` present and sorted, no wall-clock reads, ...) so the
assertions can usually compare exact code lists.  Knob fixtures reuse
*real* registry names because REP001 checks every ``REPRO_*`` literal
against the imported registry regardless of the tree under lint.
"""

from pathlib import Path

from .test_replint import codes, lint, write


def _write_cwt_sink(tmp_path: Path) -> None:
    write(
        tmp_path,
        "src/repro/dsp/cwt.py",
        '''
        __all__ = ["get_cwt"]
        def get_cwt(n_samples):
            return n_samples
        ''',
    )


def _write_pool(tmp_path: Path) -> None:
    write(
        tmp_path,
        "src/repro/util/parallel.py",
        '''
        __all__ = ["parallel_map"]
        def parallel_map(fn, items, n_jobs=None):
            return [fn(item) for item in items]
        ''',
    )


def _write_obs(tmp_path: Path) -> None:
    write(
        tmp_path,
        "src/repro/obs/__init__.py",
        '''
        from .trace import span, traced
        __all__ = ["span", "traced"]
        ''',
    )
    write(
        tmp_path,
        "src/repro/obs/trace.py",
        '''
        import contextlib
        __all__ = ["span", "traced"]
        @contextlib.contextmanager
        def span(name, **fields):
            yield
        def traced(name):
            def wrap(fn):
                return fn
            return wrap
        ''',
    )


class TestRep009DtypeFlow:
    def test_fires_on_unpinned_asarray_in_sink_importer(self, tmp_path):
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/features/prep.py",
            '''
            import numpy as np
            from ..dsp.cwt import get_cwt
            __all__ = ["prep"]
            def prep(traces):
                arr = np.asarray(traces)
                return get_cwt(arr)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP009"]
        assert "np.asarray(traces)" in found[0].message
        assert "imports repro.dsp.cwt" in found[0].message

    def test_quiet_with_pinned_dtype(self, tmp_path):
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/features/prep.py",
            '''
            import numpy as np
            from ..dsp.cwt import get_cwt
            __all__ = ["prep"]
            def prep(traces):
                arr = np.asarray(traces, dtype=np.float32)
                return get_cwt(arr)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_with_f64_accumulation_in_scope(self, tmp_path):
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/features/prep.py",
            '''
            import numpy as np
            from ..dsp.cwt import get_cwt
            __all__ = ["prep"]
            def prep(traces):
                arr = np.asarray(traces)
                total = np.sum(arr, axis=0, dtype=np.float64)
                return get_cwt(total)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_off_the_gemm_path(self, tmp_path):
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/power/loader.py",
            '''
            import numpy as np
            __all__ = ["load"]
            def load(traces):
                return np.asarray(traces)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_cross_module_helper_called_from_on_path_module(self, tmp_path):
        # helper.py never imports the sink — only the call/def index
        # connects it to the GEMM path, via prep.py.
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/features/helper.py",
            '''
            import numpy as np
            __all__ = ["gather"]
            def gather(traces):
                return np.asarray(traces)
            ''',
        )
        write(
            tmp_path,
            "src/repro/features/prep.py",
            '''
            from ..dsp.cwt import get_cwt
            from .helper import gather
            __all__ = ["prep"]
            def prep(traces):
                return get_cwt(gather(traces))
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP009"]
        assert found[0].path.endswith("helper.py")
        assert "called from repro.features.prep" in found[0].message

    def test_suppression_with_justification_is_honored(self, tmp_path):
        _write_cwt_sink(tmp_path)
        write(
            tmp_path,
            "src/repro/features/prep.py",
            '''
            import numpy as np
            from ..dsp.cwt import get_cwt
            __all__ = ["prep"]
            def prep(traces):
                arr = np.asarray(traces)  # replint: disable=REP009 -- shape probe
                return get_cwt(arr)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep010ParallelSafety:
    def test_fires_on_literal_lambda(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            __all__ = ["go"]
            def go(items):
                return parallel_map(lambda x: x, items)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP010"]
        assert "lambda" in found[0].message

    def test_fires_on_nested_function(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            __all__ = ["go"]
            def go(items, scale):
                def work(x):
                    return x * scale
                return parallel_map(work, items)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP010"]
        assert "closure" in found[0].message

    def test_fires_on_local_lambda_binding(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            __all__ = ["go"]
            def go(items):
                work = lambda x: x
                return parallel_map(work, items)
            ''',
        )
        assert codes(lint(tmp_path)) == ["REP010"]

    def test_cross_module_imported_lambda(self, tmp_path):
        # The lambda lives in ops.py; the call site in runner.py looks
        # like an ordinary imported function — only symbol resolution
        # through the import graph exposes it.
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/ops.py",
            '''
            __all__ = ["double"]
            double = lambda x: 2 * x
            ''',
        )
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            from .ops import double
            __all__ = ["go"]
            def go(items):
                return parallel_map(double, items)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP010"]
        assert found[0].path.endswith("runner.py")
        assert "defined in repro.power.ops" in found[0].message

    def test_quiet_on_module_level_function(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/ops.py",
            '''
            __all__ = ["double"]
            def double(x):
                return 2 * x
            ''',
        )
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            from .ops import double
            __all__ = ["go"]
            def go(items):
                return parallel_map(double, items)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_on_task_object_instance(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "src/repro/power/runner.py",
            '''
            from ..util.parallel import parallel_map
            __all__ = ["Task", "go"]
            class Task:
                def __init__(self, scale):
                    self.scale = scale
                def __call__(self, x):
                    return x * self.scale
            def go(items, scale):
                return parallel_map(Task(scale), items)
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_tests_are_exempt(self, tmp_path):
        _write_pool(tmp_path)
        write(
            tmp_path,
            "tests/test_pool.py",
            '''
            from repro.util.parallel import parallel_map
            def test_serial_degrade():
                assert parallel_map(lambda x: x, [1]) == [1]
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep011SpanCoverage:
    def test_fires_on_uninstrumented_trace_loop(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/capture.py",
            '''
            __all__ = ["capture_all"]
            def capture_all(traces):
                out = []
                for trace in traces:
                    out.append(trace)
                return out
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP011"]
        assert "capture_all" in found[0].message

    def test_quiet_with_direct_span(self, tmp_path):
        _write_obs(tmp_path)
        write(
            tmp_path,
            "src/repro/power/capture.py",
            '''
            from ..obs import span
            __all__ = ["capture_all"]
            def capture_all(traces):
                out = []
                with span("power.capture", n=len(traces)):
                    for trace in traces:
                        out.append(trace)
                return out
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_with_traced_decorator(self, tmp_path):
        _write_obs(tmp_path)
        write(
            tmp_path,
            "src/repro/power/capture.py",
            '''
            from ..obs import traced
            __all__ = ["capture_all"]
            @traced("power.capture")
            def capture_all(traces):
                return [trace for trace in traces]
            ''',
        )
        # Comprehensions are not ``for`` statements; seed a real loop.
        write(
            tmp_path,
            "src/repro/power/capture.py",
            '''
            from ..obs import traced
            __all__ = ["capture_all"]
            @traced("power.capture")
            def capture_all(traces):
                out = []
                for trace in traces:
                    out.append(trace)
                return out
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_quiet_on_private_and_out_of_scope_functions(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/capture.py",
            '''
            __all__ = ["API"]
            API = "v1"
            def _drain(traces):
                for trace in traces:
                    pass
            ''',
        )
        write(
            tmp_path,
            "src/repro/ml/train.py",
            '''
            __all__ = ["fit"]
            def fit(traces):
                for trace in traces:
                    pass
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_cross_module_loop_hidden_in_private_helper(self, tmp_path):
        # run_all looks loop-free; the trace loop lives in another
        # module's private helper.  Only the call/def index connects
        # them, and the finding lands on the public entry point.
        write(
            tmp_path,
            "src/repro/power/_scan.py",
            '''
            __all__ = []
            def _iterate(traces):
                for trace in traces:
                    pass
            ''',
        )
        write(
            tmp_path,
            "src/repro/experiments/runit.py",
            '''
            from ..power._scan import _iterate
            __all__ = ["run_all"]
            def run_all(traces):
                return _iterate(traces)
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP011"]
        assert found[0].path.endswith("runit.py")
        assert "in repro.power._scan._iterate" in found[0].message

    def test_cross_module_span_in_callee_absolves(self, tmp_path):
        _write_obs(tmp_path)
        write(
            tmp_path,
            "src/repro/power/_scan.py",
            '''
            from ..obs import span
            __all__ = []
            def _iterate(traces):
                with span("power.scan", n=len(traces)):
                    for trace in traces:
                        pass
            ''',
        )
        write(
            tmp_path,
            "src/repro/experiments/runit.py",
            '''
            from ..power._scan import _iterate
            __all__ = ["run_all"]
            def run_all(traces):
                return _iterate(traces)
            ''',
        )
        assert codes(lint(tmp_path)) == []


class TestRep012KnobLiveness:
    REGISTRY = '''
    __all__ = ["KNOBS", "Knob"]
    class Knob:
        def __init__(self, name, default):
            self.name = name
            self.default = default
    KNOBS = {
        "REPRO_OBS_LOG_LEVEL": Knob("REPRO_OBS_LOG_LEVEL", "info"),
        "REPRO_N_JOBS": Knob("REPRO_N_JOBS", 0),
    }
    '''

    READER = '''
    __all__ = ["log_level"]
    def log_level(get):
        return get("REPRO_OBS_LOG_LEVEL", "info")
    '''

    def test_fires_on_dead_knob(self, tmp_path):
        # REPRO_N_JOBS is registered but nothing reads it anywhere.
        write(tmp_path, "src/repro/util/knobs.py", self.REGISTRY)
        write(tmp_path, "src/repro/power/reader.py", self.READER)
        found = lint(tmp_path)
        assert codes(found) == ["REP012"]
        assert found[0].path.endswith("knobs.py")
        assert "REPRO_N_JOBS" in found[0].message
        assert "never read" in found[0].message

    def test_fires_on_phantom_read(self, tmp_path):
        write(tmp_path, "src/repro/util/knobs.py", self.REGISTRY)
        write(
            tmp_path,
            "src/repro/power/reader.py",
            '''
            __all__ = ["log_level", "rate"]
            def log_level(get):
                return get("REPRO_OBS_LOG_LEVEL", "info")
            def rate(get):
                return get("REPRO_CWT_MEM_MB", 256.0)
            ''',
        )
        # A knob a test sets is a read site too.
        write(
            tmp_path,
            "tests/power/test_reader.py",
            '''
            def test_nope(monkeypatch):
                monkeypatch.setenv("REPRO_NOPE", "1")
            ''',
        )
        found = [f for f in lint(tmp_path) if f.code == "REP012"]
        by_message = sorted(f.message for f in found)
        assert any("REPRO_CWT_MEM_MB" in m and "no Knob" in m
                   for m in by_message)
        nope = [f for f in found if "REPRO_NOPE" in f.message]
        assert len(nope) == 1 and "no Knob" in nope[0].message
        assert nope[0].path.endswith("tests/power/test_reader.py")
        # REPRO_N_JOBS is still dead in this tree.
        assert any("REPRO_N_JOBS" in m for m in by_message)
        assert len(found) == 3

    def test_quiet_when_registry_and_reads_agree(self, tmp_path):
        write(
            tmp_path,
            "src/repro/util/knobs.py",
            '''
            __all__ = ["KNOBS", "Knob"]
            class Knob:
                def __init__(self, name, default):
                    self.name = name
                    self.default = default
            KNOBS = {"REPRO_OBS_LOG_LEVEL": Knob("REPRO_OBS_LOG_LEVEL", "info")}
            ''',
        )
        write(tmp_path, "src/repro/power/reader.py", self.READER)
        assert codes(lint(tmp_path)) == []

    def test_silent_without_a_registry_module(self, tmp_path):
        # A partial lint (fixture tree, single file) cannot judge
        # liveness; the rule stays out of the way.
        write(tmp_path, "src/repro/power/reader.py", self.READER)
        assert codes(lint(tmp_path)) == []

    def test_test_namespace_is_exempt(self, tmp_path):
        write(tmp_path, "src/repro/util/knobs.py", self.REGISTRY)
        write(
            tmp_path,
            "src/repro/power/reader.py",
            '''
            __all__ = ["log_level", "fixture"]
            def log_level(get):
                return get("REPRO_OBS_LOG_LEVEL", "info")
            def fixture(get):
                return get("REPRO_TEST_WHATEVER", 1)
            ''',
        )
        found = [f for f in lint(tmp_path) if f.code == "REP012"]
        # Only the dead REPRO_N_JOBS — the REPRO_TEST_* read is not a
        # phantom.
        assert len(found) == 1
        assert "REPRO_N_JOBS" in found[0].message


class TestRep013UnusedSuppressions:
    def test_fires_on_unused_line_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            __all__ = ["add"]
            def add(a, b):
                return a + b  # replint: disable=REP003 -- stale waiver
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP013"]
        assert "REP003" in found[0].message

    def test_fires_on_unused_file_wide_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            # replint: disable-file=REP008 -- nothing prints here anymore
            __all__ = ["add"]
            def add(a, b):
                return a + b
            ''',
        )
        found = lint(tmp_path)
        assert codes(found) == ["REP013"]
        assert "disable-file=REP008" in found[0].message

    def test_used_suppression_is_not_reported(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/clock.py",
            '''
            import time
            __all__ = ["stamp"]
            def stamp():
                return time.time()  # replint: disable=REP003 -- display
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_naming_rep013_opts_out(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/fine.py",
            '''
            __all__ = ["add"]
            def add(a, b):
                return a + b  # replint: disable=REP013 -- keep this marker
            ''',
        )
        assert codes(lint(tmp_path)) == []

    def test_markers_in_strings_are_inert(self, tmp_path):
        write(
            tmp_path,
            "src/repro/power/docs.py",
            '''
            __all__ = ["HOWTO"]
            HOWTO = "silence a rule with  # replint: disable=REP003"
            ''',
        )
        assert codes(lint(tmp_path)) == []
