"""Public API surface checks: docs and exports stay honest."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.wasm",
    "repro.wacc",
    "repro.abi",
    "repro.codecs",
    "repro.cryptolite",
    "repro.metrics",
    "repro.obs",
    "repro.phy",
    "repro.channel",
    "repro.traffic",
    "repro.sched",
    "repro.gnb",
    "repro.core5g",
    "repro.netio",
    "repro.e2",
    "repro.ric",
    "repro.plugins",
    "repro.hostsim",
    "repro.experiments",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_importable_with_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            if package == "repro":
                importlib.import_module(f"repro.{name}")
            else:
                assert hasattr(module, name), f"{package}.__all__ lists {name}"

    def test_version(self):
        import repro

        assert repro.__version__


#: every environment variable ``src/repro`` may read.  Each one is an
#: option the tests, the oracle and the ledger have to cover: a new knob
#: needs two existing callers that want different values (else it is a
#: constant), and then a line here.
ENV_ALLOWED = {"REPRO_WASM_ENGINE", "REPRO_CHAOS", "REPRO_TEST_WORKER_DIE"}


def _env_reads(tree: ast.AST):
    """The variable name at each environment access in ``tree``; ``None``
    where it is not a string literal (a dynamic key, ``dict(os.environ)``)."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name not in ("environ", "environb", "getenv", "getenvb"):
            continue
        parent = parents[node]
        key = None
        if isinstance(parent, ast.Subscript) and parent.value is node:
            key = parent.slice  # os.environ["X"]
        elif isinstance(parent, ast.Call) and parent.func is node:
            key = parent.args[0] if parent.args else None  # os.getenv("X")
        elif isinstance(parent, ast.Attribute) and parent.value is node:
            call = parents.get(parent)  # os.environ.get("X") / .pop / ...
            if isinstance(call, ast.Call) and call.func is parent and call.args:
                key = call.args[0]
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        yield key.value if literal else None


def _tree_env_reads(root: Path) -> set[tuple[str, str | None]]:
    """``(file, variable)`` for every environment access under ``root``."""
    return {
        (str(path.relative_to(root)), name)
        for path in sorted(root.rglob("*.py"))
        for name in _env_reads(ast.parse(path.read_text(encoding="utf-8")))
    }


class TestOptionSurface:
    def test_src_reads_only_allow_listed_environment_variables(self):
        import repro

        reads = _tree_env_reads(Path(repro.__file__).parent)
        stray = sorted(r for r in reads if r[1] not in ENV_ALLOWED)
        assert not stray, f"environment reads outside the allow-list: {stray}"
        assert {name for _path, name in reads} == ENV_ALLOWED, "stale allow-list"

    def test_benchmarks_read_no_environment_variable(self):
        """A bench measures the tree it is given; a bound that an
        environment variable can widen or switch off gates nothing."""
        benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
        assert list(benchmarks.glob("bench_*.py")), benchmarks
        reads = _tree_env_reads(benchmarks)
        assert not reads, f"benchmarks/ reads the environment: {sorted(reads, key=str)}"


#: the files under ``src/repro`` that may call ``decode_module`` or
#: ``validate_module`` themselves.  Everyone else takes a ``Module`` or
#: calls ``repro.wasm.load_module``: a private decode -> validate preamble
#: in front of a plugin load is a millisecond per swap.
DECODE_VALIDATE_ALLOWED = {
    "wasm/loader.py",  # load_module: the one place bytes become a checked Module
    "wasm/instance.py",  # Instance(validate=True), the safe default
    # the differential fuzzer decodes mutants it expects to be invalid,
    # validates candidates it built itself, and shrinks on the Module
    "fuzz/corpus.py",
    "fuzz/gen.py",
    "fuzz/mutate.py",
    "fuzz/oracle.py",
    "fuzz/shrink.py",
    "replay/bench.py",  # stub_hostfuncs reads a corpus binary's import section
}


#: the files under ``src/repro`` that may hand bytes to ``load_module``
#: and so receive the one kept, *shared* ``Module`` of a binary.  Each
#: only reads it.  Code that edits modules (the fuzz mutators, the
#: shrinker) decodes its own copy with ``decode_module`` and must never
#: appear here.
LOAD_MODULE_ALLOWED = {
    "abi/host.py",  # PluginHost._load_module: every plugin load and swap
    "abi/sanitizer.py",  # sanitize_plugin
    "cli.py",  # repro wat: checks what it just assembled
    "wasm/aot.py",  # dump_aot
    "wasm/threaded.py",  # dump_threaded
    "wasm/disasm.py",  # disassemble (validate=False: bypasses the table)
}


def _callers_of(root: Path, names: tuple[str, ...]) -> set[str]:
    """Files under ``root`` with a call of any function in ``names``."""
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in names:
                callers.add(path.relative_to(root).as_posix())
    return callers


def _decode_validate_callers(root: Path) -> set[str]:
    return _callers_of(root, ("decode_module", "validate_module"))


class TestOneLoadPath:
    def test_only_allow_listed_files_decode_or_validate(self):
        import repro

        callers = _decode_validate_callers(Path(repro.__file__).parent)
        stray = sorted(callers - DECODE_VALIDATE_ALLOWED)
        assert not stray, f"decode/validate calls outside the allow-list: {stray}"
        assert callers == DECODE_VALIDATE_ALLOWED, "stale allow-list"

    def test_the_guard_sees_a_new_preamble(self, tmp_path):
        (tmp_path / "abi").mkdir()
        (tmp_path / "abi" / "host.py").write_text(
            "from repro.wasm import decode_module\n"
            "def _load(raw):\n"
            "    return decode_module(raw)\n"
        )
        (tmp_path / "abi" / "takes_a_module.py").write_text(
            "from repro.wasm import decode_module, load_module\n"
            "def _load(raw):\n"
            "    return load_module(raw)\n"
        )
        assert _decode_validate_callers(tmp_path) == {"abi/host.py"}

    def test_only_allow_listed_files_load_bytes(self):
        import repro

        callers = _callers_of(Path(repro.__file__).parent, ("load_module",))
        stray = sorted(callers - LOAD_MODULE_ALLOWED)
        assert not stray, f"load_module calls outside the allow-list: {stray}"
        assert callers == LOAD_MODULE_ALLOWED, "stale allow-list"

    def test_the_guard_sees_a_shared_module_reaching_the_fuzzer(self, tmp_path):
        (tmp_path / "fuzz").mkdir()
        (tmp_path / "fuzz" / "mutate.py").write_text(
            "from repro import wasm\n"
            "def mutant(raw):\n"
            "    module = wasm.load_module(raw)\n"
            "    module.start = None\n"
            "    return module\n"
        )
        (tmp_path / "fuzz" / "shrink.py").write_text(
            "from repro.wasm import decode_module, load_module\n"
            "def shrink(raw):\n"
            "    return decode_module(raw)\n"
        )
        assert _callers_of(tmp_path, ("load_module",)) == {"fuzz/mutate.py"}


#: the files under ``src/repro`` that may install a flight recorder into
#: a telemetry bundle: the bundle itself and the two sites that *are*
#: recording.  Anything else reads a call's report from the call
#: (``PluginCallResult`` / ``PluginError.result``) and leaves the
#: process-wide recorder alone.
FLIGHT_ASSIGN_ALLOWED = {
    "obs/__init__.py",  # Observability.__init__
    "replay/record.py",  # repro record: capture-mode recorder for one workload
    "cluster/worker.py",  # spec.capture: a worker's capture-mode recorder
}


def _flight_assigners(root: Path) -> set[str]:
    """Files under ``root`` that store to a ``.flight`` attribute."""
    return {
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "flight"
        and isinstance(node.ctx, ast.Store)
    }


class TestOneRecorderOwner:
    def test_only_allow_listed_files_assign_the_flight_recorder(self):
        import repro

        assigners = _flight_assigners(Path(repro.__file__).parent)
        stray = sorted(assigners - FLIGHT_ASSIGN_ALLOWED)
        assert not stray, f"flight-recorder swaps outside the allow-list: {stray}"
        assert assigners == FLIGHT_ASSIGN_ALLOWED, "stale allow-list"

    def test_the_guard_sees_a_new_swap(self, tmp_path):
        (tmp_path / "replay").mkdir()
        (tmp_path / "replay" / "bench.py").write_text(
            "def session(bundle, recorder):\n"
            "    prev, bundle.flight = bundle.flight, recorder\n"
            "    return prev\n"
        )
        (tmp_path / "replay" / "reads_only.py").write_text(
            "def last(bundle):\n"
            "    return bundle.flight.last(1)\n"
        )
        assert _flight_assigners(tmp_path) == {"replay/bench.py"}


def _walker_users(root: Path) -> set[str]:
    """Files under ``root`` that name the reference pbwire walker at all."""
    return {
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (getattr(node, "attr", None) or getattr(node, "id", None)
            or getattr(node, "name", None)) in ("walk_encode", "walk_decode")
    }


class TestOnePbwirePath:
    """``PbMessage.encode`` / ``.decode`` run the lowered functions, always:
    the generic walker is only what the tests compare them against."""

    def test_nothing_in_src_reaches_the_walker(self):
        import repro

        assert _walker_users(Path(repro.__file__).parent) == {"codecs/pbwire.py"}

    def test_pbwire_reads_no_environment_variable(self):
        import repro.codecs.pbwire as pbwire

        tree = ast.parse(Path(pbwire.__file__).read_text(encoding="utf-8"))
        assert list(_env_reads(tree)) == []

    def test_the_guard_sees_a_fallback(self, tmp_path):
        (tmp_path / "e2").mkdir()
        (tmp_path / "e2" / "vendors.py").write_text(
            "def decode(schema, payload, slow=False):\n"
            "    return (schema.walk_decode if slow else schema.decode)(payload)\n"
        )
        (tmp_path / "e2" / "comm.py").write_text(
            "def decode(schema, payload):\n"
            "    return schema.decode(payload)\n"
        )
        assert _walker_users(tmp_path) == {"e2/vendors.py"}


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The exact code from README.md's quickstart section."""
        from repro.abi import SchedulerPlugin, sanitize_plugin
        from repro.plugins import plugin_wasm
        from repro.sched import UeSchedInfo

        wasm = plugin_wasm("pf")
        sanitize_plugin(wasm)
        plugin = SchedulerPlugin.load(wasm)

        ues = [UeSchedInfo(ue_id=1, mcs=28, cqi=15, buffer_bytes=100_000,
                           avg_tput_bps=5e6)]
        call = plugin.schedule(52, ues, slot=0)
        assert call.grants and call.elapsed_us > 0 and call.fuel_used

        assert plugin.swap(plugin_wasm("rr")) == 1

    def test_package_docstring_snippet_runs(self):
        from repro.abi import SchedulerPlugin
        from repro.plugins import plugin_wasm
        from repro.sched import UeSchedInfo

        plugin = SchedulerPlugin.load(plugin_wasm("pf"))
        ues = [UeSchedInfo(1, 28, 15, 100_000, 5e6)]
        assert plugin.schedule(52, ues, slot=0).grants
