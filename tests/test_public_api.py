"""Public API surface checks: docs and exports stay honest."""

import ast
import functools
import importlib
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

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
ENV_ALLOWED = {"REPRO_WASM_ENGINE", "REPRO_TEST_WORKER_DIE"}


@functools.cache
def _source(path: Path) -> str:
    return path.read_text(encoding="utf-8")


@functools.cache
def _tree(path: Path) -> ast.Module:
    """``path`` parsed once: every guard below reads the same trees."""
    return ast.parse(_source(path))


@functools.cache
def _nodes(path: Path) -> tuple[ast.AST, ...]:
    """Every node of ``path``'s tree, walked once."""
    return tuple(ast.walk(_tree(path)))


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
        # an access names one of these, so a file without them has none
        if "environ" in _source(path) or "getenv" in _source(path)
        for name in _env_reads(_tree(path))
    }


#: defaulted parameters in ``src/repro`` that stay settable although no
#: call site passes them: physical-model constants of the MAC and the core.
#: Any other default nobody sets is a constant with extra steps - make it
#: one (or, if the scan cannot see its caller, make the parameter required).
OPTION_ALLOWED = {
    ("core5g/amf.py", "Amf.establish_session", "qos_5qi"),
    ("sched/intra.py", "ProportionalFairScheduler", "beta"),
}

#: where a call that passes an option may live
OPTION_CALLERS = ("src", "benchmarks", "examples", "tests")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(file: str, qualname: str, callee: str, fn, bound: int):
    """``(file, qualname, callee, param, position, False)`` per defaulted
    parameter of ``fn``; ``position`` is the index of the positional
    argument that fills it at a ``callee(...)`` call (``bound`` leading
    parameters are bound already: ``self``), ``None`` for a keyword-only
    one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield file, qualname, callee, arg.arg, index - bound, False
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield file, qualname, callee, arg.arg, None, False


def _name_of(node) -> str | None:
    """``f`` for ``f`` / ``x.f``, and for a call of either."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", None) or getattr(node, "id", None)


def _config_fields(file: str, cls: ast.ClassDef):
    """``(file, class, class, field, position, True)`` per public field of
    a ``@dataclass`` with a plain default.  A ``default_factory`` field is
    state, not an option; a ``ClassVar`` or ``init=False`` field is not a
    constructor parameter at all."""
    if not any(_name_of(d) == "dataclass" for d in cls.decorator_list):
        return
    position = 0
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or "ClassVar" in ast.unparse(
            item.annotation
        ):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _name_of(value) == "field":
            keywords = {k.arg for k in value.keywords}
            if "init" in keywords:
                continue
            plain = "default" in keywords
        else:
            plain = value is not None
        name = item.target.id
        if plain and not name.startswith("_"):
            yield file, cls.name, cls.name, name, position, True
        position += 1


def _options(root: Path):
    """Every defaulted parameter of a public module-level function, and of
    a public class's ``__init__`` (called as the class) and public methods,
    and every defaulted field of a public dataclass (its constructor's
    parameters); nested closures are not options of the module."""
    for path in sorted(root.rglob("*.py")):
        file = path.relative_to(root).as_posix()
        for node in _tree(path).body:
            if isinstance(node, _FUNCS) and not node.name.startswith("_"):
                yield from _defaulted(file, node.name, node.name, node, 0)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            yield from _config_fields(file, node)
            for item in node.body:
                if not isinstance(item, _FUNCS):
                    continue
                static = any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in item.decorator_list
                )
                if item.name == "__init__":
                    yield from _defaulted(file, node.name, node.name, item, 1)
                elif not item.name.startswith("_"):
                    qualname = f"{node.name}.{item.name}"
                    yield from _defaulted(
                        file, qualname, item.name, item, 0 if static else 1
                    )


def _call_sites(roots: list[Path]) -> tuple[dict[str, tuple[int, set, bool]], set]:
    """Per called name (``f(...)`` / ``x.f(...)``): the most positional
    arguments any call passes, every keyword passed, and whether any call
    unpacks ``*args`` / ``**kwargs`` (which may set anything); and every
    attribute name some code stores to (``x.f = ...``).  A call whose
    first argument names a function (``benchmark(f, 7, shrink=False)``,
    ``pool.submit(f, x)``) also counts as a call of that function with
    the arguments after it."""
    sites: dict[str, tuple[int, set, bool]] = {}
    stored = set()

    def record(name, args, keywords):
        most, passed, unpacks = sites.get(name, (0, set(), False))
        passed |= {k.arg for k in keywords}
        unpacks = unpacks or None in passed or any(
            isinstance(a, ast.Starred) for a in args
        )
        sites[name] = (max(most, len(args)), passed, unpacks)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in _nodes(path):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
                if not isinstance(node, ast.Call):
                    continue
                record(_name_of(node), node.args, node.keywords)
                if node.args and isinstance(node.args[0], (ast.Name, ast.Attribute)):
                    record(_name_of(node.args[0]), node.args[1:], node.keywords)
    return sites, stored


def _unset_options(root: Path, callers: list[Path]) -> set[tuple[str, str, str]]:
    """``(file, callable, param)`` for every option under ``root`` that no
    call under ``callers`` to a callable of the same name ever passes.  A
    dataclass field also counts as set when a ``replace(...)`` passes it
    or some code stores to it."""
    sites, stored = _call_sites(callers)
    replaced = sites.get("replace", (0, set(), False))[1]
    unset = set()
    for file, qualname, callee, param, position, field in _options(root):
        most, keywords, unpacks = sites.get(callee, (0, set(), False))
        passed = param in keywords or (position is not None and position < most)
        if field:
            passed = passed or param in replaced or param in stored
        if not (passed or unpacks):
            unset.add((file, qualname, param))
    return unset


class TestOptionSurface:
    def test_every_option_has_a_caller(self):
        import repro

        unset = _unset_options(
            Path(repro.__file__).parent, [ROOT / d for d in OPTION_CALLERS]
        )
        stray = sorted(unset - OPTION_ALLOWED)
        assert not stray, f"defaulted parameters nothing passes: {stray}"
        assert unset == OPTION_ALLOWED, "stale allow-list"

    def test_the_guard_sees_an_unset_option(self, tmp_path):
        (tmp_path / "lib.py").write_text(
            "def plan(cells, slots=10, mode='proc'):\n"
            "    return cells, slots, mode\n"
            "def spread(*cells, weight=1.0):\n"
            "    return cells, weight\n"
            "def warm(n, rounds=3):\n"
            "    return n * rounds\n"
            "class Host:\n"
            "    def __init__(self, name, fuel=100):\n"
            "        def closure(depth=0):\n"
            "            return depth\n"
            "        self.fuel = fuel\n"
            "    def tick(self, dt=1.0):\n"
            "        return dt\n"
            "    def _private(self, x=0):\n"
            "        return x\n"
        )
        (tmp_path / "use.py").write_text(
            "from lib import Host, plan, spread\n"
            "plan(4, 20)\n"
            "spread(**{'weight': 2.0})\n"
            "Host('a', fuel=5).tick()\n"
            "timed(warm, 1, rounds=5)\n"
        )
        assert _unset_options(tmp_path, [tmp_path]) == {
            ("lib.py", "plan", "mode"),
            ("lib.py", "Host.tick", "dt"),
        }

    def test_the_guard_sees_an_unset_config_field(self, tmp_path):
        (tmp_path / "spec.py").write_text(
            "from dataclasses import dataclass, field, replace\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Spec:\n"
            "    cells: int\n"
            "    slots: int = 10\n"
            "    seed: int = 0\n"
            "    mode: str = 'proc'\n"
            "    fuel: int = field(default=100)\n"
            "    depth: int = 3\n"
            "    timeout: float = 1.0\n"
            "    log: list = field(default_factory=list)\n"
            "    tags: list = field(repr=False)\n"
            "    _cache: dict = field(default=None)\n"
            "    limit: ClassVar[int] = 20\n"
            "class Plain:\n"
            "    size: int = 4\n"
        )
        (tmp_path / "use.py").write_text(
            "from spec import Spec, replace\n"
            "s = Spec(4, 20)\n"
            "s = replace(s, mode='inline')\n"
            "s.depth = 5\n"
        )
        assert _unset_options(tmp_path, [tmp_path]) == {
            ("spec.py", "Spec", "seed"),
            ("spec.py", "Spec", "fuel"),
            ("spec.py", "Spec", "timeout"),
        }

    def test_src_reads_only_allow_listed_environment_variables(self):
        import repro

        reads = _tree_env_reads(Path(repro.__file__).parent)
        stray = sorted(r for r in reads if r[1] not in ENV_ALLOWED)
        assert not stray, f"environment reads outside the allow-list: {stray}"
        assert {name for _path, name in reads} == ENV_ALLOWED, "stale allow-list"

    def test_benchmarks_read_no_environment_variable(self):
        """A bench measures the tree it is given; a bound that an
        environment variable can widen or switch off gates nothing."""
        benchmarks = ROOT / "benchmarks"
        assert (benchmarks / "gates.py").exists(), benchmarks
        assert list(benchmarks.glob("ledger/*.py")), benchmarks
        reads = _tree_env_reads(benchmarks)
        assert not reads, f"benchmarks/ reads the environment: {sorted(reads, key=str)}"


#: public callables in ``src/repro`` with no caller outside the tests:
#: each is the reference a test holds the real code path against.
#: Anything else only a test reaches goes, or gets a real caller.
CALLABLE_ALLOWED = {
    ("abi/wire.py", "unpack_sched_input"):
        "reference decoder of the scheduler input the plugins parse in Wasm",
    ("codecs/pbwire.py", "PbMessage.walk_decode"):
        "reference walker the lowered pbwire decoder must match",
    ("codecs/bitadapt.py", "FieldSpec.max_value"):
        "reference for the Wasm field adapter's range check",
    ("codecs/bitadapt.py", "narrow"):
        "reference for the Wasm field adapter's narrowing",
    ("codecs/bitadapt.py", "adapt_message"):
        "reference for the Wasm field adapter",
    ("ric/xapps.py", "native_traffic_steering"):
        "native twin the Wasm traffic-steering xApp is compared against",
    ("ric/xapps.py", "native_sla_assurance"):
        "native twin the Wasm SLA-assurance xApp is compared against",
}

#: where a reference to a callable counts as a caller (tests do not)
CALLABLE_CALLERS = ("src", "benchmarks", "examples")

WORKFLOWS = ROOT / ".github" / "workflows"


def _callables(root: Path):
    """``(file, qualname, name, first_line, last_line)`` per public
    module-level function or class under ``root`` and per public method
    or property of a public class; dunders are not public."""
    for path in sorted(root.rglob("*.py")):
        file = path.relative_to(root).as_posix()
        for node in _tree(path).body:
            if not isinstance(node, (*_FUNCS, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [
                    item for item in node.body
                    if isinstance(item, _FUNCS) and not item.name.startswith("_")
                ]
            for item in members:
                qualname = item.name if item is node else f"{node.name}.{item.name}"
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                yield file, qualname, item.name, first, item.end_lineno


def _references(roots: list[Path]) -> dict[str, list[tuple[Path, int]]]:
    """Per name, where an ``ast.Name`` / ``ast.Attribute`` mentions it.
    Import statements and ``__all__`` strings are not references."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            resolved = path.resolve()
            for node in _nodes(path):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    refs.setdefault(_name_of(node), []).append(
                        (resolved, node.lineno)
                    )
    return refs


def _workflow_words(workflows: Path) -> set[str]:
    return {
        word
        for path in sorted(workflows.glob("*.yml"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    }


def _uncalled(root: Path, callers: list[Path], workflows: Path) -> set[tuple[str, str]]:
    """``(file, qualname)`` for every public callable under ``root`` that
    nothing under ``callers`` references outside its own definition, and
    no workflow names."""
    refs = _references(callers)
    words = _workflow_words(workflows)
    uncalled = set()
    for file, qualname, name, first, last in _callables(root):
        here = (root / file).resolve()
        called = any(
            path != here or not first <= line <= last
            for path, line in refs.get(name, ())
        )
        if not (called or name in words):
            uncalled.add((file, qualname))
    return uncalled


def _cli_flags(cli: Path) -> list[tuple[str, ...]]:
    """The option strings of each ``add_argument`` call in ``cli``."""
    flags = []
    for node in _nodes(cli):
        if isinstance(node, ast.Call) and _name_of(node) == "add_argument":
            strings = tuple(
                a.value for a in node.args
                if isinstance(a, ast.Constant) and str(a.value).startswith("-")
            )
            if strings:  # a positional argument has no flag to pass
                flags.append(strings)
    return flags


_FLAG = re.compile(r"(?<![\w-])-{1,2}[A-Za-z][\w-]*")


def _flag_tokens(roots: list[Path], workflows: Path) -> set[str]:
    """Every ``-x`` / ``--flag`` word inside a string literal of a Python
    file under ``roots`` (comments do not count), or anywhere in a
    workflow."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(workflows.glob("*.yml"))]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            source = io.StringIO(_source(path))
            texts.extend(
                token.string
                for token in tokenize.generate_tokens(source.readline)
                if token.type in (tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", -1))
            )
    return {flag for text in texts for flag in _FLAG.findall(text)}


def _unpassed_flags(cli: Path, roots: list[Path], workflows: Path) -> list[tuple[str, ...]]:
    tokens = _flag_tokens(roots, workflows)
    return sorted({flags for flags in _cli_flags(cli) if not set(flags) & tokens})


#: where passing a ``repro`` flag counts as a caller
CLI_CALLERS = ("tests", "benchmarks", "examples")


class TestCallableSurface:
    def test_every_callable_has_a_caller(self):
        import repro

        uncalled = _uncalled(
            Path(repro.__file__).parent,
            [ROOT / d for d in CALLABLE_CALLERS],
            WORKFLOWS,
        )
        stray = sorted(uncalled - set(CALLABLE_ALLOWED))
        assert not stray, f"public callables only tests reach: {stray}"
        assert uncalled == set(CALLABLE_ALLOWED), "stale allow-list"

    def test_the_guard_sees_an_uncalled_callable(self, tmp_path):
        src, tests, workflows = (tmp_path / d for d in ("src", "tests", "wf"))
        for d in (src, tests, workflows):
            d.mkdir()
        (src / "__init__.py").write_text(
            "from lib import Host, helper, orphan\n"
            "__all__ = ['Host', 'helper', 'orphan']\n"
        )
        (src / "lib.py").write_text(
            "def helper():\n"
            "    return 1\n"
            "def orphan():\n"
            "    return orphan()\n"
            "def soak():\n"
            "    return 2\n"
            "class Host:\n"
            "    def __init__(self):\n"
            "        self.n = helper()\n"
            "    def run(self):\n"
            "        return self.n\n"
            "    def drain(self):\n"
            "        return 0\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def _private(self):\n"
            "        return 0\n"
        )
        (src / "use.py").write_text("from lib import Host\nHost().run()\n")
        (tests / "test_lib.py").write_text(
            "from lib import Host, orphan\nHost().drain()\nHost().size\norphan()\n"
        )
        (workflows / "ci.yml").write_text("run: python -c 'import lib; lib.soak()'\n")
        assert _uncalled(src, [src], workflows) == {
            ("lib.py", "orphan"),
            ("lib.py", "Host.drain"),
            ("lib.py", "Host.size"),
        }


class TestCliFlagSurface:
    def test_every_cli_flag_has_a_caller(self):
        import repro

        unpassed = _unpassed_flags(
            Path(repro.__file__).parent / "cli.py",
            [ROOT / d for d in CLI_CALLERS],
            WORKFLOWS,
        )
        assert not unpassed, f"repro flags nothing passes: {unpassed}"

    def test_the_guard_sees_an_unpassed_flag(self, tmp_path):
        (tmp_path / "wf").mkdir()
        (tmp_path / "wf" / "ci.yml").write_text("run: repro scale --workers=4\n")
        (tmp_path / "cli.py").write_text(
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('source')\n"
            "p.add_argument('-o', '--output')\n"
            "p.add_argument('--workers', type=int)\n"
            "p.add_argument('--spare-knob', type=int)\n"
            "p.add_argument('--no-frobnicate', action='store_true')\n"
            "p.add_argument('--frobnicate-all', action='store_true')\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_cli.py").write_text(
            "# --spare-knob is not passed by a comment\n"
            "main(['x.wc', '-o', 'x.wasm'])\n"
            "run(f'repro --frobnicate-all {x}')\n"
        )
        assert _unpassed_flags(
            tmp_path / "cli.py", [tmp_path / "tests"], tmp_path / "wf"
        ) == [("--no-frobnicate",), ("--spare-knob",)]


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
        for node in _nodes(path):
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
        for node in _nodes(path)
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
            "    return bundle.flight.records()[-1]\n"
        )
        assert _flight_assigners(tmp_path) == {"replay/bench.py"}


def _walker_users(root: Path) -> set[str]:
    """Files under ``root`` that name the reference pbwire walker at all."""
    return {
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        for node in _nodes(path)
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

        assert list(_env_reads(_tree(Path(pbwire.__file__)))) == []

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


#: per-engine ledger rows: their suffix names a Wasm engine
LEDGER_ENGINE_ROWS = ("wasm.exec_us.", "wasm.load_cold_us.", "wasm.fuel_per_us.")


def _ledger_engines() -> list[str]:
    """Every engine a per-engine row of ``BENCHMARK.json`` names."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = [r["name"] for r in doc["end_to_end"] + doc["per_layer"]]
    return sorted({
        row[len(prefix):]
        for row in rows
        for prefix in LEDGER_ENGINE_ROWS
        if row.startswith(prefix)
    })


class TestLedgerEngines:
    """An engine goes only after the benchmark stops measuring it: a
    per-engine row whose engine is gone would fail the ledger as failed
    operations, so it fails tier-1 first."""

    def test_the_benchmark_names_engines(self):
        assert "aot" in _ledger_engines()

    @pytest.mark.parametrize("engine", _ledger_engines())
    def test_every_ledger_engine_loads_a_scheduler(self, engine):
        from repro.abi import SchedulerPlugin
        from repro.plugins import plugin_wasm
        from repro.sched import UeSchedInfo
        from repro.wasm.threaded import ENGINES, resolve_engine

        assert engine in ENGINES
        assert resolve_engine(engine) == engine
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), engine=engine)
        ues = [UeSchedInfo(1, 28, 15, 100_000, 5e6)]
        assert plugin.schedule(52, ues, slot=0).grants


#: the documents whose backticked names must exist
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "docs/*.md")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
_TREE_PATH = re.compile(r"(?<![\w./-])(?:benchmarks|src|tests|examples|docs)/[\w./*-]*")


def _resolves(dotted: str) -> bool:
    """``repro.a.b.c`` imports as a module prefix plus attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _stale_doc_names(root: Path) -> list[tuple[str, str]]:
    """``(doc, name)`` per backticked ``repro.…`` name that does not
    resolve and per backticked tree path that does not exist; what a run
    writes under an ``out/`` directory is exempt."""
    stale = []
    for doc in sorted({p for pattern in DOCS for p in root.glob(pattern)}):
        for span in re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8")):
            name = doc.relative_to(root).as_posix()
            stale += [(name, d) for d in _DOTTED.findall(span) if not _resolves(d)]
            for path in _TREE_PATH.findall(span):
                path = path.rstrip(".")
                exists = any(root.glob(path)) if "*" in path else (root / path).exists()
                if not (exists or "out/" in path):
                    stale.append((name, path))
    return stale


class TestDocs:
    def test_docs_name_only_what_exists(self):
        stale = _stale_doc_names(ROOT)
        assert not stale, f"docs name what does not exist: {stale}"

    def test_the_guard_sees_a_stale_name(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text("")
        (tmp_path / "DESIGN.md").write_text(
            "`repro.metrics.LogHistogram` and `repro.metrics.reservoir`,\n"
            "`repro.ran` in `tests/test_x.py`, `tests/test_*.py`,\n"
            "`benchmarks/bench_gone.py` and `benchmarks/out/run.json`.\n"
        )
        (tmp_path / "docs" / "X.md").write_text("`repro.wasm.load_module(raw)`\n")
        assert _stale_doc_names(tmp_path) == [
            ("DESIGN.md", "repro.metrics.reservoir"),
            ("DESIGN.md", "repro.ran"),
            ("DESIGN.md", "benchmarks/bench_gone.py"),
        ]


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
