"""The package runs on the standard library alone: every import is relative
or of a standard-library module, and the project declares no dependencies.
A third-party import would add its load time to every CLI process. The CLI
imports only public names from the package, so each rule it relies on lives
behind one module's public interface. No module reads the environment, so a
command's output depends on its arguments and input files alone. Each
module's ``__all__`` is the only list of its public names: the package
re-exports those lists. A process loads only what its command runs: no
module imports ``dataclasses``, ``chart`` loads only where a command draws
svg, and ``oracle`` only for ``oracle-check`` or on first use of one of its
names through the package."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import citerhythm

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "citerhythm").rglob("*.py"))


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        f"line {line}: {name}"
        for line, name in _imported_modules(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


API_MODULES = ("pcmatrix", "rhythm", "collective", "ingest", "oracle", "errors")


def test_package_api_is_the_modules_lists():
    lists = [importlib.import_module(f"citerhythm.{name}").__all__ for name in API_MODULES]
    expected = ["__version__", *(n for names in lists for n in names)]
    assert citerhythm.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", [*API_MODULES, "chart"])
def test_module_api_is_defined_in_that_module(name):
    module = importlib.import_module(f"citerhythm.{name}")
    objects = [getattr(module, n) for n in module.__all__]
    foreign = [
        f"{obj.__name__} from {obj.__module__}"
        for obj in objects
        if isinstance(obj, (type, types.FunctionType)) and obj.__module__ != module.__name__
    ]
    assert foreign == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"line {line}: {name}"
        for line, name in _imported_modules(tree)
        if name.partition(".")[0] == "dataclasses"
    ]
    assert found == []


@pytest.mark.parametrize("name", [*API_MODULES, "chart"])
def test_public_classes_have_their_own_docstring(name):
    module = importlib.import_module(f"citerhythm.{name}")
    classes = [obj for obj in map(vars(module).get, module.__all__) if isinstance(obj, type)]
    bare = [c.__name__ for c in classes if not c.__doc__ or c.__doc__.startswith(c.__name__ + "(")]
    assert bare == []


def _probe(code: str, *argv: str) -> list[str]:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


def test_package_import_leaves_oracle_unloaded():
    probe = "import sys, citerhythm; print('citerhythm.oracle' in sys.modules)"
    assert _probe(probe) == ["False"]


@pytest.mark.parametrize(
    "use",
    [
        "from citerhythm import CorpusSpec",
        "names = citerhythm.__all__",
        "names = dir(citerhythm)",
        "from citerhythm import *",
        "module = citerhythm.oracle",
    ],
)
def test_first_use_of_an_oracle_name_loads_the_oracle(use):
    probe = (
        "import sys, citerhythm; before = 'citerhythm.oracle' in sys.modules; "
        f"{use}; after = 'citerhythm.oracle' in sys.modules; "
        "from citerhythm import oracle; "
        "served = all(n in citerhythm.__all__ and n in dir(citerhythm) "
        "and getattr(citerhythm, n) is getattr(oracle, n) for n in oracle.__all__); "
        "print(before, after, served)"
    )
    assert _probe(probe) == ["False", "True", "True"]


def test_unknown_package_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        citerhythm.no_such_name
    with pytest.raises(AttributeError, match="__no_such_name__"):
        citerhythm.__no_such_name__


def test_package_import_leaves_chart_unloaded():
    probe = "import sys, citerhythm; print('citerhythm.chart' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["False"]


FIXTURES = ROOT / "src" / "citerhythm" / "fixtures"
COMMANDS = {
    "internal": ["internal", str(FIXTURES / "china.csv")],
    "external": ["external", str(FIXTURES / "scim.manifest"), "--actor", "china"],
    "compare": ["compare", str(FIXTURES / "scim.manifest"), "--a", "china", "--b", "brazil"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "svg"])
@pytest.mark.parametrize("command", COMMANDS)
def test_only_svg_output_loads_chart(tmp_path, command, fmt):
    probe = (
        "import sys; from citerhythm.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'citerhythm.chart' in sys.modules)"
    )
    argv = COMMANDS[command] + ["--format", fmt, "--out", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["0", str(fmt == "svg")]


ALL_COMMANDS = {
    "validate": ["validate", str(FIXTURES / "scim.manifest")],
    **COMMANDS,
    "windows": ["windows", str(FIXTURES / "china.csv"), "--width", "5"],
    "oracle-check": ["oracle-check", str(FIXTURES / "scim.manifest"), "--trials", "1"],
}


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_only_oracle_check_loads_the_oracle(command):
    probe = (
        "import sys; from citerhythm.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'citerhythm.oracle' in sys.modules)"
    )
    out = _probe(probe, *ALL_COMMANDS[command])
    assert out[-2:] == ["0", str(command == "oracle-check")]


def test_cli_imports_only_public_names():
    path = ROOT / "src" / "citerhythm" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        # Dunder names such as __version__ are public.
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [
        f"line {node.lineno}: os.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        and node.attr in _ENVIRONMENT_READERS
    ]
    reads += [
        f"line {node.lineno}: from os import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names
        if alias.name in _ENVIRONMENT_READERS
    ]
    assert reads == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"].get("dependencies", []) == []
