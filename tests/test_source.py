"""The package's source stays within the Python it declares it needs, and every
code name its documentation cites exists."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

from hyperfold.selftest import LAWS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, and tier-1 runs on a
    # newer interpreter, so syntax only it knows, such as except*, would
    # pass unseen; the suite itself is meant to run on each of them too
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    package = sorted((ROOT / "src" / "hyperfold").glob("*.py"))
    suite = sorted((ROOT / "tests").glob("*.py"))
    assert package and suite
    modules = package + suite
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(item) for item in node.value.elts}
    return set()


def test_every_import_is_used():
    # a name a module imports and never reads is dead code that no test
    # would otherwise notice; re-exports are listed in __all__
    for path in sorted((ROOT / "src" / "hyperfold").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = {
            f"{name} (line {line})"
            for name, line in _imported_names(tree).items()
            if name not in used | _exported_names(tree)
        }
        assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def _other_interpreters() -> dict[tuple[int, int], pathlib.Path]:
    """Each other CPython >= 3.10 installed beside the running one, by
    version: ``bin/python3`` of each install next to its prefix, and
    ``bin/python3.N`` in its own."""
    prefix = pathlib.Path(sys.base_prefix)
    candidates = [*prefix.parent.glob("*/bin/python3"), *prefix.glob("bin/python3.*")]
    found = {}
    for exe in sorted(candidates):
        if not re.fullmatch(r"python3(\.\d+)?", exe.name):
            continue
        probe = [exe, "-c", "import sys; print(*sys.version_info[:2])"]
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            version = tuple(map(int, proc.stdout.split()))
            if version >= (3, 10) and version != sys.version_info[:2]:
                found.setdefault(version, exe)
    return found


def _run_cli(exe, *args):
    return subprocess.run(
        [exe, "-m", "hyperfold.cli", *args], capture_output=True, text=True, timeout=60
    )


def test_the_package_runs_on_every_python_it_declares():
    # tier-1 runs on one interpreter; every other one installed beside it
    # that requires-python admits runs the full selftest and the deepest
    # fold (1,200 nested closures), with the output of this one
    others = _other_interpreters()
    if not others:
        pytest.skip(f"no other CPython >= 3.10 is installed beside {sys.base_prefix}")
    deepest = ("--form", "primitive", "eval", "knuth(2,1200,1)")
    want = _run_cli(sys.executable, *deepest)
    assert (want.returncode, want.stdout.splitlines()[0]) == (0, "2")
    for version, exe in sorted(others.items()):
        selftest = _run_cli(exe, "selftest", "full")
        passed = f"{len(LAWS)} passed, 0 failed\n"
        assert (selftest.returncode, selftest.stdout) == (0, passed), version
        got = _run_cli(exe, *deepest)
        assert (got.returncode, got.stdout) == (0, want.stdout), (version, got.stderr)


_PACKAGE = ROOT / "src" / "hyperfold"
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")


def _resolve(name: str, namespace: dict):
    """The object a dotted ``name`` denotes: its first part looked up in
    ``namespace`` if there, else the longest importable module prefix;
    every later part by ``getattr``."""
    parts = name.split(".")
    if parts[0] in namespace:
        obj, rest = namespace[parts[0]], parts[1:]
    else:
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            rest = parts[cut:]
            break
        else:
            raise AttributeError(name)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def _readme_names() -> set[str]:
    """Each backticked dotted name in README.md that starts with a package
    module or ``Meter.``, without any call arguments."""
    starts = "|".join(["hyperfold", "Meter", *map(re.escape, _MODULES)])
    pattern = re.compile(rf"`((?:{starts})(?:\.\w+)+)[^`]*`")
    return set(pattern.findall((ROOT / "README.md").read_text()))


def test_every_code_name_the_readme_cites_exists():
    # a rename leaves the prose behind unless something reads it
    namespace = {m: importlib.import_module(f"hyperfold.{m}") for m in _MODULES}
    namespace["Meter"] = namespace["budget"].Meter
    names = _readme_names()
    assert {"hyperops._tower", "Meter.successor", "budget.mul_run"} <= names
    missing = set()
    for name in sorted(names):
        try:
            _resolve(name, namespace)
        except AttributeError:
            missing.add(name)
    assert not missing, f"README.md cites {sorted(missing)}, which do not exist"


_ROLE = re.compile(r":(?:func|meth|class|data|mod):`~?([\w.]+)`")


def _enclosing_classes(tree: ast.Module) -> dict[int, str]:
    """The innermost class around each line of a module, by line number
    (``ast.walk`` reaches a class after the class around it)."""
    return {
        line: node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_every_cross_reference_in_the_package_exists():
    # each :func:, :meth:, :class:, :data: and :mod: role resolves from the
    # module that writes it; a bare method name, on the class around it
    cited = 0
    missing = []
    for path in sorted(_PACKAGE.glob("*.py")):
        name = f"hyperfold.{path.stem}".removesuffix(".__init__")
        module = importlib.import_module(name)
        text = path.read_text()
        classes = _enclosing_classes(ast.parse(text))
        for match in _ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            namespace = vars(module)
            if line in classes:
                namespace = {**vars(getattr(module, classes[line])), **namespace}
            try:
                _resolve(match[1], namespace)
            except AttributeError:
                missing.append(f"{path.name}:{line} {match[1]}")
            cited += 1
    assert cited > 60
    assert not missing, f"cross-references to nothing: {missing}"
