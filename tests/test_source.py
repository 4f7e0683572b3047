"""The package's source stays within the Python it declares it needs."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, and tier-1 runs on a
    # newer interpreter, so syntax only it knows, such as except*, would
    # pass unseen
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    modules = sorted((ROOT / "src" / "hyperfold").glob("*.py"))
    assert modules
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
