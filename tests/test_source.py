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
