import os

# The CLI tests start `python -m hyperfold.cli` in child processes; give
# them the source tree these tests import, not whatever is installed.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
