"""What code outside the package relies on: the names that the benchmark's
per-layer tracer wraps, and the library example in README."""

import importlib.util
import re
from pathlib import Path

import gkmkit

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    """``perfbench/tracing.py`` as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer reads each name as an attribute of a gkmkit submodule, so
    # a moved or deleted name would only show as a traceback in a traced run
    importlib.import_module("gkmkit.cli")
    missing = []
    for mod_name, attr, _metric, _spans in load_tracing().WRAPPED:
        module = getattr(gkmkit, mod_name, None)
        if module is None or not callable(getattr(module, attr, None)):
            missing.append(f"gkmkit.{mod_name}.{attr}")
    if not callable(getattr(gkmkit.model.FixedPointData, "point", None)):
        missing.append("gkmkit.model.FixedPointData.point")
    assert not missing, missing


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
