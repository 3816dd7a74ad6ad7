"""The package namespace and the README's documented examples."""

import re
from pathlib import Path
from types import ModuleType

import trivol

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "Box3Bounds",
    "DegenerateHull",
    "DegenerateTetrahedron",
    "EmptyPolytope",
    "InternalDisagreement",
    "InvalidBounds",
    "OmegaViolated",
    "TrivolError",
    "VolumeReport",
    "__version__",
    "closed_form_volume",
    "extreme_points",
    "hull_volume_4d",
    "parse_rational",
    "pipeline_volume",
]


def test_package_namespace_is_the_public_api():
    assert sorted(trivol.__all__) == PUBLIC
    namespace = {}
    exec("from trivol import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(trivol, name)
    # nothing else public sits in the package beside its submodules
    extra = {
        name
        for name, value in vars(trivol).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert extra == set(PUBLIC) - {"__version__"}


def test_readme_python_examples_run_as_documented(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    # quick start: formula, pipeline, agreement, intermediates; then the oracle
    assert len(lines) == 5
    assert lines[:3] == ["5/24", "5/24", "True"]
    assert lines[4] == "5/24"
