"""The package namespace, the README's documented examples, and the rule
that every public function of the package runs in some CLI command or
README example."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import trivol
from trivol import cli

from testutil import CUBE, OCTA, as_json, trivol_calls

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
LAYERS = ROOT / "bench" / "layers.py"

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


def run_readme_examples():
    """Run the README's python blocks in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_python_examples_run_as_documented(capsys):
    run_readme_examples()
    lines = capsys.readouterr().out.splitlines()
    # quick start: formula, pipeline, agreement, intermediates; then the oracle
    assert len(lines) == 5
    assert lines[:3] == ["5/24", "5/24", "True"]
    assert lines[4] == "5/24"


# Public functions that no CLI run or README example reaches, each with
# its reason to stay in the package.
ALLOWED_UNREACHED = {
    "oracle.monte_carlo_volume": "acceptance criterion 10, the one inexact estimator",
    "cli.run": "the console script; CI runs the installed entry point",
    "geometry.Tetrahedron.__post_init__": "direct construction must enforce positive orientation",
    "mixed_volume.VolumeCubic.value_at": "acceptance criterion 6 evaluates the cubic with it",
}
# Public functions that bench/layers.py's TARGETS rebinds by name, so they
# stay while the benchmark times them; once TARGETS drops one, it goes.
BENCH_TARGETS = (
    "geometry.facet_normal_set",
    "geometry.tetra_volume",
    "geometry.hull_volume_3d",
    "trilinear.build_Q",
    "trilinear.build_R",
    "trilinear.integrate_cross_sections",
    "trilinear.hull_volume_formula",
    "mixed_volume.mixed_volume_against",
    "mixed_volume.minkowski_sum_vertices",
    "mixed_volume.fit_cubic",
)

SWEEP = {"a1": [0, 1], "b1": [2], "a2": ["1/2"], "b2": [3], "a3": [0, 2], "b3": [4]}
FLAT = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]


def public_functions():
    """Every public function defined in a trivol module, by its name in
    that module, and the public methods, properties and ``__post_init__``
    of its public classes, each with the code object that runs; a
    decorated function (a ``verify`` suite) counts by the function it wraps."""
    modules = [trivol] + [
        importlib.import_module(f"trivol.{info.name}") for info in pkgutil.iter_modules(trivol.__path__)
    ]
    found = {}
    for module in modules:
        prefix = module.__name__.removeprefix("trivol").lstrip(".")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found[f"{prefix}.{name}"] = inspect.unwrap(value).__code__
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if attr.startswith("_") and attr != "__post_init__":
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        found[f"{prefix}.{name}.{attr}"] = member.__code__
    return found


def bench_targets():
    """``module.function`` for each entry of ``TARGETS`` in bench/layers.py,
    read from its source rather than imported."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            targets = ast.literal_eval(node.value)
            return {f"{module}.{name}" for module, names in targets.items() for name in names}
    raise AssertionError(f"no TARGETS in {LAYERS}")


def test_every_public_function_is_reached(tmp_path, capsys):
    """Nine CLI runs and the README's python examples reach every public
    function of the package but those the allow-lists above name."""
    grid, bodies, flat = (tmp_path / name for name in ("grid.json", "bodies.json", "flat.json"))
    grid.write_text(json.dumps(SWEEP))
    bodies.write_text(json.dumps({"k": as_json(CUBE), "l": as_json(OCTA)}))
    flat.write_text(json.dumps({"k": FLAT, "l": as_json(OCTA)}))
    runs = [
        (["volume", "--bounds", "1,4,2,5,3,7"], 0),
        (["volume", "--bounds", "0,1,0,1,0,1", "--method", "oracle"], 0),
        (["volume", "--bounds", "1/2,1,0,3/2,1/3,2", "--method", "pipeline"], 0),
        (["verify", "--trials", "3", "--seed", "0"], 0),
        (["sweep", "--file", str(grid)], 0),
        (["sweep", "--file", str(grid), "--float"], 0),
        (["mixed-volume", "--file", str(bodies)], 0),
        (["mixed-volume", "--file", str(flat)], 2),
        (["normalize", "--bounds", "1,2,2,4,0,1"], 0),
    ]

    def run_all():
        for argv, code in runs:
            assert cli.main(argv) == code, argv
        run_readme_examples()

    reached = trivol_calls(run_all).keys()
    capsys.readouterr()
    public = public_functions()
    allowed = {*ALLOWED_UNREACHED, *BENCH_TARGETS}
    unreached = {name for name, code in public.items() if code not in reached}
    checks = [
        ("public but reached by no CLI run or README example", unreached - allowed),
        ("allow-listed but not a public function", allowed - public.keys()),
        ("allow-listed for bench/ but not in its TARGETS", set(BENCH_TARGETS) - bench_targets()),
        ("allow-listed but reached", allowed & public.keys() - unreached),
    ]
    for what, names in checks:
        assert not names, f"{what}: {', '.join(sorted(names))}"
