"""Run the mutant catalogue: every planted fault below must fail a test.

Each entry of ``MUTANTS`` is (file, exact old text, new text, tests): a
fault that a past change showed some test catches, and the pytest node
ids that catch it. For each entry the script copies ``src``, ``tests``
and ``pyproject.toml`` to a fresh temporary directory, replaces the old
text, which must occur exactly once in the file, by the new one there,
and runs ``python -m pytest -x`` on the entry's tests from that
directory. It runs there, not from the checkout, because pyproject's
``pythonpath = ["src"]`` puts the rootdir's ``src`` first on the path: a
run from the checkout would test the unmutated code, and every mutant
would survive.

A mutant is killed when pytest exits nonzero; the exit code is reported.
First the tests of all entries run once on an unmutated copy and
must pass, so that a kill means the fault, not a broken test. The run
fails if an entry's old text does not occur exactly once, or if a
mutant survives. A survivor stays in the table until a test catches it.

usage: python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MV = "src/trivol/mixed_volume.py"
GEO = "src/trivol/geometry.py"
TRI = "src/trivol/trilinear.py"
T_MV = "tests/test_mixed_volume.py::"
T_GEO = "tests/test_geometry.py::"
T_CERT = "tests/test_certificate.py::"
T_TRI = "tests/test_trilinear.py::"

# (file, exact old text, new text, tests that must fail)
MUTANTS = [
    # K + L: the pair id's stride is the number of points of L
    (MV, "    n = len(il)\n", "    n = len(ik)\n", [T_MV + "test_volume_cubic_cube_plus_octahedron"]),
    # a vertex's pair is placed from the same stride
    (
        MV,
        "(divmod(p, len(il)) for p in vertices)",
        "(divmod(p, len(ik)) for p in vertices)",
        [T_MV + "test_volume_cubic_cube_plus_octahedron"],
    ),
    # a face of L along a normal of K keeps every top point, not the last
    (
        MV,
        "        if hi is None or d > hi:\n            hi, top = d, [i]",
        "        if hi is None or d >= hi:\n            hi, top = d, [i]",
        [T_MV + "test_sum_facets_match_the_scan_of_the_sums"],
    ),
    # the joint lattice takes the distinct points _hull3 read, not the raw body
    (
        MV,
        "            hulls.append(_hull3(body))",
        "            hulls.append((body, *_hull3(body)[1:]))",
        [T_MV + "test_volume_cubic_with_extra_points_matches_minkowskis_formula"],
    ),
    # the failure message's bottom face is taken along -n
    (
        MV,
        "_top_face(placed, (-n0, -n1, -n2))",
        "_top_face(placed, (n0, n1, n2))",
        [T_MV + "test_check_planes_on_real_and_planted_facets"],
    ),
    # the support check at t = 2 and 3 is not run
    (
        MV,
        "            _check_planes(placed, facets, t)\n",
        "            pass\n",
        [T_MV + "test_volume_cubic_plane_check_catches_a_mis_mapped_vertex_pair"],
    ),
    # c1's forward-difference weight 18 becomes 17
    (MV, "(18 * p1 - 9 * p2", "(17 * p1 - 9 * p2", [T_MV + "test_volume_cubic_cube_plus_octahedron"]),
    # the facets of L plus a face of K are left out of the candidates
    (
        MV,
        "    faces.update(_sum_face(n, _top_face(ik, u), face) for u, face in facets_l)\n",
        "",
        [T_MV + "test_sum_facets_match_the_scan_of_the_sums"],
    ),
    # the cone test's first sign pattern is flipped
    (MV, "            if a > 0 > b:", "            if a < 0 < b:", [T_MV + "test_volume_cubic_cube_plus_octahedron"]),
    # the pulling triangulation keeps the facets that hold vertex 0
    (
        GEO,
        "        if v == 0:\n            continue",
        "        if v != 0:\n            continue",
        [T_MV + "test_volume_cubic_cube_plus_octahedron"],
    ),
    # the edge-table triangulation skips one edge of each facet
    (
        GEO,
        "        for e, _ in own:\n",
        "        for e, _ in own[1:]:\n",
        [T_MV + "test_edge_table_triangulates_as_the_generic_pull"],
    ),
    # _hull3's facets skip the closure check; K + L still runs it
    (
        GEO,
        "        if len(own) != len(incident) or len(own) < 3:\n",
        '        if subject != "the hull" and (len(own) != len(incident) or len(own) < 3):\n',
        [T_MV + "test_volume_cubic_closure_check_catches_a_dropped_facet"],
    ),
    # _scan3 keeps the normal of a subset with points above it
    (
        GEO,
        "yield ((-n0, -n1, -n2) if above else (n0, n1, n2)), tuple(on)",
        "yield ((n0, n1, n2) if above else (-n0, -n1, -n2)), tuple(on)",
        [T_GEO + "test_hull_facets_match_the_reference_scan"],
    ),
    # _scan3 yields a facet's incident points in the order its side test met them
    (GEO, "                    on.sort()\n", "", [T_GEO + "test_hull_facets_match_the_reference_scan"]),
    # _scan3 forgets the points on a facet's plane
    (
        GEO,
        "\n                        on.append(t)",
        "\n                        pass",
        ["tests/test_geometry.py::test_hull_facets_match_the_reference_scan"],
    ),
    # the 4D read-out takes every side unflipped by where the point sorts into the subset
    (
        GEO,
        "(q, -sign if p & 1 else sign)",
        "(q, sign)",
        [T_GEO + "test_hull_facets_4d_of_a_5_point_simplex"],
    ),
    # the 4D facets keep the normal of a subset with points above it
    (
        GEO,
        "(-n0, -n1, -n2, -n3) if negate else (n0, n1, n2, n3)",
        "(n0, n1, n2, n3) if negate else (n0, n1, n2, n3)",
        [T_GEO + "test_hull_facets_4d_of_the_4_cube"],
    ),
    # the 4D read-out takes a subset with no point off its hyperplane: a zero normal
    (
        GEO,
        "        if above == (-1 in seen):\n",
        "        if above and -1 in seen:\n",
        [T_GEO + "test_hull_facets_4d_of_the_4_cube"],
    ),
    # the 4D read-out leaves the points with side 0 out of the incident ones
    (
        GEO,
        "*(q for q, s in sides if not s)",
        "*()",
        [T_GEO + "test_hull_facets_4d_of_the_4_cube"],
    ),
    # the facet memo is keyed by the sign table less its last orientation
    (
        GEO,
        "_facet_spec(len(pts), tuple(signs))",
        "_facet_spec(len(pts), (*signs[:-1], 0))",
        [T_GEO + "test_hull_memos_give_the_reference_facets_cold_and_warm"],
    ),
    # a 4D facet normal that the first pass did not compute comes out negated
    (
        GEO,
        "_normal4(pts, subset) if rank is None",
        "[-c for c in _normal4(pts, subset)] if rank is None",
        [T_GEO + "test_hull_memos_give_the_reference_facets_cold_and_warm"],
    ),
    # the triangulation cache is keyed by the facet count alone
    (
        GEO,
        "@lru_cache(maxsize=256)\ndef _pulling_simplices(",
        "def _by_count(pull):\n"
        "    held = {}\n"
        "    cached = lambda facets, d: held.setdefault((len(facets), d), pull(facets, d))\n"
        "    cached.cache_clear = held.clear\n"
        "    return cached\n\n\n"
        "@_by_count\ndef _pulling_simplices(",
        [T_GEO + "test_hull_memos_give_the_reference_facets_cold_and_warm"],
    ),
    # a sign flipped in the written-out 3D determinant
    (
        GEO,
        "x1 * (y2 * z0 - y0 * z2)",
        "x1 * (y0 * z2 - y2 * z0)",
        ["tests/test_geometry.py::test_pulling_volume_matches_the_generic_determinant"],
    ),
    # the 4D determinants are summed with their signs: caught by a cross-route test
    (
        GEO,
        "            + m23 * (z0 * w1 - z1 * w0)\n        )\n        total += d if d > 0 else -d\n",
        "            + m23 * (z0 * w1 - z1 * w0)\n        )\n        total += d\n",
        ["tests/test_cli.py::test_volume_all_methods_unit_box"],
    ),
    # a bool read as a coordinate
    (
        GEO,
        "isinstance(x, Rational) and not isinstance(x, bool)",
        "isinstance(x, Rational)",
        ["tests/test_geometry.py::test_every_point_entry_reads_coordinates_by_one_rule"],
    ),
    # the cleared axis reports twice its lcm: caught by a cross-route test
    (
        TRI,
        "    return ilo, ihi, d, ",
        "    return ilo, ihi, 2 * d, ",
        ["tests/test_cli.py::test_volume_all_methods_unit_box"],
    ),
    # the interval rule rejects a zero lower bound
    (TRI, "0 <= ilo < ihi", "0 < ilo < ihi", ["tests/test_cli.py::test_sweep_csv_and_determinism"]),
    # a sweep row skips its ordering check
    (
        TRI,
        "    if not _ratios_ordered(a, b):\n        raise InternalDisagreement(f\"sorted axes break",
        "    if False:\n        raise InternalDisagreement(f\"sorted axes break",
        ["tests/test_cli.py::test_a_sort_that_breaks_the_ordering_condition_exits_3"],
    ),
    # a sweep row reads its upper bounds in input order, not sorted order
    (
        TRI,
        "a, b = (a[i], a[j], a[k]), (b[i], b[j], b[k])",
        "a, b = (a[i], a[j], a[k]), b",
        ["tests/test_cli.py::test_sweep_matches_the_per_row_library_route"],
    ),
    # a tie between the second and third ordering keys breaks the wrong way
    (
        TRI,
        "_AXIS_ORDERS[k1 <= k2, k1 <= k3, k2 <= k3]",
        "_AXIS_ORDERS[k1 <= k2, k1 <= k3, k2 < k3]",
        ["tests/test_trilinear.py::TestNormalization::test_axis_order_is_the_stable_argsort_of_its_keys"],
    ),
    # a box normalized with a nontrivial order keeps its input axes' cleared ints
    (
        TRI,
        "box.__dict__.update(a=a, b=b, cleared=(ia, ib, d))",
        "box.__dict__.update(a=a, b=b, cleared=self.cleared)",
        ["tests/test_trilinear.py::test_normalize_is_the_stable_sort_on_ratios"],
    ),
    # the closed form loses its symmetry in axes 2 and 3
    (
        TRI,
        "- a2 * b3 - b2 * a3 - 3 * a2 * a3)",
        "- 2 * a2 * b3 - b2 * a3 - 3 * a2 * a3)",
        [T_CERT + "test_closed_form_is_symmetric_in_axes_2_and_3"],
    ),
    # the last bottom-slice support maximum and the first top-slice one swap rows
    (
        TRI,
        "        2 * a1 * a2 * a3 - a1 * a2 * b3,\n        a1 * a2 * a3 - a1 * a2 * b3 - b1 * a2 * b3,\n",
        "        a1 * a2 * a3 - a1 * a2 * b3 - b1 * a2 * b3,\n        2 * a1 * a2 * a3 - a1 * a2 * b3,\n",
        [T_CERT + "test_z_value_is_the_support_maximum"],
    ),
    # one slice point's x1 is flipped to its other bound: 0 and 1 on the
    # mapped slices, a1 and b1 on the true ones
    (
        TRI,
        "(b1 * a2 * level, q1, p2),",
        "(b1 * a2 * level, p1, p2),",
        [T_CERT + "test_mapped_slice_determinant_is_the_slice_volume_over_f"],
    ),
    # the pipeline's map factor f is built from axes 1 and 3
    (
        TRI,
        "    f = (b1 - a1) * (b2 - a2)\n",
        "    f = (b1 - a1) * (b3 - a3)\n",
        [T_TRI + "test_pipeline_report_is_pinned"],
    ),
    # the top slice skips the map: its generic checks see the true slice
    (
        TRI,
        "_slice_points(a, b, b3, (0, 0), (1, 1))",
        "_slice_points(a, b, b3, a, b)",
        [T_TRI + "test_pipeline_report_is_pinned"],
    ),
    # Simpson's midpoint weight 4 becomes 3
    (TRI, "4 * section8(lo + hi)", "3 * section8(lo + hi)", [T_CERT + "test_simpson_is_exact_on_every_cubic"]),
    # a sign flipped in the first slice direction
    (
        TRI,
        "(1, -a2 * level, -b1 * level),",
        "(1, -a2 * level, b1 * level),",
        [T_CERT + "test_facet_cross_products_are_the_slice_directions"],
    ),
    # the last slice direction is off by one
    (
        TRI,
        "(-1, a2 * level, a1 * level),",
        "(-1, a2 * level, a1 * level + 1),",
        [T_CERT + "test_facet_cross_products_are_the_slice_directions"],
    ),
    # the package namespace re-exports one name more
    (
        "src/trivol/__init__.py",
        '    "__version__",\n]\n',
        '    "__version__",\n    "omega_normalize",\n]\nfrom .trilinear import omega_normalize  # noqa: E402\n',
        ["tests/test_package.py::test_package_namespace_is_the_public_api"],
    ),
    # a failed write to stdout leaks the os.devnull descriptor
    (
        "src/trivol/cli.py",
        "        os.close(devnull)\n",
        "",
        ["tests/test_cli.py::test_a_failed_write_to_stdout_exits_2_with_one_line"],
    ),
    # monte_carlo_volume takes a bool or float sample count
    (
        "src/trivol/oracle.py",
        "if any(isinstance(n, bool) or not isinstance(n, int) for n in (samples, seed)):",
        "if False:",
        ["tests/test_oracle.py::test_monte_carlo_takes_only_int_samples_and_seed"],
    ),
]


def name(entry: tuple) -> str:
    """The entry's file and the first line of its old text, as reported."""
    path, old, _, _ = entry
    return f"{path}:{old.strip().splitlines()[0]}"


def _pytest(copy: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def _run(entry: tuple | None, tests: list[str]) -> int:
    """pytest's exit code on a fresh copy of the package, with the entry's
    mutation applied when it is given."""
    with tempfile.TemporaryDirectory(prefix="trivol-mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        if entry is not None:
            path, old, new, _ = entry
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        return _pytest(copy, tests)


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for entry in MUTANTS:
        path, old, _, _ = entry
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"STALE     {name(entry)}: old text occurs {count} times")
            failed += 1
    if failed:
        return 1
    selection = sorted({test for *_, tests in MUTANTS for test in tests})
    code = _run(None, selection)
    if code:
        print(f"the unmutated tests fail (pytest exit {code}); no mutant can be judged")
        return 1
    for entry in MUTANTS:
        code = _run(entry, entry[3])
        print(f"{'killed' if code else 'SURVIVED':9} {name(entry)}  (pytest exit {code})")
        failed += not code
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
