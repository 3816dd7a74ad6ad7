"""Symbolic proof that the pipeline's integer kernels are exact.

Most kernels are evaluated on the six bounds as indeterminates of the
integer polynomial ring ZZ[a1, a2, a3, b1, b2, b3], so each assertion is a
polynomial identity: it holds for every integer box, and so for the
cleared integer box ``pipeline_volume`` builds from any rational box.
Proven here:

* the pipeline's product-form, Simpson and formula checks cannot fire on
  any box, and the slice determinants are the slice volumes it carries;
* the closed form ``_hull_volume24`` is symmetric in axes 2 and 3;
* Simpson's rule is exact on every cubic: ``_simpson48`` is
  12 (hi - lo)^2 times ``_beta4`` over ZZ[m0, m1, m2, m3, lo, hi];
* the oriented slice tetrahedron's ``_facet_cross_products`` are
  (b1 - a1)(b2 - a2) times its ``_slice_directions``, taken in the order
  (0, 1, 3, 2), so those directions are its outward facet normals;
* the pipeline's map x_i -> (x_i - a_i)/(b_i - a_i), i = 1, 2, sends each
  slice to one over the unit square whose determinant is the true one
  over f = (b1 - a1)(b2 - a2), and whose ``_facet_cross_products``, in
  the same order, are (1, b1 - a1, b2 - a2) times the ``_slice_directions``
  component by component. Those directions sum to zero, and each mapped
  dot product is the true one less a shift of its direction alone, so f
  times each mapped support sum is the true one: the generic checks on
  the mapped slices are the checks on the true slices;
* the ordering forms: key_i - key_j = (b_k - a_k)(a_i*b_j - a_j*b_i) for
  the ``ordering_values`` keys, with k the third axis. As b_k > a_k and
  b > 0, equal keys mean equal ratios a_i/b_i and a larger key a larger
  ratio, so ``omega_normalize``'s stable sort on the keys of the cleared
  box is the stable sort on the ratios, ties in the same order;
* the ``_z_values`` are the slices' true support maxima under the ordering
  condition. Every ordered box is a positive multiple of one with
  a_i = b_i*R_i/S, R = (s1, s1+s2, s1+s2+s3), S = s1+...+s4, s >= 0,
  s4 > 0, b > 0; the kernels run on the box (b_i*R_i, b_i*S) over
  ZZ[b1, b2, b3, s1, ..., s4]. Each entry equals one of its four support
  candidates, and its gap to each of the others has nonnegative
  coefficients, so it is their maximum on the whole region.

Still sampled, not proven: agreement with the 4D hull oracle (the
three-way suite). The sampled support-maxima suite runs too.
"""

from types import SimpleNamespace

import pytest
import sympy

from trivol.geometry import _edge_det, _facet_cross_products, dot3
from trivol.trilinear import (
    _beta4,
    _hull_volume24,
    _mixed_volume6,
    _mixed_volumes6_from_z,
    _ordering_keys,
    _simpson48,
    _slice_directions,
    _slice_points,
    _z_values,
)

_, a1, a2, a3, b1, b2, b3 = sympy.ring("a1 a2 a3 b1 b2 b3", sympy.ZZ)
A, B = (a1, a2, a3), (b1, b2, b3)
BASE = (b1 - a1) ** 2 * (b2 - a2) ** 2
MIXED = _mixed_volumes6_from_z(A, B)
M6 = (a3 * BASE, *MIXED, b3 * BASE)


def test_support_sum_mixed_volumes_equal_the_product_form():
    assert MIXED[0] == _mixed_volume6(A, B)
    assert MIXED[1] == _mixed_volume6(A, B)


def test_integrated_slice_cubic_is_the_closed_form():
    assert _beta4(M6, a3, b3) == _hull_volume24(A, B)


def test_closed_form_is_symmetric_in_axes_2_and_3():
    assert _hull_volume24((a1, a3, a2), (b1, b3, b2)) == _hull_volume24(A, B)


_, *CUBIC, LO, HI = sympy.ring("m0 m1 m2 m3 lo hi", sympy.ZZ)


def test_simpson_is_exact_on_every_cubic():
    assert _simpson48(CUBIC, LO, HI) == 12 * (HI - LO) ** 2 * _beta4(CUBIC, LO, HI)


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_slice_determinant_is_the_slice_volume(level):
    assert _edge_det(_slice_points(A, B, level, A, B)) == -level * BASE


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_facet_cross_products_are_the_slice_directions(level):
    # the determinant above is negative for level > 0, so orient swaps v0
    # and v1; the kernel reads only the vertices, which orient cannot read
    # on a ring
    v0, v1, v2, v3 = _slice_points(A, B, level, A, B)
    crosses = _facet_cross_products(SimpleNamespace(vertices=(v1, v0, v2, v3)))
    dirs = _slice_directions(A, B, level)
    scale = (b1 - a1) * (b2 - a2)
    assert crosses == tuple(tuple(scale * c for c in dirs[k]) for k in (0, 1, 3, 2))


# the pipeline's map x_i -> (x_i - a_i)/(b_i - a_i), i = 1, 2, on the slices
F = (b1 - a1) * (b2 - a2)
UNIT_SQUARE = ((0, 0), (1, 1))


def _mapped_crosses(level):
    """``_facet_cross_products`` of the mapped slice, in the vertex order
    orient gives it (v0 and v1 swapped, as for the true slice)."""
    v0, v1, v2, v3 = _slice_points(A, B, level, *UNIT_SQUARE)
    return _facet_cross_products(SimpleNamespace(vertices=(v1, v0, v2, v3)))


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_mapped_slice_determinant_is_the_slice_volume_over_f(level):
    mapped = _edge_det(_slice_points(A, B, level, *UNIT_SQUARE))
    assert mapped == -level * F
    assert F * mapped == _edge_det(_slice_points(A, B, level, A, B))


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_mapped_facet_cross_products_are_the_scaled_slice_directions(level):
    dirs = _slice_directions(A, B, level)
    widths = (1, b1 - a1, b2 - a2)
    scaled = tuple(tuple(w * c for w, c in zip(widths, dirs[k])) for k in (0, 1, 3, 2))
    assert _mapped_crosses(level) == scaled


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_slice_directions_sum_to_zero(level):
    assert tuple(map(sum, zip(*_slice_directions(A, B, level)))) == (0, 0, 0)


@pytest.mark.parametrize("level, other", [(a3, b3), (b3, a3)], ids=["bottom", "top"])
def test_mapped_dot_products_are_the_true_ones_shifted_per_direction(level, other):
    # with the two proofs above: each mapped support value is the true one
    # over f, less a shift of its direction alone, and the shifts sum to 0,
    # so f times the mapped support sum is the true support sum
    dirs = [_slice_directions(A, B, level)[k] for k in (0, 1, 3, 2)]
    pairs = zip(_slice_points(A, B, other, A, B), _slice_points(A, B, other, *UNIT_SQUARE))
    for p, mapped_p in pairs:
        for u, mapped_u in zip(dirs, _mapped_crosses(level)):
            assert dot3(mapped_u, mapped_p) == dot3(u, p) - (u[1] * a1 + u[2] * a2)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
def test_ordering_key_difference_is_the_ratio_cross_product(i, j):
    (k,) = {0, 1, 2} - {i, j}
    keys = _ordering_keys(A, B)
    assert keys[i] - keys[j] == (B[k] - A[k]) * (A[i] * B[j] - A[j] * B[i])


_, *GENS = sympy.ring("b1 b2 b3 s1 s2 s3 s4", sympy.ZZ)
TOP, (s1, s2, s3, s4) = GENS[:3], GENS[3:]
R, S = (s1, s1 + s2, s1 + s2 + s3), s1 + s2 + s3 + s4
ORDERED_A = tuple(bi * ri for bi, ri in zip(TOP, R))
ORDERED_B = tuple(bi * S for bi in TOP)


@pytest.mark.parametrize("i", range(1, 9))
def test_z_value_is_the_support_maximum(i):
    a, b = ORDERED_A, ORDERED_B
    # entries 1-4: bottom-slice directions against the top slice, 5-8 the reverse
    u = (_slice_directions(a, b, a[2]) + _slice_directions(a, b, b[2]))[i - 1]
    points = _slice_points(a, b, b[2] if i <= 4 else a[2], a, b)
    gaps = [_z_values(a, b)[i - 1] - dot3(p, u) for p in points]
    assert 0 in gaps
    assert all(c > 0 for gap in gaps for c in gap.coeffs())
