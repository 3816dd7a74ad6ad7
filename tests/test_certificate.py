"""Symbolic proof that the pipeline's integer kernels agree with the closed form.

Each kernel is evaluated on the six bounds as indeterminates of the integer
polynomial ring ZZ[a1, a2, a3, b1, b2, b3], so every assertion below is a
polynomial identity: it holds for every integer box, and so for the
cleared integer box ``pipeline_volume`` builds from any rational box.
Proven here:

* the pipeline's product-form, Simpson and formula checks cannot fire on
  any box, and the slice determinants are the slice volumes it carries;
* the ordering forms: key_i - key_j = (b_k - a_k)(a_i*b_j - a_j*b_i) for
  the ``ordering_values`` keys, with k the third axis. As b_k > a_k and
  b > 0, equal keys mean equal ratios a_i/b_i and a larger key a larger
  ratio, so ``omega_normalize``'s stable sort on the keys of the cleared
  box is the stable sort on the ratios, ties in the same order.

Still sampled, not proven: that ``_z_values`` are the true support maxima
under the ordering condition (the support-maxima suite) and agreement with
the 4D hull oracle.
"""

import pytest

from trivol.geometry import _edge_det
from trivol.trilinear import (
    _beta4,
    _hull_volume24,
    _mixed_volume6,
    _mixed_volumes6_from_z,
    _ordering_keys,
    _simpson48,
    _slice_points,
)

sympy = pytest.importorskip("sympy")

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


def test_simpson_is_exact_on_the_slice_cubic():
    assert _simpson48(M6, a3, b3) == 12 * (b3 - a3) ** 2 * _beta4(M6, a3, b3)


@pytest.mark.parametrize("level", [a3, b3], ids=["bottom", "top"])
def test_slice_determinant_is_the_slice_volume(level):
    assert _edge_det(_slice_points(A, B, level)) == -level * BASE


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
def test_ordering_key_difference_is_the_ratio_cross_product(i, j):
    (k,) = {0, 1, 2} - {i, j}
    keys = _ordering_keys(A, B)
    assert keys[i] - keys[j] == (B[k] - A[k]) * (A[i] * B[j] - A[j] * B[i])
