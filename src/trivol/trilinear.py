"""Volume of the convex hull of the graph of y = x1*x2*x3 over a box.

For bounds 0 <= a_i < b_i, the hull of {(x1*x2*x3, x1, x2, x3)} over the
box [a1,b1] x [a2,b2] x [a3,b3] is a 4-polytope with eight extreme points,
one per corner of the box. Its volume is computed here two exact ways:

* ``closed_form_volume`` evaluates a single polynomial formula, valid
  after the axes are reordered so that a1/b1 <= a2/b2 <= a3/b3 (the
  ordering condition checked by :func:`omega_check`).
* ``pipeline_volume`` slices the hull along the third axis. Each slice is
  a weighted Minkowski combination of two tetrahedra: the slice Q at the
  bottom of the axis range and the slice R at the top. The slice volume
  is therefore a cubic in the slice position whose coefficients are the
  volumes and mixed volumes of Q and R, and the hull volume is its
  integral. The mixed volumes come from closed-form support maxima (the
  ``_z_values`` table) and are cross-checked against the generic
  support-sum evaluation; the integral is evaluated analytically and
  cross-checked against Simpson's rule, which is exact for cubics.

Every redundant pair of computation paths must agree exactly; a mismatch
raises :class:`InternalDisagreement` rather than returning anything.

The polynomial kernels below (``_ordering_keys``, ``_z_values``,
``_mixed_volumes6_from_z``, ``_mixed_volume6``, ``_hull_volume24``,
``_beta4``, ``_simpson48``) carry no division: each returns a fixed
integer multiple of its quantity, so they run on ints as well as on
Fractions. The public Fraction functions divide their result once.
``hull_volume_formula`` and ``pipeline_volume`` run them on the box with
each axis's denominators cleared, which turns every value into an int
until one division per reported value at the end. A :class:`Box3Bounds`
clears its axes once, when built (``cleared``); the axis order in
``omega_normalize``, the pipeline, ``closed_form_volume`` and
``extreme_points`` read those ints, as does ``trivol sweep``, which
clears each axis pair once with :func:`_cleared_axis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import (
    DegenerateTetrahedron,
    InternalDisagreement,
    InvalidBounds,
    OmegaViolated,
)
from .geometry import Point3, Point4, Tetrahedron, Vec3, orient
from .mixed_volume import _support_sum6
from .rational import parse_rational

__all__ = [
    "Box3Bounds",
    "OmegaBox",
    "PipelineIntermediates",
    "VolumeReport",
    "ordering_values",
    "omega_normalize",
    "omega_check",
    "omega_prime_check",
    "omega_dprime_check",
    "build_Q",
    "build_R",
    "integrate_cross_sections",
    "hull_volume_formula",
    "closed_form_volume",
    "pipeline_volume",
    "extreme_points",
]


@dataclass(frozen=True)
class Box3Bounds:
    """Axis-aligned box [a1,b1] x [a2,b2] x [a3,b3] with 0 <= a_i < b_i.

    Bounds are read by :func:`parse_rational`. ``cleared`` is (A, B, D):
    the bounds with axis i scaled by D_i, the lcm of its denominators, and
    the D_i (:func:`_cleared_axis`); ``==``, ``hash`` and ``repr`` ignore it.
    """

    a: tuple[Fraction, Fraction, Fraction]
    b: tuple[Fraction, Fraction, Fraction]
    cleared: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.a) != 3 or len(self.b) != 3:
            raise InvalidBounds("bounds need exactly three intervals")
        a, b = tuple(map(parse_rational, self.a)), tuple(map(parse_rational, self.b))
        ia, ib, d = zip(*map(_cleared_axis, a, b))
        self.__dict__.update(a=a, b=b, cleared=(ia, ib, d))
        for axis, (lo, hi, ilo, ihi) in enumerate(zip(a, b, ia, ib), start=1):
            if not (0 <= ilo < ihi):
                raise InvalidBounds(f"need 0 <= a{axis} < b{axis}, got a{axis}={lo}, b{axis}={hi}")

    def _permuted(self, order: tuple[int, int, int]) -> Box3Bounds:
        """This box with its axes in ``order``, carried over already cleared."""
        a, b, ia, ib, d = (tuple(v[i] for i in order) for v in (self.a, self.b, *self.cleared))
        box = object.__new__(Box3Bounds)
        box.__dict__.update(a=a, b=b, cleared=(ia, ib, d))
        return box


def ordering_values(box: Box3Bounds) -> tuple[Fraction, Fraction, Fraction]:
    """Per-axis sort keys whose ascending order is the ordering condition.

    The key for axis i is a_i*b_j*b_k + b_i*a_j*a_k over the other two
    axes j, k; :func:`omega_check` is exactly "these are nondecreasing".
    """
    return _ordering_keys(box.a, box.b)


def _ordering_keys(a: tuple, b: tuple) -> tuple:
    """:func:`ordering_values` on bound tuples, ints (cleared bounds) or Fractions."""
    (a1, a2, a3), (b1, b2, b3) = a, b
    return (
        a1 * b2 * b3 + b1 * a2 * a3,
        a2 * b1 * b3 + b2 * a1 * a3,
        a3 * b1 * b2 + b3 * a1 * a2,
    )


def omega_check(box: Box3Bounds) -> bool:
    """Ordering condition in sort-key form: nondecreasing axis keys."""
    o1, o2, o3 = ordering_values(box)
    return o1 <= o2 <= o3


def omega_prime_check(box: Box3Bounds) -> bool:
    """Ordering condition in ratio form: a1/b1 <= a2/b2 <= a3/b3.

    Evaluated cross-multiplied so it stays exact without division.
    """
    return _ratios_ordered(box.a, box.b)


def _ratios_ordered(a: tuple, b: tuple) -> bool:
    """:func:`omega_prime_check` on bound tuples, ints (cleared bounds) or Fractions."""
    return a[0] * b[1] <= a[1] * b[0] and a[1] * b[2] <= a[2] * b[1]


def omega_dprime_check(box: Box3Bounds) -> bool:
    """Ordering condition in pairwise difference form.

    Requires b_i*a_j - a_i*b_j >= 0 for each i < j; equivalent to the
    other two checks for every valid box.
    """
    a, b = box.a, box.b
    return (
        b[0] * a[1] - a[0] * b[1] >= 0
        and b[0] * a[2] - a[0] * b[2] >= 0
        and b[1] * a[2] - a[1] * b[2] >= 0
    )


@dataclass(frozen=True)
class OmegaBox:
    """A box whose axes already satisfy the ordering condition.

    ``perm`` records where each original axis went: perm[i] is the
    1-based normalized position of original axis i+1.
    """

    bounds: Box3Bounds
    perm: tuple[int, int, int]

    def __post_init__(self) -> None:
        self.__dict__["perm"] = perm = tuple(self.perm)
        if sorted(perm) != [1, 2, 3]:
            raise ValueError(f"perm must be a permutation of (1, 2, 3), got {perm}")
        if not _ratios_ordered(*self.bounds.cleared[:2]):
            raise OmegaViolated(f"bounds do not satisfy the ordering condition: {self.bounds}")


def omega_normalize(box: Box3Bounds) -> OmegaBox:
    """Reorder the axes so the ordering condition holds.

    Axes are stably sorted by their ratio a_i/b_i, so ties keep their
    original relative order and the result is deterministic. The order is
    read off the :func:`ordering_values` keys of the cleared ints (all
    scaled by D1*D2*D3), whose order is the ratio order, ties included:
    with k the third axis, key_i - key_j = (b_k - a_k)(a_i*b_j - a_j*b_i),
    and b_k > a_k. :class:`OmegaBox` checks the result in the ratio form;
    a failure there is a bug, raised as :class:`InternalDisagreement`.
    """
    order, perm = _axis_order(_ordering_keys(*box.cleared[:2]))
    try:
        return OmegaBox(box._permuted(order), perm)
    except OmegaViolated:
        raise InternalDisagreement(f"sorted axes break the ordering condition: {box}") from None


def _stable_argsort(keys: tuple) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Stable argsort of three keys, and the 1-based position each key's
    axis lands in. Equal keys keep their original order."""
    order = tuple(sorted(range(3), key=keys.__getitem__))
    pos = order.index
    return order, (pos(0) + 1, pos(1) + 1, pos(2) + 1)


# A stable sort only compares, so the order of three keys depends only on
# (k1 <= k2, k1 <= k3, k2 <= k3). The triples in {0,1,2}^3 reach all six
# patterns that are transitive, ties included, and each fixes one order.
_AXIS_ORDERS = {
    (k1 <= k2, k1 <= k3, k2 <= k3): _stable_argsort((k1, k2, k3))
    for k1, k2, k3 in product(range(3), repeat=3)
}


def _axis_order(keys: tuple) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """:func:`_stable_argsort` of three axis keys by three comparisons and
    one table lookup."""
    k1, k2, k3 = keys
    return _AXIS_ORDERS[k1 <= k2, k1 <= k3, k2 <= k3]


def _slice_points(a: tuple, b: tuple, level: Fraction | int) -> list[Point3]:
    """Vertices of the hull slice at x3 = level, in (y, x1, x2) coordinates."""
    (a1, a2, _), (b1, b2, _) = a, b
    return [
        (b1 * b2 * level, b1, b2),
        (a1 * a2 * level, a1, a2),
        (b1 * a2 * level, b1, a2),
        (a1 * b2 * level, a1, b2),
    ]


def build_Q(box: OmegaBox) -> Tetrahedron:
    """Oriented tetrahedron of the bottom slice.

    Raises :class:`DegenerateTetrahedron` when a3 == 0, where the bottom
    slice collapses into the y = 0 plane.
    """
    nb = box.bounds
    if nb.a[2] == 0:
        raise DegenerateTetrahedron("bottom slice is flat when a3 == 0")
    return orient(_slice_points(nb.a, nb.b, nb.a[2]))


def build_R(box: OmegaBox) -> Tetrahedron:
    """Oriented tetrahedron of the top slice."""
    nb = box.bounds
    return orient(_slice_points(nb.a, nb.b, nb.b[2]))


def _slice_directions(a: tuple, b: tuple, level: Fraction | int) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Facet directions of the slice at x3 = level: its area-scaled outward
    facet normals with their common factor (b1-a1)(b2-a2)/2 divided out."""
    (a1, a2, _), (b1, b2, _) = a, b
    return (
        (1, -a2 * level, -b1 * level),
        (1, -b2 * level, -a1 * level),
        (-1, b2 * level, b1 * level),
        (-1, a2 * level, a1 * level),
    )


def _z_values(a: tuple, b: tuple) -> tuple:
    """Closed-form support maxima of the two slices, valid under the
    ordering condition.

    Entry i-1 is the support of the opposite slice's vertex set against
    the i-th :func:`_slice_directions` entry (bottom slice's directions for
    i <= 4, top slice's for i >= 5), with the area prefactor divided out.
    Each entry is the winner of a four-way maximum; the winning corner is
    pinned down by the ordering condition. Every term is a product of one
    bound per axis, so scaling axis i by D_i scales each entry by D1*D2*D3.
    """
    (a1, a2, a3), (b1, b2, b3) = a, b
    return (
        b1 * b2 * b3 - b1 * a2 * a3 - b1 * b2 * a3,
        b1 * b2 * b3 - a1 * b2 * a3 - b1 * b2 * a3,
        a1 * b2 * a3 + b1 * b2 * a3 - a1 * b2 * b3,
        2 * a1 * a2 * a3 - a1 * a2 * b3,
        a1 * a2 * a3 - a1 * a2 * b3 - b1 * a2 * b3,
        a1 * a2 * a3 - a1 * a2 * b3 - a1 * b2 * b3,
        2 * b1 * b2 * b3 - b1 * b2 * a3,
        a1 * a2 * b3 + b1 * a2 * b3 - b1 * a2 * a3,
    )


def _mixed_volume6(a: tuple, b: tuple):
    """Six times the product form of both slice mixed volumes."""
    (a1, a2, a3), (b1, b2, b3) = a, b
    return (
        (b1 - a1)
        * (b2 - a2)
        * ((b1 - a1) * (b2 * b3 - a2 * a3) + (b3 - a3) * (b1 * b2 - a1 * a2))
    )


def _mixed_volumes6_from_z(a: tuple, b: tuple) -> tuple:
    """Six times (V(Q,Q,R), V(Q,R,R)) as support sums: each mixed volume
    is the area prefactor (b1-a1)(b2-a2)/2 times the sum of its four
    support maxima, over 3."""
    z = _z_values(a, b)
    pref2 = (b[0] - a[0]) * (b[1] - a[1])
    return pref2 * (z[0] + z[1] + z[2] + z[3]), pref2 * (z[4] + z[5] + z[6] + z[7])


def _beta4(m: tuple, lo, hi):
    """Four times the integral of the slice-volume cubic, by Beta integrals.

    Term k of the cubic is C(3,k) (b3-t)^(3-k) (t-a3)^k m_k / h^3, and the
    integral of (b3-t)^(3-k) (t-a3)^k over [a3, b3] is h^4 (3-k)! k! / 4!,
    so each term integrates to h m_k C(3,k) (3-k)! k! / 4! = h m_k / 4.
    """
    return (hi - lo) * (m[0] + m[1] + m[2] + m[3])


def _simpson48(m: tuple, lo, hi):
    """48 h^2 times the Simpson's-rule integral of the slice-volume cubic.

    The cubic is sampled at t = a3, (a3+b3)/2, b3 on doubled coordinates,
    which makes each sample 8 h^3 times the slice volume there; Simpson's
    h (f(a3) + 4 f(mid) + f(b3)) / 6 then carries the factor 48 h^2.
    """
    w = (m[0], 3 * m[1], 3 * m[2], m[3])

    def section8(t2):
        s, u = 2 * hi - t2, t2 - 2 * lo
        return w[0] * s**3 + w[1] * s**2 * u + w[2] * s * u**2 + w[3] * u**3

    return section8(2 * lo) + 4 * section8(lo + hi) + section8(2 * hi)


def integrate_cross_sections(
    vol_q: object, v_qqr: object, v_qrr: object, vol_r: object, a3: object, b3: object
) -> Fraction:
    """Integrate the slice-volume cubic over [a3, b3].

    The slice at position t has volume
    sum_k C(3,k) * (b3-t)^(3-k) * (t-a3)^k * m_k / (b3-a3)^3 with
    m = (vol_q, v_qqr, v_qrr, vol_r); the Beta integrals of each term are
    evaluated analytically (see :func:`_beta4`), on arguments read by
    :func:`parse_rational`. :func:`pipeline_volume` runs the same integral
    on ints and checks it against Simpson's rule.
    """
    lo, hi = parse_rational(a3), parse_rational(b3)
    if not lo < hi:
        raise InvalidBounds(f"need a3 < b3, got {lo} >= {hi}")
    return _beta4(tuple(map(parse_rational, (vol_q, v_qqr, v_qrr, vol_r))), lo, hi) / 4


def _hull_volume24(a: tuple, b: tuple):
    """24 times the closed-form hull volume; see :func:`hull_volume_formula`."""
    (a1, a2, a3), (b1, b2, b3) = a, b
    core = b1 * (5 * b2 * b3 - a2 * b3 - b2 * a3 - 3 * a2 * a3) + a1 * (
        5 * a2 * a3 - b2 * a3 - a2 * b3 - 3 * b2 * b3
    )
    return (b1 - a1) * (b2 - a2) * (b3 - a3) * core


def _cleared_axis(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """One axis's bounds times D, the lcm of their denominators, and D.

    With axis i scaled by D_i, every ordering key scales by the same
    D1*D2*D3, so the integer box keeps the ordering condition.
    """
    d = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def hull_volume_formula(a: tuple, b: tuple) -> Fraction:
    """Closed-form hull volume for bounds satisfying the ordering condition.

    The expression is symmetric in axes 2 and 3 but not in axis 1; apply
    it only to normalized bounds (or use :func:`closed_form_volume`).
    Bounds are read by :func:`parse_rational`. The formula runs on the
    integer bounds from :func:`_cleared_axis` (see :func:`_formula_ratio`).
    """
    a, b = map(parse_rational, a), map(parse_rational, b)
    return Fraction(*_formula_ratio(*zip(*map(_cleared_axis, a, b))))


def _formula_ratio(ia: tuple, ib: tuple, d: tuple) -> tuple[int, int]:
    """Closed-form hull volume from cleared bounds ``ia``, ``ib`` and the
    per-axis scales ``d``, as its numerator and denominator in lowest
    terms, with no Fraction built: the volume on the integer box is
    (D1*D2*D3)^2 times larger, so it divides once, by one gcd."""
    d1, d2, d3 = d
    n, q = _hull_volume24(ia, ib), 24 * (d1 * d2 * d3) ** 2
    g = gcd(n, q)
    return n // g, q // g


def closed_form_volume(box: Box3Bounds) -> Fraction:
    """Hull volume by formula: normalize the axis order, then evaluate on
    the normalized box's ``cleared`` ints."""
    return Fraction(*_formula_ratio(*omega_normalize(box).bounds.cleared))


@dataclass(frozen=True)
class PipelineIntermediates:
    """Slice data behind a pipeline volume: two volumes, two mixed volumes."""

    vol_q: Fraction
    vol_r: Fraction
    v_qqr: Fraction
    v_qrr: Fraction


@dataclass(frozen=True)
class VolumeReport:
    """Result of computing one box's hull volume by formula and pipeline.

    ``agree`` is true iff the two volumes are exactly equal; no tolerance
    is involved anywhere.
    """

    box: Box3Bounds
    vol_formula: Fraction
    vol_pipeline: Fraction
    agree: bool
    intermediates: PipelineIntermediates


def _require_equal(got, expected, what: str, scale: int) -> None:
    """Raise unless ``got == expected``; both are ``scale`` times the
    quantity the message reports."""
    if got != expected:
        raise InternalDisagreement(
            f"{what}: {Fraction(got, scale)} != {Fraction(expected, scale)}"
        )


def pipeline_volume(box: Box3Bounds) -> VolumeReport:
    """Hull volume via slice integration, with every step double-checked.

    Slice volumes and mixed volumes are computed both from closed forms
    and from generic geometry (each oriented tetrahedron's ``det`` and
    the support sum ``mixed_volume._support_sum6``, both already six
    times their volume, so they are compared as they come), and the
    integral is evaluated analytically and by Simpson's rule. V(Q,R,R) reads
    only the bottom slice's support values, so it is checked flat or not.
    When a3 == 0 after normalization that slice is flat: its volume is 0,
    and its determinant volume and V(Q,Q,R) checks are skipped.

    All of this runs on ints: the normalized box's ``cleared`` bounds A_i,
    B_i, axis i scaled by D_i, which still satisfy the ordering condition
    the closed forms need. Slice points scale by (D1*D2*D3, D1, D2), so
    slice volumes and mixed volumes scale by D1^2*D2^2*D3 and are carried
    six times over; the hull scales by (D1*D2*D3)^2 and its volume is
    carried 24 times over (the Simpson sum 288*(B3-A3)^2 times, see
    :func:`_simpson48`). Each reported value is one division of such an
    int at the end.
    """
    nb = omega_normalize(box).bounds
    a, b, (d1, d2, d3) = nb.cleared
    (a1, a2, a3), (b1, b2, b3) = a, b
    slice_scale = 6 * (d1 * d2) ** 2 * d3
    hull_scale = 24 * (d1 * d2 * d3) ** 2

    # slice quantities, six times over on the scaled box
    base = (b1 - a1) ** 2 * (b2 - a2) ** 2
    vol_q6, vol_r6 = a3 * base, b3 * base
    v_qqr6, v_qrr6 = _mixed_volumes6_from_z(a, b)
    mixed6 = _mixed_volume6(a, b)
    _require_equal(v_qqr6, mixed6, "bottom-slice mixed volume vs product form", slice_scale)
    _require_equal(v_qrr6, mixed6, "top-slice mixed volume vs product form", slice_scale)

    q_pts, r_pts = _slice_points(a, b, a3), _slice_points(a, b, b3)
    r_tet = orient(r_pts)
    _require_equal(r_tet.det, vol_r6, "top slice volume vs determinant", slice_scale)
    if a3 > 0:
        q_tet = orient(q_pts)
        _require_equal(q_tet.det, vol_q6, "bottom slice volume vs determinant", slice_scale)
        _require_equal(
            _support_sum6(q_tet, r_pts), v_qqr6, "V(Q,Q,R) vs generic support sum", slice_scale
        )
    _require_equal(
        _support_sum6(r_tet, q_pts), v_qrr6, "V(Q,R,R) vs generic support sum", slice_scale
    )

    # hull volume, 24 times over on the scaled box: _beta4 is 4 times the
    # integral of the six-times slice cubic, _simpson48 48 h^2 times it
    m6 = (vol_q6, v_qqr6, v_qrr6, vol_r6)
    vol24 = _beta4(m6, a3, b3)
    simpson_over_beta = 12 * (b3 - a3) ** 2
    _require_equal(
        _simpson48(m6, a3, b3),
        simpson_over_beta * vol24,
        "analytic integral vs Simpson",
        simpson_over_beta * hull_scale,
    )
    formula24 = _hull_volume24(a, b)

    vol_pipeline = Fraction(vol24, hull_scale)
    mixed = Fraction(mixed6, slice_scale)
    return VolumeReport(
        box=box,
        vol_formula=vol_pipeline if formula24 == vol24 else Fraction(formula24, hull_scale),
        vol_pipeline=vol_pipeline,
        agree=formula24 == vol24,
        intermediates=PipelineIntermediates(
            Fraction(vol_q6, slice_scale), Fraction(vol_r6, slice_scale), mixed, mixed
        ),
    )


def extreme_points(box: Box3Bounds) -> tuple[Point4, ...]:
    """The hull's eight extreme points (y, x1, x2, x3), one per box corner.

    Corners are enumerated in lexicographic order of the choice vector
    (low before high per axis), so the first point uses all lower bounds
    and the last all upper bounds. Each y is a product of cleared ints over D1*D2*D3.
    """
    ia, ib, (d1, d2, d3) = box.cleared
    axes = zip(zip(box.a, ia), zip(box.b, ib))  # per axis (bound, cleared bound), low then high
    return tuple(
        (Fraction(c1 * c2 * c3, d1 * d2 * d3), v1, v2, v3)
        for (v1, c1), (v2, c2), (v3, c3) in product(*axes)
    )
