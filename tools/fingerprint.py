"""Print one sha256 over the exact outputs of all three volume routes.

For every box of the benchmark's certify and checked pools of seeds 1-5
(``bench/workloads.box_pool``, read and never changed) the digest takes,
in order: the 4D oracle's deduplicated points and facets
(``hull_facets_4d``), its volume (``hull_volume_4d``), the closed form
(``closed_form_volume``) and the pipeline's ``VolumeReport``
(``pipeline_volume``), each as a pickle. The pickler runs without its
memo, so equal values pickle alike whether or not the code shares the
objects that hold them.

Run it in two checkouts to show that a change leaves every output as it
was: equal digests mean equal normals, offsets, incident sets, volumes
and reports on all boxes.

usage: python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import io
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from trivol import oracle, trilinear  # noqa: E402

import workloads  # noqa: E402

SEEDS = range(1, 6)


def _pickled(value: object) -> bytes:
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True  # no memo: the bytes depend on values, not on shared objects
    pickler.dump(value)
    return buf.getvalue()


def digest() -> str:
    h = hashlib.sha256()
    # a pool is the first boxes drawn from its seed's stream, so the larger
    # of the certify and checked pools holds the other
    size = max(workloads.CERTIFY_POOL, workloads.CHECKED_POOL)
    for seed in SEEDS:
        for box in workloads.box_pool(seed, size):
            points = list(trilinear.extreme_points(box))
            for value in (
                oracle.hull_facets_4d(points),
                oracle.hull_volume_4d(points),
                trilinear.closed_form_volume(box),
                trilinear.pipeline_volume(box),
            ):
                h.update(_pickled(value))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
