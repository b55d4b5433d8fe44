"""The seeded layer fingerprints of tests/fingerprint.py, pinned.

Each digest was written down before the layer's code was last reworked
(``quivers`` and ``predictions`` before the relation records and the
public/trusted reachability and duality twins were folded, ``lusztig``
before vertex data moved onto slot tuples, ``snakes`` before the Q/R
kernels became one and the public/trusted snake twins were folded); if one
moves, the layer's output changed.  `PYTHONPATH=src python
tests/fingerprint.py --dump LAYER` prints the lines to diff against a
checkout that still matches.
"""
import pytest

from tests.fingerprint import LAYERS, digest

PINNED = {
    "quivers": ("4c6306931500b61c38acadd359e806ac8548d0bceee16ca0ccbbe0666d7b3412", 1151),
    "predictions": ("287e875f0efb08c32c55128acf9e4499e84bdb054b55eff293169f446850ae72", 256),
    "lusztig": ("561c11783caf03339489827a61f12ba0a292133b88fedfc15b4a03adbe0dea24", 9038),
    "snakes": ("5bfd0e5afd9a8183f346d83d98f65a4f57a69a01ca9eaf19d215e7c842a36e57", 13431),
}


def test_every_layer_is_pinned():
    assert set(PINNED) == set(LAYERS)


@pytest.mark.parametrize("layer", sorted(PINNED))
def test_layer_fingerprint_is_pinned(layer):
    lines = LAYERS[layer]()
    sha, count = PINNED[layer]
    assert (digest(lines), len(lines)) == (sha, count)
