"""The seeded layer fingerprints of tests/fingerprint.py, pinned.

Each digest was written down before the layer's code was last reworked
(``quivers`` and ``predictions`` before the relation records and the
public/trusted reachability and duality twins were folded, ``lusztig``
before vertex data moved onto slot tuples, ``snakes`` before the Q/R
kernels became one and the public/trusted snake twins were folded,
``windows`` before the Gamma window became one value per height function
and the window and carrier caches were folded into it, ``realize`` before a
relation's six monomials were built from key counts and end removal,
``roots`` on the code that the other layers build on, with no rework of it
in view); if one moves, the layer's output changed.  ``snakes`` was pinned again when
``canonical`` began to name the rank rule for a rank below 1: only those
error lines of the layer changed.  ``windows`` was pinned again when a V<j>
carrier began to ask for odd n >= 3 as the window kinds do: only the rank-1
V<j> lines and the V<j> error lines of even ranks changed.  ``realize`` was
pinned again when a custom table that lists a vertex twice began to raise
instead of keeping its last entry: only its 28 "first entry twice" lines
changed.  `PYTHONPATH=src python
tests/fingerprint.py --dump LAYER` prints the lines to diff against a
checkout that still matches.
"""
import pytest

from tests.fingerprint import LAYERS, digest

PINNED = {
    "quivers": ("4c6306931500b61c38acadd359e806ac8548d0bceee16ca0ccbbe0666d7b3412", 1151),
    "predictions": ("287e875f0efb08c32c55128acf9e4499e84bdb054b55eff293169f446850ae72", 256),
    "lusztig": ("561c11783caf03339489827a61f12ba0a292133b88fedfc15b4a03adbe0dea24", 9038),
    "snakes": ("9a814eedc2b53da340b71e57c6d4b5a37344e06a299950bec81bab1d06f3ac35", 13431),
    "windows": ("ef6f24a37e0eecf9f28ab80974872e10b72cc4119a211db8ac39832c2fe989c3", 9161),
    "realize": ("86712f0629dd52f6a7b770e065ce8eb4a5d377bdf960526bbf11e293acfad9db", 3369),
    "roots": ("b520d947e0108c930f70cd372924524d868d8f0979445f4d3570b8cf81d6309c", 714),
}


def test_every_layer_is_pinned():
    assert set(PINNED) == set(LAYERS)


@pytest.mark.parametrize("layer", sorted(PINNED))
def test_layer_fingerprint_is_pinned(layer):
    lines = LAYERS[layer]()
    sha, count = PINNED[layer]
    assert (digest(lines), len(lines)) == (sha, count)
