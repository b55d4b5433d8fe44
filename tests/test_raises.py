"""Raises of public entry points that no other tier-1 test reaches in process.

tools/unrun.py lists the raise lines that tier-1 never runs; each raise of
a public function among them is pinned here, type and message, so that a
later change of error class or text shows.
"""
import re

import pytest

from snaketsys.errors import NotHeightFunction, NotSnake
from snaketsys.lusztig import LusztigDatum, apply_three_move, two_move
from snaketsys.quivers import HeightFunction, Vertex, phi_closed_form
from snaketsys.tsystem import tfd_via_epsilon
from snaketsys.verify import run_suite

XI3, BIG2 = HeightFunction.untwisted([1, 2, 3]), HeightFunction.big_theta(2)
# two vertices of each quiver, the later one first
NOT_A_SNAKE = {XI3: (Vertex(2, 4), Vertex(2, 0)), BIG2: (Vertex(1, 6), Vertex(1, 2))}
DATUM = LusztigDatum(3, (1, 2, 1), (0, 1, 2))

CASES = {
    **{
        f"bridge not a snake {xi.flavor} {side}": (
            lambda xi=xi, side=side: tfd_via_epsilon(xi, Vertex(1, 2), NOT_A_SNAKE[xi], side),
            NotSnake, "epsilon bridge expects a snake",
        )
        for xi in NOT_A_SNAKE for side in ("left", "right")
    },
    "bridge side": (lambda: tfd_via_epsilon(XI3, Vertex(2, 0), (Vertex(2, 4),), "up"),
                    ValueError, "side must be 'left' or 'right'"),
    "LusztigDatum length": (lambda: LusztigDatum(3, (1, 2), (0,)), ValueError, "word and counts must have equal length"),
    "LusztigDatum sign": (lambda: LusztigDatum(3, (1, 2), (0, -1)), ValueError, "counts must be nonnegative"),
    "two_move position": (lambda: two_move(DATUM, 2), IndexError, "2-move position out of range"),
    "apply_three_move position": (lambda: apply_three_move(DATUM, 0), IndexError, "3-move position out of range"),
    "shifted odd": (lambda: XI3.shifted(1), ValueError, "shift must be an integer (even doubled value)"),
    "dualize sign": (lambda: XI3.dualize(Vertex(2, 0), 2), ValueError, "sign must be +1 or -1"),
    "phi_closed_form half-integer": (lambda: phi_closed_form(3, Vertex(2, 1)), ValueError,
                                     "canonical height functions have integer coordinates"),
    "run_suite unknown": (lambda: run_suite("nope", 1, 0), ValueError, "unknown suite 'nope'"),
    "untwisted n0": (lambda: HeightFunction(3, "untwisted", (2, 4, 6), 2), NotHeightFunction,
                     "untwisted height function takes no n0"),
    "twisted step": (lambda: HeightFunction.twisted((2, 4, 5, 4, 8), 3), NotHeightFunction, "|xi_4 - xi_5| != 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_raise_type_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error
