"""Type A_n root-system primitives with exact integer arithmetic.

Positive roots of A_n are exactly the intervals a_{lo,hi} = a_lo + ... + a_hi,
so a root is stored as an interval plus a sign.  n is an explicit argument of
every operation; callers must not mix ranks.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import NotReduced


class Root(NamedTuple):
    lo: int
    hi: int
    sign: int  # +1 or -1

    def __str__(self) -> str:
        body = f"a{self.lo}" if self.lo == self.hi else f"a{self.lo},{self.hi}"
        return body if self.sign > 0 else "-" + body


def check_node(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} outside [1, {n}]")


def star(n: int, i: int) -> int:
    """The longest-element involution i* = n+1-i."""
    check_node(n, i)
    return n + 1 - i


def num_positive_roots(n: int) -> int:
    return n * (n + 1) // 2


def inversion_sequence(n: int, word: Sequence[int]) -> list[Root]:
    """Roots b_k = s_{i_1}...s_{i_{k-1}}(a_{i_k}) of a reduced word.

    A permutation walk, O(1) per letter: w = s_{i_1}...s_{i_{k-1}} is kept
    in one-line notation on e_1..e_{n+1}, so b_k = e_{w(i)} - e_{w(i+1)}
    for the letter i, and appending s_i swaps w(i) and w(i+1).

    Raises NotReduced if some b_k comes out negative.  No b_k can repeat:
    each kept letter has w(i) < w(i+1), so it adds one inversion to w and
    the roots found are distinct.
    """
    betas: list[Root] = []
    w = list(range(n + 2))  # one-line notation, w[0] unused
    for k, letter in enumerate(word):
        check_node(n, letter)
        a, b = w[letter], w[letter + 1]
        if a > b:
            raise NotReduced(f"word {tuple(word)} is not reduced at position {k + 1}")
        w[letter], w[letter + 1] = b, a
        betas.append(Root(a, b - 1, +1))
    return betas


def is_reduced(n: int, word: Sequence[int]) -> bool:
    try:
        inversion_sequence(n, word)
    except NotReduced:
        return False
    return True


def is_longest_word(n: int, word: Sequence[int]) -> bool:
    """A reduced word of length n(n+1)/2 is a word for w_0."""
    return len(word) == num_positive_roots(n) and is_reduced(n, word)
