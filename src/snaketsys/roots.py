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

    def __neg__(self) -> "Root":
        return Root(self.lo, self.hi, -self.sign)

    def __str__(self) -> str:
        body = f"a{self.lo}" if self.lo == self.hi else f"a{self.lo},{self.hi}"
        return body if self.sign > 0 else "-" + body


def simple_root(i: int) -> Root:
    return Root(i, i, +1)


def check_node(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} outside [1, {n}]")


def star(n: int, i: int) -> int:
    """The longest-element involution i* = n+1-i."""
    check_node(n, i)
    return n + 1 - i


def num_positive_roots(n: int) -> int:
    return n * (n + 1) // 2


def all_positive_roots(n: int) -> list[Root]:
    return [Root(lo, hi, +1) for lo in range(1, n + 1) for hi in range(lo, n + 1)]


def _coefficients(n: int, r: Root) -> list[int]:
    v = [0] * (n + 2)  # 1-based with sentinels at 0 and n+1
    for j in range(r.lo, r.hi + 1):
        v[j] = r.sign
    return v


def _from_coefficients(n: int, v: Sequence[int]) -> Root:
    support = [j for j in range(1, n + 1) if v[j] != 0]
    if not support:
        raise ValueError("zero vector is not a root")
    lo, hi = support[0], support[-1]
    sign = v[lo]
    if any(v[j] != sign for j in support) or hi - lo + 1 != len(support):
        raise ValueError(f"vector {list(v[1:n+1])} is not a root of A_{n}")
    return Root(lo, hi, sign)


def reflect(n: int, i: int, r: Root) -> Root:
    """Simple reflection s_i acting on a (signed interval) root.

    Internally goes through the coefficient vector: s_i subtracts
    <r, a_i^vee> a_i, with the A_n pairing 2c_i - c_{i-1} - c_{i+1}.
    """
    check_node(n, i)
    check_node(n, r.lo)
    check_node(n, r.hi)
    v = _coefficients(n, r)
    v[i] -= 2 * v[i] - v[i - 1] - v[i + 1]
    return _from_coefficients(n, v)


def inversion_sequence(n: int, word: Sequence[int]) -> list[Root]:
    """Roots b_k = s_{i_1}...s_{i_{k-1}}(a_{i_k}) of a reduced word.

    A permutation walk, O(1) per letter: w = s_{i_1}...s_{i_{k-1}} is kept
    in one-line notation on e_1..e_{n+1}, so b_k = e_{w(i)} - e_{w(i+1)}
    for the letter i, and appending s_i swaps w(i) and w(i+1).

    Raises NotReduced if some b_k comes out negative or repeats.
    """
    betas: list[Root] = []
    seen: set[Root] = set()
    w = list(range(n + 2))  # one-line notation, w[0] unused
    for k, letter in enumerate(word):
        check_node(n, letter)
        a, b = w[letter], w[letter + 1]
        if a > b:
            raise NotReduced(f"word {tuple(word)} is not reduced at position {k + 1}")
        w[letter], w[letter + 1] = b, a
        beta = Root(a, b - 1, +1)
        if beta in seen:
            raise NotReduced(f"word {tuple(word)} repeats inversion {beta}")
        seen.add(beta)
        betas.append(beta)
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
