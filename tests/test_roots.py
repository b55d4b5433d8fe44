import itertools
import random

import pytest

from snaketsys import roots
from snaketsys.errors import NotReduced
from snaketsys.quivers import TWISTED, HeightFunction
from snaketsys.roots import Root
from snaketsys.verify import random_height_function


def all_positive_roots(n):
    return [Root(lo, hi, +1) for lo in range(1, n + 1) for hi in range(lo, n + 1)]


def _coefficients(n, r):
    v = [0] * (n + 2)  # 1-based with sentinels at 0 and n+1
    for j in range(r.lo, r.hi + 1):
        v[j] = r.sign
    return v


def _from_coefficients(n, v):
    support = [j for j in range(1, n + 1) if v[j] != 0]
    if not support:
        raise ValueError("zero vector is not a root")
    lo, hi = support[0], support[-1]
    sign = v[lo]
    if any(v[j] != sign for j in support) or hi - lo + 1 != len(support):
        raise ValueError(f"vector {list(v[1:n+1])} is not a root of A_{n}")
    return Root(lo, hi, sign)


def reflect(n, i, r):
    """Simple reflection s_i acting on a (signed interval) root.

    Goes through the coefficient vector: s_i subtracts <r, a_i^vee> a_i,
    with the A_n pairing 2c_i - c_{i-1} - c_{i+1}.
    """
    roots.check_node(n, i)
    roots.check_node(n, r.lo)
    roots.check_node(n, r.hi)
    v = _coefficients(n, r)
    v[i] -= 2 * v[i] - v[i - 1] - v[i + 1]
    return _from_coefficients(n, v)


def reference_inversion_sequence(n, word):
    """b_k by reflecting a_{i_k} back through the prefix: O(N^2 n) for a
    word of length N, independent of the library's permutation walk."""
    betas = []
    seen = set()
    for k, letter in enumerate(word):
        roots.check_node(n, letter)
        beta = Root(letter, letter, +1)
        for l in range(k - 1, -1, -1):
            beta = reflect(n, word[l], beta)
        if beta.sign < 0:
            raise NotReduced(f"word {tuple(word)} is not reduced at position {k + 1}")
        key = (beta.lo, beta.hi)
        if key in seen:
            raise NotReduced(f"word {tuple(word)} repeats inversion {beta}")
        seen.add(key)
        betas.append(beta)
    return betas


def _outcome(fn, n, word):
    try:
        return fn(n, word)
    except Exception as exc:  # the type and the message must both agree
        return type(exc), str(exc)


def _assert_walk_matches(n, word):
    want = _outcome(reference_inversion_sequence, n, word)
    assert _outcome(roots.inversion_sequence, n, word) == want, (n, word)


def test_star_examples():
    assert roots.star(5, 2) == 4
    assert roots.star(5, 3) == 3
    assert roots.star(7, 1) == 7


def test_star_involution():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert roots.star(n, roots.star(n, i)) == i


def test_reflect_examples():
    assert reflect(3, 1, Root(1, 1, 1)) == Root(1, 1, -1)
    assert reflect(3, 1, Root(2, 2, 1)) == Root(1, 2, 1)
    # <a_{1,3}, a_2^vee> = 0 in A_n for n >= 3
    assert reflect(4, 2, Root(1, 3, 1)) == Root(1, 3, 1)


def test_reflect_involution():
    for n in range(1, 6):
        for i in range(1, n + 1):
            for r in all_positive_roots(n):
                assert reflect(n, i, reflect(n, i, r)) == r


def test_inversion_sequence_rank2():
    assert roots.inversion_sequence(2, (1, 2, 1)) == [Root(1, 1, 1), Root(1, 2, 1), Root(2, 2, 1)]
    assert roots.inversion_sequence(2, (2, 1, 2)) == [Root(2, 2, 1), Root(1, 2, 1), Root(1, 1, 1)]
    assert roots.inversion_sequence(1, (1,)) == [Root(1, 1, 1)]


def test_not_reduced():
    with pytest.raises(NotReduced):
        roots.inversion_sequence(2, (1, 1))
    assert not roots.is_reduced(3, (1, 1))
    assert roots.is_reduced(2, (1, 2, 1))


def test_longest_words_hit_every_positive_root():
    rng = random.Random(0)
    for n in range(2, 7):
        for _ in range(5):
            xi = random_height_function(n, rng)
            _, word = xi.compatible_reading()
            betas = roots.inversion_sequence(n, word)
            assert sorted(betas) == sorted(all_positive_roots(n))
            assert roots.is_longest_word(n, word)


def test_adapted_readings_are_reduced():
    # compatible reading words of the canonical functions are reduced
    for n in range(1, 7):
        for delta in (0, 1):
            _, word = HeightFunction.canonical(n, delta).compatible_reading()
            assert roots.is_reduced(n, word)


def test_inversion_multiset_invariant_under_moves():
    from snaketsys.lusztig import LusztigDatum, apply_three_move, two_move

    rng = random.Random(4)
    for n in (3, 4, 5):
        _, word = HeightFunction.canonical(n, 1).compatible_reading()
        d = LusztigDatum(n, word, tuple(0 for _ in word))
        want = sorted(roots.inversion_sequence(n, word))
        for _ in range(60):
            twos = [r for r in range(len(d.word) - 1) if abs(d.word[r] - d.word[r + 1]) >= 2]
            threes = [r for r in range(1, len(d.word) - 1)
                      if d.word[r - 1] == d.word[r + 1] and abs(d.word[r] - d.word[r - 1]) == 1]
            kind, r = rng.choice([("2", r) for r in twos] + [("3", r) for r in threes])
            d = two_move(d, r) if kind == "2" else apply_three_move(d, r)
            assert sorted(roots.inversion_sequence(n, d.word)) == want


def test_walk_matches_reference_on_all_short_words():
    for n in range(0, 4):
        for length in range(0, 8):
            for word in itertools.product(range(n + 2), repeat=length):
                _assert_walk_matches(n, word)


def test_every_non_reduced_word_fails_at_its_first_descent():
    # a kept letter adds one inversion to w, so no inversion can repeat: a
    # word fails exactly at the first letter that does not lengthen its
    # prefix's permutation (counted here by pairs), with "is not reduced at
    # position"; on every word of ranks 1-3 and lengths 0-7, and on a seeded
    # sample of rank 4 and length 8
    def words():
        for n in range(1, 4):
            for length in range(8):
                yield from ((n, word) for word in itertools.product(range(1, n + 1), repeat=length))
        rng = random.Random(118)
        yield from ((4, tuple(rng.randint(1, 4) for _ in range(8))) for _ in range(300))

    for n, word in words():
        w, bad = list(range(n + 1)), None
        for k, i in enumerate(word):
            w[i - 1], w[i] = w[i], w[i - 1]
            if sum(a > b for a, b in itertools.combinations(w, 2)) != k + 1:
                bad = k + 1
                break
        if bad is None:
            assert len(set(roots.inversion_sequence(n, word))) == len(word)
        else:
            with pytest.raises(NotReduced) as err:
                roots.inversion_sequence(n, word)
            assert str(err.value) == f"word {word} is not reduced at position {bad}"


def test_walk_matches_reference_on_readings():
    rng = random.Random(5)
    cases = [random_height_function(n, rng) for n in range(1, 13) for _ in range(3)]
    cases += [random_height_function(2 * n0 - 1, rng, TWISTED, n0) for n0 in range(2, 7) for _ in range(3)]
    for xi in cases:
        for reverse_rows in (False, True):
            _, word = xi.compatible_reading(reverse_rows=reverse_rows)
            assert roots.inversion_sequence(xi.n, word) == reference_inversion_sequence(xi.n, word)


def test_walk_matches_reference_on_random_words():
    rng = random.Random(6)
    for _ in range(2000):  # mostly non-reduced, failing early
        n = rng.randint(1, 7)
        word = [rng.randint(1, n) for _ in range(rng.randint(1, roots.num_positive_roots(n) + 3))]
        _assert_walk_matches(n, word)
    for _ in range(300):  # a longest word with one letter doubled or appended fails late
        n = rng.randint(1, 9)
        _, word = random_height_function(n, rng).compatible_reading()
        k = rng.randrange(len(word))
        _assert_walk_matches(n, word[: k + 1] + word[k:])
        _assert_walk_matches(n, word + (rng.randint(1, n),))
