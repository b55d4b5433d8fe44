"""Benchmark-side oracles, written independently of the library's algorithms.

- ``root_labels``: the positive root of every window vertex, by walking a
  permutation in one-line notation along the reading word (O(N) for a word
  of length N), instead of reflecting each simple root back through the
  prefix as ``roots.inversion_sequence`` does.
- ``reaches`` / ``in_snake_position`` / ``in_prime_snake_position``:
  closed-form reachability in the repetition quiver, instead of the
  library's breadth-first search.
- ``max_closure``: the maximum-weight lower set of Omega_j by a dynamic
  programme over its grid shape, instead of ideal enumeration or min-cut.

Vertices are plain ``(i, k2)`` pairs (the library's ``Vertex`` is a
NamedTuple, so both compare equal).
"""
from __future__ import annotations


def root_str(lo: int, hi: int) -> str:
    """The printed form of the interval root a_lo + ... + a_hi."""
    return f"a{lo}" if lo == hi else f"a{lo},{hi}"


def root_labels(n: int, order, word) -> dict:
    """Map each vertex of a reading to its root (lo, hi, sign).

    beta_k = w_{k-1}(alpha_{i_k}) with w_{k-1} = s_{i_1}...s_{i_{k-1}}; in
    type A that is e_{w(i)} - e_{w(i+1)}, and w_k = w_{k-1} s_{i_k} swaps
    two entries of the one-line notation.
    """
    perm = list(range(n + 2))
    out = {}
    for v, i in zip(order, word):
        a, b = perm[i], perm[i + 1]
        out[(v[0], v[1])] = (min(a, b), max(a, b) - 1, 1 if a < b else -1)
        perm[i], perm[i + 1] = b, a
    return out


# -- reachability and snake positions -----------------------------------------


def row_step(hf, i: int) -> int:
    """Doubled spectral step of row i: 2 on the twisted middle row, else 4."""
    return 2 if hf.flavor == "twisted" and i == hf.n0 else 4


def _is_vertex(hf, v) -> bool:
    i, k2 = v
    return 1 <= i <= hf.n and (k2 - hf.values2[i - 1]) % row_step(hf, i) == 0


def _theta2(n0: int) -> list[int]:
    """Doubled big_theta heights: 2i below n0, 2n0 - 1 at n0, 2(i-1) above."""
    return [2 * i if i < n0 else (2 * n0 - 1 if i == n0 else 2 * (i - 1)) for i in range(1, 2 * n0)]


def reaches(hf, v, w) -> bool:
    """Oriented-path reachability v -> ... -> w (reflexive), in closed form."""
    if not (_is_vertex(hf, v) and _is_vertex(hf, w)):
        return False
    gap = w[1] - v[1]
    if hf.flavor == "twisted":
        t = _theta2(hf.n0)
        return gap >= abs(t[w[0] - 1] - t[v[0] - 1])
    if hf.n == 1:
        return gap == 0
    return gap >= 2 * abs(w[0] - v[0])


def _region(hf, v) -> str:
    n0 = hf.n0
    if v[0] != n0:
        return "LT" if v[0] < n0 else "GT"
    # a middle-row vertex points down when (n0 + 1, k + 1/2) is a vertex
    return "D" if (v[1] + 1 - hf.values2[n0]) % 4 == 0 else "U"


def in_snake_position(hf, v, w) -> bool:
    if not (_is_vertex(hf, v) and _is_vertex(hf, w)):
        return False
    if not reaches(hf, (v[0], v[1] + row_step(hf, v[0])), w):
        return False
    if hf.flavor != "twisted":
        return True
    rv, rw = _region(hf, v), _region(hf, w)
    if rv in ("LT", "U"):
        return rw in ("LT", "D")
    return rw in ("GT", "U")


def _ntilde2(hf) -> int:
    return 2 * hf.n if hf.flavor == "twisted" else 2 * (hf.n + 1)


def in_prime_snake_position(hf, v, w) -> bool:
    dual = (hf.n + 1 - v[0], v[1] + _ntilde2(hf))  # D^{-1} v
    return in_snake_position(hf, v, w) and reaches(hf, w, dual)


def is_snake(hf, points) -> bool:
    return bool(points) and all(_is_vertex(hf, v) for v in points) and all(
        in_snake_position(hf, points[s], points[s + 1]) for s in range(len(points) - 1)
    )


def candidates(hf, v, test) -> list[tuple[int, int]]:
    """Vertices w after v, within one duality step, with test(hf, v, w)."""
    out = []
    for i in range(1, hf.n + 1):
        step = row_step(hf, i)
        k2 = v[1] + 1 + (hf.values2[i - 1] - v[1] - 1) % step
        while k2 <= v[1] + _ntilde2(hf):
            if test(hf, v, (i, k2)):
                out.append((i, k2))
            k2 += step
    return out


# -- maximum-weight lower sets of Omega_j ----------------------------------------


def max_closure(weights: dict) -> int:
    """Largest total weight of a lower set of a grid-shaped poset.

    ``weights`` maps the vertices (i, k2) of Omega_j, a full rectangle in the
    coordinates (k + i, k - i); every arrow raises exactly one coordinate by
    one step.  A lower set is a staircase: per column a, the rows below a
    non-increasing height h(a).
    """
    cols = sorted({v[1] // 2 + v[0] for v in weights})
    rows = sorted({v[1] // 2 - v[0] for v in weights})
    if len(cols) * len(rows) != len(weights):
        raise ValueError("Omega is not a full rectangle")
    ci = {c: x for x, c in enumerate(cols)}
    ri = {r: y for y, r in enumerate(rows)}
    grid = [[0] * len(rows) for _ in cols]
    for v, w in weights.items():
        grid[ci[v[1] // 2 + v[0]]][ri[v[1] // 2 - v[0]]] = w
    # best[h]: optimum over the columns right of the current one, given that
    # the current column has height h (so theirs are at most h)
    best = [0] * (len(rows) + 1)
    for col in reversed(grid):
        total, run = 0, float("-inf")
        for h in range(len(best)):
            run = max(run, total + best[h])
            best[h] = run
            if h < len(col):
                total += col[h]
    return best[-1]
