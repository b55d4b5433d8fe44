"""Extended T-system relations for prime snakes, with monomials.

Run:  python demos/demo_tsystem.py
"""
from snaketsys.errors import OutsideWindow
from snaketsys.quivers import HeightFunction, Vertex
from snaketsys.realize import (
    Monomial,
    Realization,
    relation_monomials,
    relation_monomials_text,
)
from snaketsys.snakes import qr_sequences
from snaketsys.tsystem import (
    check_theorem_hypotheses,
    extended_tsystem,
    relation_latex,
    relation_text,
    tfd_via_epsilon,
)


def V(i, k):
    return Vertex(i, int(2 * k))


# A prime snake of length p yields a four-term exact-sequence shape whose
# first term is governed by the pairwise socle positions Q and R.
xi = HeightFunction.untwisted([1, 2, 3])
P = (V(2, 0), V(2, 2), V(1, 5))
print("Q/R:", qr_sequences(xi, P))
rel = extended_tsystem(xi, P)
print(relation_text(rel))
print(relation_latex(rel))

# Under the fundamental-module realization the middle and right terms carry
# the same dominant monomial; the first term differs.
mon = relation_monomials(rel, Realization.qdatum_a(3))
print(relation_monomials_text(mon))

# A custom cuspidal table realizes the same combinatorics over different
# modules; products are then formal.
table = Realization.custom(4, {
    V(1, 1): Monomial.y(1, 1),
    V(1, 3): Monomial.y(1, 3),
    V(1, 5): Monomial.y(1, 5),
    V(2, 2): Monomial.y(1, 3) * Monomial.y(1, 1),
    V(2, 4): Monomial.y(1, 5) * Monomial.y(1, 3),
    V(3, 3): Monomial.y(1, 5) * Monomial.y(1, 3) * Monomial.y(1, 1),
})
print(relation_monomials_text(relation_monomials(rel, table)))

# The twisted flavor works the same way through the staircase window.
big = HeightFunction.big_theta(2)
Pt = (V(3, 2), V(2, 4.5), V(2, 5.5))
relt = extended_tsystem(big, Pt)
print("\n" + relation_text(relt))
report = check_theorem_hypotheses(big, Pt)


# The exact tfd of each slice's left and right probe, through Reineke's
# epsilon, against the prediction for it wherever the bridge reaches it.
def bridge(v, snake, side):
    try:
        return tfd_via_epsilon(big, v, snake, side)
    except OutsideWindow:
        return None


slices = [(a, b) for a in range(1, len(Pt)) for b in range(a + 1, len(Pt) + 1)]
pairs = [(report.left[a - 1], bridge(Pt[a - 1], Pt[a:b], "left")) for a, b in slices]
pairs += [(report.right[b - 2], bridge(Pt[b - 1], Pt[a - 1:b - 1], "right")) for a, b in slices]
consistent = all(pred is None or eps is None or pred == eps for pred, eps in pairs)
print("exactness hypotheses all hold:", report.all_one, "| epsilon cross-check:", consistent)
