"""The epsilon algorithm: diamonds, order ideals and the staircase programme.

Run:  python demos/demo_reineke.py
"""
from snaketsys import reineke
from snaketsys.lusztig import Carrier, VertexDatum
from snaketsys.quivers import Vertex
from snaketsys.verify import epsilon_bruteforce, omega_interval

# epsilon_j of a datum on the matching-parity canonical window maximizes
# sum(c_{i,k} - c_{i,k-2}) over lower closed subsets of the diamond
# Omega_j.  The diamond for j = 2, n = 5:
om = reineke.omega(5, 2)
print("Omega_2 vertices:", sorted((v.i, v.k2 // 2) for v in om.vertices))

carrier = Carrier("gamma-delta:0", 5)
d = VertexDatum(carrier, {Vertex(2, 2): 1, Vertex(2, 6): 1})
print("epsilon_2 of a two-point datum:", reineke.epsilon(2, d))

# In the coordinates (k+i, k-i) Omega_j is a full rectangle, written down
# in closed form, so a lower set is a staircase of column heights and
# epsilon is a linear-time programme over the columns.  The oracle finds
# Omega_j as a preceq interval of the window and enumerates its order ideals.
for col in om.columns:
    print("  column, by row:", [(v.i, v.k2 // 2) for v in col])
print("brute force:", epsilon_bruteforce(omega_interval(5, 2), d))
print("staircase:  ", reineke.epsilon(2, d))

# On the opposite-parity window the value is just the count at (j, 0).
d1 = VertexDatum(carrier, {Vertex(1, 0): 3})
print("epsilon_1 (first-letter shortcut):", reineke.epsilon_other_parity(1, d1))

# epsilon* evaluates the flipped datum on the complementary window.
print("epsilon*_2:", reineke.epsilon_star(2, d))
