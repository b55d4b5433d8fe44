"""Combinatorics of snake modules and extended T-systems in type A.

Exact-arithmetic machinery: interval roots and inversion sequences,
repetition quivers of (twisted) height functions, Lusztig data with braid
moves and the twisted-to-untwisted transport rho, Reineke's epsilon
algorithm, snake/prime-snake predicates with Q/R socle positions, extended
T-system relations and their dominant-monomial realizations.
"""

from .errors import DomainError
from .lusztig import (
    Carrier,
    LusztigDatum,
    VertexDatum,
    apply_three_move,
    datum_from_json,
    datum_to_json,
    rho,
    rho_step,
    star_datum,
    three_move,
    two_move,
    unit_datum,
    weight,
)
from .quivers import HeightFunction, Region, Vertex, phi_closed_form
from .realize import Monomial, Realization, cuspidal_monomial, relation_monomials, snake_monomial
from .reineke import epsilon, epsilon_any, epsilon_other_parity, epsilon_star, omega
from .roots import Root, inversion_sequence, is_reduced, star
from .snakes import (
    QRPair,
    Snake,
    in_prime_snake_position,
    in_snake_position,
    is_prime_snake,
    is_snake,
    qr_sequences,
    qr_twisted,
    qr_untwisted,
    snake_from_json,
    snake_to_json,
    split_prime,
    translate_twisted,
)
from .tsystem import (
    TSystemRelation,
    check_theorem_hypotheses,
    extended_tsystem,
    predicted_tfd_left,
    predicted_tfd_right,
    relation_json,
    relation_latex,
    relation_text,
    tfd_via_epsilon,
)

__version__ = "0.1.0"
