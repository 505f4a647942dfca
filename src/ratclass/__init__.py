"""Classification of quadratic and cubic rational expressions over
finite fields, up to composing with independent Moebius
transformations on either side.

The public surface: build a field with field_create, expressions with
expr or parse_expression, then classify them, compare them with
are_equivalent, inspect ramification, and enumerate whole class
partitions with all_classes.  Expressions are normalized values with
no arithmetic of their own: sums, products and quotients are written
as text for parse_expression, and Moebius maps act through act.
"""

from .classify import (CASES, ClassLabel, Witness, are_equivalent,
                       canonical_rep, canonical_two_point, classify,
                       family_Rc, four_point_invariants, label_json,
                       lambda_mu_of_c, lambda_mu_relation)
from .ffield import (DESK_SCALE_BOUND, Embedding, Fel, FieldCtx,
                     ScaleLimitError, canonical_sigma, canonical_tau,
                     canonical_theta, degree_over, embed, extend,
                     field_create, frobenius, is_square, sqrt)
from .moebius import (Moebius, PairAction, act, cross_ratio,
                      enumerate_pgl2, map_triple, pair_identity,
                      s_group_maps, s_orbit, s_orbit_min,
                      three_point_map)
from .orbits import (OrbitReport, STATEMENTS, all_classes,
                     coprime_pair_count, orbit_of, stabilizer_order,
                     verify_statement)
from .parse import ParseError, parse_expression
from .poly import Poly, gcd_monic, roots
from .ramify import (RamPoint, RamProfile, hurwitz_check, is_separable,
                     ramification_profile)
from .ratexpr import (INF, RatExpr, count_expressions,
                      enumerate_expressions, expr, proj_points,
                      proj_str)

__version__ = "0.1.0"

__all__ = [
    "CASES", "ClassLabel", "Witness", "are_equivalent", "canonical_rep",
    "canonical_two_point", "classify", "family_Rc",
    "four_point_invariants", "label_json", "lambda_mu_of_c",
    "lambda_mu_relation",
    "DESK_SCALE_BOUND", "Embedding", "Fel", "FieldCtx", "ScaleLimitError",
    "canonical_sigma", "canonical_tau", "canonical_theta", "degree_over",
    "embed", "extend", "field_create", "frobenius", "is_square", "sqrt",
    "Moebius", "PairAction", "act", "cross_ratio", "enumerate_pgl2",
    "map_triple", "pair_identity", "s_group_maps", "s_orbit",
    "s_orbit_min", "three_point_map",
    "OrbitReport", "STATEMENTS", "all_classes", "coprime_pair_count",
    "orbit_of", "stabilizer_order", "verify_statement",
    "ParseError", "parse_expression",
    "Poly", "gcd_monic", "roots",
    "RamPoint", "RamProfile", "hurwitz_check", "is_separable",
    "ramification_profile",
    "INF", "RatExpr", "count_expressions", "enumerate_expressions",
    "expr", "proj_points", "proj_str",
    "__version__",
]
