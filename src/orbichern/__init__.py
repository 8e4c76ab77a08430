"""Exact characteristic-class invariants of smooth orbifold pairs.

The package computes Chern and Segre classes of the higher-order orbifold
cotangent bundles of a pair (X, Delta), the leading Euler-characteristic
coefficients of jet-differential bundles, positivity thresholds for their
existence, Schur-functor decompositions with the part-count vanishing
criterion, and the flag-bundle Gysin coefficient on abelian varieties.
All arithmetic is exact rational unless a numeric mode is requested.
"""

from .errors import (DomainError, GeometryMismatch, NonUnitError,
                     OrbichernError, PairFormatError)
from .gysin import JumpData, gysin_coefficient, jump_data
from .orbifold import (ChiReport, OrbifoldPair, canonical_k, chi_k,
                       chi_leading_term, chi_trivial_canonical_closed_form,
                       cotangent_chern, cotangent_segre, delta_k,
                       leading_scale, log_asymptotic_coefficient)
from .pairfile import load_pair, parse_pair, serialize_pair
from .partitions import (Partition, SchurExpansion, decompose_sym_tensor,
                         graded_summands, pieri_multiply, schur_dimension,
                         weighted_vectors)
from .ring import (INFINITE_ORDER, Geometry, GradedClass, Multiplicity,
                   abelian_variety, projective_space, surface_with_invariants)
from .thresholds import (TableRow, ThresholdRecord, k3_coefficient,
                         k3_ratio_bound, line_arrangement_pair,
                         line_arrangement_threshold,
                         min_multiplicity_for_degree, smooth_curve_pair,
                         table1, two_component_m2_predicate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
