"""conclab: exact-arithmetic link concordance obstructions.

Signature jump functions of (generalized) Seifert matrices, homology
orders of cyclic branched covers, correction-term tables of lens spaces
and surgeries on L-space knots, square-root metabolizer searches,
and the two verdict pipelines built from them.
"""

from .abgroup import (FiniteAbelianGroup, Subgroup, SquareRootSearch,
                      generated_subgroup, square_root_subgroups,
                      subgroups_of_order)
from .dinv import (CandidateReport, DTable, MetabolizerVerdict, VSequence,
                   dbar_table, dbar_vanishing_obstruction,
                   is_lspace_knot_polynomial, large_surgery_d_table,
                   lens_d_invariant, lens_d_table, lspace_v_sequence)
from .errors import (ConclabError, CoprimalityError, DegenerateFormError,
                     FamilyChoiceError, JumpEvaluationError, MissingDataError,
                     NotLSpaceKnotError, PrecisionLimitError, SizeBoundError, ValidationError)
from .obstruct import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED,
                       LinkFamilySpec, PeriodCheck, SmoothVerdict,
                       SurgeryModel, TopologicalVerdict,
                       build_surgery_model, covering_jump_function,
                       obstruct_smooth, obstruct_topological,
                       period_coprimality_check)
from .exprparse import parse_poly
from .polyalg import (LaurentPoly, PolySet, PrimeSetComplement,
                      branched_homology_order, excluded_primes,
                      normalize_alexander, normalize_poly, resultant,
                      torsion_coefficients, torus_knot_alexander)
from .seifert import (FIGURE_EIGHT, TREFOIL, UNKNOT, Jump, JumpFunction,
                      MinimalPeriod, SeifertMatrix, alexander_from_seifert,
                      connected_sum, jump_function, jump_locations,
                      minimal_period, mirror, reverse, scale_jump_function,
                      signature_at)

__version__ = "0.1.0"
