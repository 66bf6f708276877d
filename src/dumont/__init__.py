"""Exact enumeration toolkit for pattern-restricted Dumont permutations."""

from .bijections import (Composition, DyckPath, SplitPair, composition_to_d4_1342,
                         construct_1324_avoider, d4_1342_to_composition,
                         d4_321_to_dyck, dyck_paths, dyck_to_d4_321, foata,
                         foata_inverse, reflect_1243_to_1324, reflect_1324_to_1243,
                         split_single_321)
from .gfseries import (SequenceId, TruncatedSeries, catalan_number, closed_form,
                       d4_1423_series, genocchi, gf_identities_check, solve_prst_system)
from .harness import (DistributionTable, VerificationReport, conjecture1_counts,
                      conjecture2_distribution, run_suite, sanity_s3)
from .kinds import DumontKind, count, generate, is_dumont
from .patterns import (AvoidanceQuery, ClassicalPattern, VincularPattern, avoids,
                       count_avoiders, count_exact_occurrences, count_occurrences,
                       count_vincular, generate_avoiders)
from .permcore import Permutation, flatten, render_diagram

__version__ = "0.1.0"

__all__ = [
    "AvoidanceQuery", "ClassicalPattern", "Composition", "DistributionTable",
    "DumontKind", "DyckPath", "Permutation", "SequenceId", "SplitPair",
    "TruncatedSeries", "VerificationReport", "VincularPattern", "avoids",
    "catalan_number", "closed_form",
    "composition_to_d4_1342", "conjecture1_counts", "conjecture2_distribution",
    "construct_1324_avoider", "count", "count_avoiders",
    "count_exact_occurrences", "count_occurrences", "count_vincular",
    "d4_1342_to_composition", "d4_1423_series", "d4_321_to_dyck", "dyck_paths",
    "dyck_to_d4_321", "flatten", "foata", "foata_inverse", "generate",
    "generate_avoiders", "genocchi", "gf_identities_check", "is_dumont",
    "reflect_1243_to_1324", "reflect_1324_to_1243", "render_diagram",
    "run_suite", "sanity_s3", "solve_prst_system", "split_single_321",
]
