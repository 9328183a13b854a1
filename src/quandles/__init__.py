"""Finite quandles as integer matrices.

Validation of operation tables, construction of the classical families,
isomorphism testing by relabelling, automorphism groups, and exhaustive
classification of all isomorphism classes of a given (small) order.
"""

from ._kernel import backend
from .construct import (
    AlexanderPresentation,
    alexander,
    conjugation,
    conjugation_class,
    dihedral,
    make,
    trivial,
)
from .enumeration import (
    EnumerationReport,
    ResourceLimitError,
    all_tables,
    enumerate_all,
    enumerate_classes,
)
from .matrix import (
    QuandleMatrix,
    QuandleParseError,
    VerificationReport,
    parse_matrix,
)
from .permutation import PermGroup, Permutation, all_permutations
from .symmetry import (
    ClassRecord,
    GroupId,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    determinant,
    identify_group,
    np_count,
    permute,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderPresentation",
    "ClassRecord",
    "EnumerationReport",
    "GroupId",
    "PermGroup",
    "Permutation",
    "QuandleMatrix",
    "QuandleParseError",
    "ResourceLimitError",
    "VerificationReport",
    "alexander",
    "all_permutations",
    "all_tables",
    "are_isomorphic",
    "automorphism_group",
    "backend",
    "canonical_form",
    "conjugation",
    "conjugation_class",
    "determinant",
    "dihedral",
    "enumerate_all",
    "enumerate_classes",
    "identify_group",
    "make",
    "np_count",
    "parse_matrix",
    "permute",
    "trivial",
]
