"""Exact-arithmetic toolkit for flat symplectic Lie algebras."""

from .errors import SymplieError
from .rationals import Q, as_q, parse_rational, qstr
from .linalg import Matrix, Subspace
from .lie import LieAlgebra
from .symplectic import (InvalidSymplecticError, ProductTensor, SkewForm,
                         SubspaceClass, SymplecticLieAlgebra, change_of_basis,
                         classify_subspace, darboux_basis, h_vector,
                         multiplication_kernels, perp, structural_report,
                         symplectic_violations, validate_symplectic)
from .extension import (AdmissiblePair, NotAdmissibleError, NotFlatError,
                        check_admissible, double_extend, extension_tower,
                        inverse_double_extend, nilpotency_trace_report,
                        reduction_tower, symplectic_reduce, tower_pairs,
                        tower_transform, zero_symplectic)
from .catalog import (admissible_family, classify_upto6, family_names,
                      family_parameter_grid, fingerprint, get, names,
                      wedge_form)
from .documents import (DocumentError, algebra_to_document, document_to_algebra,
                        document_to_pair, document_to_tower, dumps_document,
                        pair_to_document, parse_document, tower_to_document)

__version__ = "0.1.0"

__all__ = [
    "SymplieError", "Q", "as_q", "parse_rational", "qstr",
    "Matrix", "Subspace",
    "LieAlgebra",
    "InvalidSymplecticError", "ProductTensor", "SkewForm", "SubspaceClass",
    "SymplecticLieAlgebra", "change_of_basis", "classify_subspace",
    "darboux_basis", "h_vector", "multiplication_kernels", "perp",
    "structural_report", "symplectic_violations", "validate_symplectic",
    "AdmissiblePair", "NotAdmissibleError", "NotFlatError", "check_admissible",
    "double_extend", "extension_tower", "inverse_double_extend",
    "nilpotency_trace_report", "reduction_tower", "symplectic_reduce",
    "tower_pairs", "tower_transform", "zero_symplectic",
    "admissible_family", "classify_upto6", "family_names",
    "family_parameter_grid", "fingerprint", "get", "names", "wedge_form",
    "DocumentError", "algebra_to_document", "document_to_algebra",
    "document_to_pair", "document_to_tower", "dumps_document",
    "pair_to_document", "parse_document", "tower_to_document",
    "__version__",
]
