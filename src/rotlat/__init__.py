"""Exact construction and certification of rotated D_n lattices obtained
from totally real subfields of cyclotomic fields and their composita."""

from .cyclo import CycloElt, cyclotomic_polynomial, real_embedding_bounds
from .fields import (
    FieldDesc,
    coords_on_basis,
    discriminant_2adic_valuation,
    embedding_reps,
    field_from_json,
    field_to_json,
    is_element,
    is_totally_positive,
    make_field,
    norm_real,
    subfield_degrees,
)
from .constructions import (
    IdealCheck,
    IdealityWitness,
    TwistedModule,
    build,
    in_module,
    is_ideal,
    module_from_json,
    module_index,
    module_to_json,
)
from .gram import (
    GramMatrix,
    det_exact,
    det_via_formula,
    embedding_csv,
    gram,
)
from .verify import (
    VerificationReport,
    lll_reduce,
    verify_ambient_zn,
    verify_rotated_dn,
)
from .distance import (
    DistanceResult,
    NormSearchResult,
    TABLE_ROWS,
    TableRow,
    dp_closed_form,
    min_norm_search,
    per_dimension,
    table1,
    table1_csv,
)
from .feasibility import (
    FeasibilityReport,
    dn_feasibility,
    splitting_of_two,
)

__version__ = "0.1.0"

__all__ = [
    "CycloElt", "cyclotomic_polynomial", "real_embedding_bounds",
    "FieldDesc", "coords_on_basis",
    "discriminant_2adic_valuation", "embedding_reps", "field_from_json",
    "field_to_json", "is_element", "is_totally_positive", "make_field",
    "norm_real", "subfield_degrees",
    "IdealCheck", "IdealityWitness", "TwistedModule", "build",
    "in_module", "is_ideal", "module_from_json", "module_index", "module_to_json",
    "GramMatrix", "det_exact", "det_via_formula", "embedding_csv", "gram",
    "VerificationReport", "lll_reduce", "verify_ambient_zn", "verify_rotated_dn",
    "DistanceResult", "NormSearchResult", "TABLE_ROWS", "TableRow",
    "dp_closed_form", "min_norm_search", "per_dimension", "table1", "table1_csv",
    "FeasibilityReport", "dn_feasibility", "splitting_of_two",
]
