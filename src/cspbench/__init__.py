"""Workbench for analyzing finite constraint-satisfaction templates:
polymorphisms and the Inv-Pol Galois connection, pp-definability with
certificates, cores, pp-type counting, fo-definability via one-tolerant
polymorphisms and critical obstructions, and a Horn/non-Horn complexity
classifier for linear-equality constraint languages over the rationals."""

from .structures import (
    BudgetExceededError,
    FiniteStructure,
    Homomorphism,
    Signature,
    SignatureMismatchError,
    direct_limit,
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
    one_tolerant_power,
    power,
    product,
)
from .formulas import (
    And,
    Atom,
    Eq,
    Exists,
    FALSE,
    Falsum,
    FormulaError,
    Or,
    canonical_query,
    canonical_structure,
    eliminate_disjunctions,
    evaluate,
    is_locally_refutable,
    local_refutation_value,
    parse_sentence,
    render,
)
from .clones import (
    EssentialityWitness,
    OperationTable,
    all_polymorphisms_essentially_unary,
    enumerate_polymorphisms,
    is_core,
    is_epc_finite,
    is_essentially_unary,
    operation_predicates,
    operation_preserves,
)
from .galois import (
    PpDefinabilityCertificate,
    PpTypeReport,
    Relation,
    count_maximal_pp_types,
    is_pp_definable,
    pp_closure,
    pp_type_leq,
    synthesize_pp_definition,
)
from .duality import (
    Obstruction,
    critical_obstructions,
    fo_definability_report,
    has_one_tolerant_polymorphism,
    obstruction_set_decides,
)
from .linear_horn import (
    LinearCnf,
    LinearLiteral,
    QuadExtNumber,
    check_mix_preservation,
    classify_horn,
    cnf_sat,
    conj_sat,
    horn_solve,
    make_irreducible,
    mix,
    parse_cnf,
)

__version__ = "0.1.0"
