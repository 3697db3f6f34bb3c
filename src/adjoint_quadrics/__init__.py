"""Quadratic equations on the highest weight orbit in adjoint representations
of the simply-laced Chevalley groups of types D_l (l >= 5), E_6, E_7, E_8,
together with the elementary-group action over arbitrary commutative rings
and exact verification suites.
"""

from .action import (
    AdjointVector,
    Elementary,
    Word,
    apply_elementary,
    apply_word,
    basis_vector,
    zero_vector,
)
from .equations import (
    EquationSet,
    FormKind,
    QuadraticForm,
    eqset_from_json,
    evaluate_form,
    generate_all_equations,
)
from .rings import IntegerRing, IntegersMod, Poly, PolynomialRing, Ring, ring_from_name
from .root_system import (
    InvalidRootError,
    PairRelation,
    Root,
    RootSystem,
    SystemId,
    UnsupportedSystemError,
    Weight,
    ZeroWeight,
    build_root_system,
    cartan_matrix,
)
from .signs import SignTable, build_sign_table, structure_constant
from .squares import (
    AngleClass,
    InvalidPairError,
    MaximalSquare,
    SquareAngle,
    classify_root_vs_square,
    enumerate_squares,
    square_of_pair,
)
from .verify import (
    LEDGER_ENTRIES,
    SuiteReport,
    generic_vector,
    report_json,
    run_suite,
    suite_cases,
    suite_combinatorics,
    suite_commutator,
    suite_jacobi,
    suite_orbit,
    suite_words,
    verify_orbit_membership,
)

__version__ = "0.1.0"
