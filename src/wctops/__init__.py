"""Weighted conditional type operators on finite atomic measure spaces.

Constructs operators of the form ``f -> w E(u f)`` (a multiplication, a
conditional expectation, another multiplication) and classifies them as
m-isometric / quasi-m-isometric / normal / (p-)hyponormal along two
independent routes: explicit defect-operator matrices and symbol-level
criteria, with an audit that cross-validates the two.
"""

from .classify import (
    DefectOracle,
    DefectVerdict,
    MultiplicationReport,
    check_multiplication_corollary,
    classify_isometry,
    default_tolerance,
    defect,
    is_hyponormal,
    is_normal,
    is_p_hyponormal,
    quasi_defect,
)
from .condexp import CondExp, block_averages, cond_exp, cond_exp_matrix
from .criteria import (
    AgreementReport,
    NormalCaseReport,
    QuasiVerdict,
    SymbolTable,
    audit_agreement,
    audit_rows,
    binomial_table,
    essential_range,
    j_double_prime_m,
    j_m,
    j_prime_m,
    normal_case_equivalence,
    quasi_criterion,
    spectrum_matches_range,
    symbols,
)
from .errors import NumericError, PropertyViolation, ValidationError
from .linop import (
    Action,
    LinOp,
    adjoint,
    hermitian_eig,
    hermitian_power,
    identity,
    is_psd,
    mult_op,
    op_norm,
    power,
    spectrum,
    wct_action,
    wct_op,
)
from .measure import (
    GeometricSpace,
    GridSpace,
    MeasureSpace,
    Mfunc,
    Partition,
    ensure_on_space,
    geometric_space,
    grid_space,
    make_partition,
    make_space,
    singleton_blocks,
)

__version__ = "0.1.0"
