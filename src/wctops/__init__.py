"""Weighted conditional type operators on finite atomic measure spaces.

Constructs operators of the form ``f -> w E(u f)`` (a multiplication, a
conditional expectation, another multiplication) and classifies them as
m-isometric / quasi-m-isometric / normal (on a finite space the same as
hyponormal and p-hyponormal for every p > 0) along two independent
routes: the defect operators, computed on the rank-one block cores read
from the operator's action, and symbol-level criteria, with an audit that
cross-validates the two.
"""

from .classify import DefectOracle
from .condexp import CondExp, block_averages
from .criteria import (
    NormalCaseReport,
    SymbolTable,
    audit_rows,
    binomial_table,
    essential_range,
    findings,
    normal_case_equivalence,
    spectrum_deviation,
    symbols,
)
from .errors import NumericError, ValidationError
from .linop import Action, wct_action
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
