"""Exact-arithmetic Hermitian geometry on six-dimensional strongly
unimodular almost nilpotent Lie algebras.

The package verifies, searches for, and reports on special structures
(complex, SKT, LCSKT, balanced, LCB, LCK, first-Gauduchon, strongly
Gauduchon, tamed, Kahler) with exact rational arithmetic, backed by a
randomized float search layer whose findings are always re-verified exactly.
"""
from .scalars import GaussianRational, Poly, PolyRing
from .forms import Form
from .liealg import (
    LieAlgebra,
    parse_structure_equations,
    ce_differential,
    jacobi_holds,
    is_strongly_unimodular,
    find_nilradical,
)
from .cpx import (
    Complexification,
    ComplexFrame,
    instantiate_family,
    is_integrable,
    nijenhuis,
    squares_to_minus_id,
)
from .herm import (
    CHECKERS,
    ConditionReport,
    HermitianMetric,
    check_all,
    fundamental_form,
    lee_form,
    torsion_H,
)
from .catalog import (
    CONDITIONS,
    CatalogEntry,
    ExampleStructure,
    get_entry,
    list_entries,
    verify_entry,
    verify_example,
)
from .obstructions import obstruction_table, replay_obstruction_row, replay_all
from .search import (
    SearchConfig,
    SearchOutcome,
    find_complex_structure,
    find_metric,
    classification_sweep,
)
from .lattice import integrality_check, run_probe, builtin_probe

__version__ = "0.1.0"
