"""fds: dyadic sets with prescribed Assouad-type spectra, plus estimators
and cross-verifiers for their dimensions."""

from .dyadic import DyadicTree
from .errors import BudgetError, FormatError
from .schedule import BranchingSchedule, CompositeSet, materialize
from .constructions import (
    ConcaveTarget,
    TwoPhaseParams,
    closed_form_u,
    concave_union,
    finite_sup_oracle,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    rational_enumeration,
    target_from_poly,
    two_phase_schedule,
)
from .spectra import (
    estimate_box,
    estimate_quasi_assouad,
    estimate_spectrum,
    estimate_upper,
    verify_bound,
    verify_chain,
    verify_main_theorem,
    verify_nthroot,
)

__version__ = "0.1.0"
