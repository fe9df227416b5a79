"""Conditioned von Neumann pointer readout with a photon-added coherent probe.

Two independent engines compute the same observables: `analytic` evaluates
closed-form kernel expressions, `fock` assembles truncated number-basis
vectors and measures them.  `metrology` builds SNR and Fisher-information
figures of merit on the matrix engine, `sweep` runs parameter grids for the
standard figures, and `verify`/`audit` hold the self-checking machinery.
"""

from .analytic import (
    ShiftResult,
    initial_moments,
    pointer_shifts,
    transition_value,
    weak_limit_shifts,
)
from .audit import AuditRecord, run_audit
from .fock import (
    AssembledState,
    FockOperator,
    FockVector,
    TruncationInsufficient,
    TruncationPolicy,
    assemble_final_state,
    displacement_operator,
    moments,
    nonpostselected_moments,
    spac_state,
    transition_moment,
)
from .metrology import (
    DegenerateReference,
    EngineMismatch,
    FisherReport,
    SnrReport,
    qfi,
    snr,
)
from .model import (
    Coupling,
    OrthogonalSelection,
    Point,
    PointerMoments,
    PointerParams,
    SelectionParams,
    postselection_probability,
    strong_conditional_value,
    weak_value,
)
from .sweep import PRESETS, SweepSpec, preset, run_sweep, write_csv
from .verify import VerifyReport, run_verify

__version__ = "1.0.0"

__all__ = [
    "AssembledState",
    "AuditRecord",
    "Coupling",
    "DegenerateReference",
    "EngineMismatch",
    "FisherReport",
    "FockOperator",
    "FockVector",
    "OrthogonalSelection",
    "PRESETS",
    "Point",
    "PointerMoments",
    "PointerParams",
    "SelectionParams",
    "ShiftResult",
    "SnrReport",
    "SweepSpec",
    "TruncationInsufficient",
    "TruncationPolicy",
    "VerifyReport",
    "assemble_final_state",
    "displacement_operator",
    "initial_moments",
    "moments",
    "nonpostselected_moments",
    "pointer_shifts",
    "postselection_probability",
    "preset",
    "qfi",
    "run_audit",
    "run_sweep",
    "run_verify",
    "snr",
    "spac_state",
    "strong_conditional_value",
    "transition_moment",
    "transition_value",
    "weak_limit_shifts",
    "weak_value",
    "write_csv",
    "__version__",
]
