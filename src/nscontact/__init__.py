"""Event-capturing time stepping for linear elastodynamics with
unilateral contact and Newton impacts, plus a per-step energy audit
that evaluates the schemes' exact discrete energy identities."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    InconsistentSpec,
    InvalidSpec,
    LcpFailure,
    NoSolutionFound,
    NonFiniteValue,
    NonSymmetric,
    NotApplicable,
    NotAvailable,
    NotPositiveDefinite,
    NscontactError,
    NumericalBreakdown,
    RestitutionOutOfRange,
    SimulationError,
    SingularIterationMatrix,
    ZeroDiagonal,
)
from .model import (
    ForcingKind,
    ForcingTerm,
    LagrangianModel,
    SchemeSpec,
    SchemeVariant,
    StepRecord,
    SystemState,
    build_model,
    gap,
    initial_state,
    local_velocity,
)
from .lcp import (
    LcpProblem,
    LcpSolution,
    LcpStatus,
    solve_enumeration,
    solve_lemke,
    solve_pgs,
)
from .integrators import (
    IterationMatrixCache,
    active_set,
    build_cache,
    simulate,
    step,
)
from .energy import (
    EnergyReport,
    algorithmic_energy,
    audit_step,
    contact_work,
    discrete_works,
    total_energy,
    update_filters,
)
from .scenarios import ScenarioSpec, build_scenario, reference_solution

__version__ = "0.1.0"
