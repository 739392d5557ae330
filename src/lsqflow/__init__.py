"""Distributed least-squares over networks: saddle-point flows, spectral
convergence tests, Euler step-size thresholds, and switching simulations."""

from .errors import (
    ConditionViolatedError,
    ConfigParseError,
    DimensionMismatchError,
    DivergedError,
    EquilibriumInfeasibleError,
    InternalInconsistencyError,
    InvalidNodeError,
    LsqflowError,
    NoStableModesError,
    NotCharacterizedError,
    NothingToPlotError,
    NumericalFailureError,
    RankDeficientError,
    SchemaError,
    StepAlignmentError,
    TooSmallError,
)
from .problem import (
    LeastSquaresSolution,
    NetworkLinearEquation,
    solve_least_squares,
)
from .graphs import (
    FAMILIES,
    Graph,
    LaplacianSpectrum,
    SupportReport,
    family_min_support,
    graph_from_dict,
    laplacian,
    make_family,
    make_graph,
    spectrum,
    support_report,
)
from .spectral import (
    AssembledFlow,
    ConditionVerdict,
    SpectralReport,
    assemble,
    build_spectral_report,
    check_condition,
    epsilon_star,
    equilibrium_dual,
    m_spectrum,
    predict_v_limit,
)
from .simulate import (
    DiscreteConfig,
    Trajectory,
    component_names,
    component_series,
    simulate_ct,
    simulate_dt,
    simulate_damped,
    write_trajectory_csv,
)
from .switching import (
    SwitchingSignal,
    simulate_switching,
)
from .plotting import PlotSpec, emit_plot
from .config import MODES, RunConfig, parse_config
from .cli import main, run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
