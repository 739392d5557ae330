import lsqflow as lf

# The public surface: what the CLI, the scripts and library callers use.
# Helpers that only the tests use live in tests/_helpers.py instead.
PUBLIC = [
    # errors
    "ConditionViolatedError", "ConfigParseError", "DimensionMismatchError", "DivergedError",
    "EquilibriumInfeasibleError", "InternalInconsistencyError", "InvalidNodeError",
    "LsqflowError", "NoStableModesError", "NotCharacterizedError", "NothingToPlotError",
    "NumericalFailureError", "RankDeficientError", "SchemaError", "StepAlignmentError",
    "TooSmallError",
    # problem
    "LeastSquaresSolution", "NetworkLinearEquation", "solve_least_squares",
    # graphs
    "FAMILIES", "Graph", "LaplacianSpectrum", "SupportReport", "family_min_support",
    "graph_from_dict", "laplacian", "make_family", "make_graph", "spectrum", "support_report",
    # spectral
    "AssembledFlow", "ConditionVerdict", "SpectralReport", "assemble", "build_spectral_report",
    "check_condition", "epsilon_star", "equilibrium_dual",
    "m_spectrum", "predict_v_limit",
    # simulate and switching
    "DiscreteConfig", "Trajectory", "component_names", "component_series", "simulate_ct",
    "simulate_damped", "simulate_dt", "write_trajectory_csv", "SwitchingSignal",
    "simulate_switching",
    # plotting, config and the CLI
    "PlotSpec", "emit_plot", "MODES", "RunConfig", "parse_config", "main", "run",
    # the modules themselves
    "cli", "config", "errors", "graphs", "plotting", "problem", "simulate", "spectral",
    "switching",
]


def test_public_names_are_pinned():
    assert sorted(lf.__all__) == sorted(PUBLIC)
