"""Simulator and analysis toolkit for the sphere-and-elastic measurement
machine: exact and Monte Carlo outcome statistics, the breakability
parameter interpolating between quantum and deterministic behavior, the
rod-coupled pair with its CHSH analysis, and the cut-and-renormalize
localization transform on densities."""

from .geometry import (
    Direction,
    ElasticSpec,
    Outcome,
    SphereState,
    angle_between,
    axis_coordinate,
)
from .analytic import (
    ProbabilityPair,
    SpinOperator,
    Spinor,
    born_probabilities,
    epsilon_probabilities,
    expectation,
    expectation_from_axis,
    linearity_deviation,
    probabilities_from_axis,
    quantum_probabilities,
    spin_operator,
    spinor_from_direction,
)
from .sampler import (
    FrequencyTable,
    RandomStream,
    TrialRecord,
    TrialRecords,
    hidden_outcome,
    measure,
    run_recorded,
    run_trials,
    sample_break_point,
)
from .epr import (
    ChshEstimate,
    ChshSetting,
    EntangledPair,
    chsh_analytic,
    chsh_estimate,
    correlation_analytic,
    correlation_mc,
    joint_counts,
    max_chsh,
    measure_pair,
    plane_direction,
    severed_chsh_scan,
    severed_correlation_mc,
)
from .climit import (
    CutReport,
    DensityGrid,
    DoubleSlitReport,
    Localization,
    double_slit_grid,
    double_slit_scenario,
    epsilon_transform,
    gaussian_grid,
    load_density_csv,
    localization,
    region_mass,
    save_density_csv,
    threshold_for_mass,
)
from .harness import ExperimentConfig, StatReport, ValidationError, chi_square, run

__version__ = "0.1.0"
