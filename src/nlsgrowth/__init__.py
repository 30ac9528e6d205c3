"""Lattice and continuum NLS with bounded data: propagators, growth
diagnostics, local conservation laws, and a Newton scheme for analytic data.
"""

__version__ = "0.1.0"

from .errors import (
    ContractionError,
    LinearizedBlowupError,
    NewtonDivergenceError,
    NumericsError,
    QuadratureError,
)
from .fields import (
    GridField,
    InitialData,
    LatticeField,
    Mollifier,
    WeightProfile,
    chi_eval,
    gaussian_comb_eval,
    make_initial_grid,
    make_initial_lattice,
)
from .lattice import (
    LatticeModel,
    LatticeRunRecord,
    global_energy as lattice_global_energy,
    local_energy,
    local_mass,
    run_lattice,
    run_lattice_batch,
    sup_time_derivative,
    windowed_mass_avg,
    windowed_quartic_avg,
)
from .lattice_linear import (
    KernelTable,
    StationaryPhaseApprox,
    adversarial_data,
    kernel_integral,
    kernel_table,
    linear_evolve,
    pairing_check,
    random_ensemble_second_moment,
    stationary_phase_eval,
)
from .continuum import (
    ContinuumModel,
    LocalEnergyProbe,
    Trajectory,
    bootstrap_monitor,
    comb_oracle,
    global_energy,
    global_mass,
    linear_propagate,
    local_energy_probe,
    mollify,
    picard_solve,
    regularized_nonlinearity,
    run_continuum,
)
from .newton import (
    AnalyticNormParams,
    RadiusSchedule,
    majorant_norm,
    newton_iterate,
    residual,
    residual_first,
    solve_linearized,
)
from .wave import WaveState, nlw_cone_test, nlw_energy, run_nlw
