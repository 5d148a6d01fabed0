"""PPP models of nanographenes, Trotter error constants, and QPE gate costs."""

__version__ = "0.1.0"

from .lattice import Lattice, bond_orientation_classes, build_lattice, site_count
from .hamiltonian import (
    FermionHamiltonian,
    ShiftParams,
    build_ppp,
    shifted_potential,
)
from .pauli import PauliSum, commutator, jordan_wigner, jw_potential
from .sector import (
    Propagator,
    SectorBasis,
    SectorOperator,
    enumerate_sector,
    half_filling_sector,
    lowest_eigenpairs,
)
from .norms import (
    ErrorConstant,
    HoppingCommutatorAction,
    NormEstimate,
    average_case_constant,
    dense_spectral_norm,
    frobenius_exact,
    frobenius_sampled,
    nested_commutators,
    spectral_norm_bound,
    worst_case_constant,
)
from .freefermion import (
    KineticSections,
    average_case_kinetic,
    second_order_matrix,
    single_section,
    tile_sections,
    tiling_path,
    worst_case_kinetic,
)
from .spectral import (
    CHEMICAL_ACCURACY,
    FilterSpec,
    TimeSeries,
    TrotterScheme,
    compute_time_series,
    default_filter,
    default_section_order,
    effective_hamiltonian_dense,
    effective_spectrum_dense,
    error_constants,
    extract_energy,
    hopping_pauli_sum,
    pair_eigenstates,
    so_scheme,
    tile_scheme,
)
from .resources import (
    CostParams,
    CostReport,
    PerStepGates,
    extrapolated_energy_constant,
    hwp_estimate,
    steps_fixed_error,
    steps_fixed_timestep,
    t_gates_per_step,
    total_cost,
)
