"""Phase-estimation gate costs from Trotter error constants.

Two costing modes share the same downstream arithmetic.  In fixed-error
mode a cubic error constant G (worst, average, or energy) sets the number
of Trotter steps; in fixed-timestep mode the step count follows from the
time step directly, with the Trotter error budgeted separately through the
gap analysis.  A fraction x of the accuracy budget epsilon pays for
rotation synthesis, the rest for Trotter and phase error.

Rotations dominate the non-Clifford cost: each arbitrary rotation costs
1.15 log2(1/delta) + 9.2 T gates at synthesis tolerance delta, and T gates
convert to Toffoli at two T per Toffoli.  The Hamming-weight-phasing
variant batches same-angle rotations that act on disjoint qubits, trading
rotations for Toffoli overhead and N - 1 ancillas.
"""

from dataclasses import dataclass, field, replace
from math import ceil, log2, pi, sqrt

import numpy as np

from .hamiltonian import COEFF_BIN_REL, bin_coefficients

CHEMICAL_ACCURACY = 0.04354  # eV
DEFAULT_X = 0.02

# Power-law extrapolation of the energy error constant with system size,
# fitted on the computed molecules; coefficients are caller-visible.
ENERGY_CONSTANT_FITS = {
    "SO": (1.34, 1.008),
    "tile": (1.49, 1.066),
}


@dataclass(frozen=True)
class PerStepGates:
    """Rotation and raw-T counts of one Trotter step (both spins)."""

    n_rotations: int
    n_t_gates: int

    def __post_init__(self):
        if self.n_rotations < 0 or self.n_t_gates < 0:
            raise ValueError("gate counts must be nonnegative")


@dataclass(frozen=True)
class CostParams:
    per_step: PerStepGates
    n_sites: int
    epsilon: float = CHEMICAL_ACCURACY
    x: float = DEFAULT_X
    mode: str = "fixed_timestep"  # "fixed_error" | "fixed_timestep"
    constant: float | None = None  # G (eV^3), fixed_error mode
    time_step: float | None = None  # t (eV^-1), fixed_timestep mode

    def __post_init__(self):
        if not 0 < self.x < 1:
            raise ValueError("x must lie strictly between 0 and 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.mode == "fixed_error":
            if self.constant is None or self.time_step is not None:
                raise ValueError("fixed_error mode takes a constant, no time step")
            if self.constant <= 0:
                raise ValueError("error constant must be positive")
        elif self.mode == "fixed_timestep":
            if self.time_step is None or self.constant is not None:
                raise ValueError("fixed_timestep mode takes a time step, no constant")
            if self.time_step <= 0:
                raise ValueError("time step must be positive")
        else:
            raise ValueError("mode must be 'fixed_error' or 'fixed_timestep'")


@dataclass(frozen=True)
class CostReport:
    mode: str
    n_steps: int
    t_implied: float | None
    t_per_step_gates: int
    total_t: int
    total_toffoli: int
    logical_qubits: int
    n_runs: int
    inputs: dict = field(default_factory=dict)
    hwp: dict | None = None


def steps_fixed_error(constant, epsilon=CHEMICAL_ACCURACY, x=DEFAULT_X):
    """Trotter steps for one run when a cubic error constant G is known."""
    if constant <= 0:
        return 1
    raw = 6.203 * sqrt(constant) / ((1.0 - x) ** 1.5 * epsilon**1.5)
    return max(1, ceil(raw))


def steps_fixed_timestep(time_step, epsilon=CHEMICAL_ACCURACY, x=DEFAULT_X):
    """Trotter steps for one run at a fixed time step."""
    raw = 2.28 * pi / (2.0 * (1.0 - x) * epsilon * time_step)
    return max(1, ceil(raw))


def implied_timestep(constant, epsilon=CHEMICAL_ACCURACY, x=DEFAULT_X):
    """Time step at which the fixed-error run spends its step budget.

    Total evolution time is the same in both modes, so
    t = sqrt((1 - x) epsilon / (3 G)) makes the two step counts agree.
    """
    if constant <= 0:
        raise ValueError("error constant must be positive")
    return sqrt((1.0 - x) * epsilon / (3.0 * constant))


def rotation_t_cost(synthesis_arg):
    """T gates per arbitrary rotation, 1.15 log2(arg) + 9.2."""
    if synthesis_arg <= 1.0:
        raise ValueError("synthesis argument must exceed 1")
    return 1.15 * log2(synthesis_arg) + 9.2


def t_gates_per_step(params):
    """Total T gates of one Trotter step, synthesis included."""
    n_r = params.per_step.n_rotations
    n_t = params.per_step.n_t_gates
    if n_r == 0:
        return n_t
    if params.mode == "fixed_error":
        arg = (
            n_r
            * sqrt(params.constant)
            / (params.x * sqrt(1.0 - params.x) * params.epsilon**1.5)
        )
    else:
        arg = n_r / (params.x * params.epsilon * params.time_step)
    return ceil(n_r * rotation_t_cost(arg) + n_t)


def total_cost(params, gap=False):
    """Full cost report; gap=True doubles the run count (two QPE rounds)."""
    if params.mode == "fixed_error":
        n_steps = steps_fixed_error(params.constant, params.epsilon, params.x)
        t_implied = implied_timestep(params.constant, params.epsilon, params.x)
    else:
        n_steps = steps_fixed_timestep(params.time_step, params.epsilon, params.x)
        t_implied = None
    per_step = t_gates_per_step(params)
    n_runs = 2 if gap else 1
    total_t = n_runs * n_steps * per_step
    return CostReport(
        mode=params.mode,
        n_steps=n_steps,
        t_implied=t_implied,
        t_per_step_gates=per_step,
        total_t=total_t,
        total_toffoli=ceil(total_t / 2),
        logical_qubits=2 * params.n_sites + 2,
        n_runs=n_runs,
        inputs={
            "epsilon": params.epsilon,
            "x": params.x,
            "constant": params.constant,
            "time_step": params.time_step,
            "n_rotations": params.per_step.n_rotations,
            "n_t_gates": params.per_step.n_t_gates,
            "n_sites": params.n_sites,
        },
    )


# -- Hamming weight phasing ---------------------------------------------------


def rotation_groups(potential, rel_tol=COEFF_BIN_REL):
    """Same-angle rotation groups of a diagonal potential operator.

    Returns a list of (group_size, max_qubit_occurrence) over coefficient
    classes of the non-identity terms, in ascending coefficient order;
    coefficients are binned with a relative tolerance (``bin_coefficients``).
    """
    if not potential.is_diagonal():
        raise ValueError("potential must be diagonal")
    zs, coeffs = [], []
    for (x, z), c in potential.terms.items():
        if z:
            zs.append(z)
            coeffs.append(complex(c).real)
    if not zs:
        return []
    ids, first = bin_coefficients(coeffs, rel_tol)
    width = (potential.n_qubits + 7) // 8
    raw = np.frombuffer(b"".join(z.to_bytes(width, "little") for z in zs), dtype=np.uint8)
    term, qubit = np.nonzero(np.unpackbits(raw.reshape(len(zs), width), axis=1,
                                           bitorder="little"))
    n_bits = 8 * width
    # (class x qubit) occurrence table, flattened
    occurrence = np.bincount(ids[term] * n_bits + qubit, minlength=len(first) * n_bits)
    busiest = occurrence.reshape(len(first), n_bits).max(axis=1)
    return list(zip(np.bincount(ids).tolist(), busiest.tolist()))


def hwp_potential_rotations(potential):
    """(rotations, added toffolis) for one application of exp(-iVt).

    Within each same-angle group, terms sharing a qubit must run
    sequentially, so a group of size g with busiest-qubit multiplicity m
    runs as m sequential batches of average width g / m.  Each batch
    collapses to one rotation, and folding a rotation into the batch's
    Hamming weight costs one Toffoli, so the group leaves m rotations and
    g - m Toffolis.
    """
    rotations = 0
    toffolis = 0
    for size, max_occ in rotation_groups(potential):
        rotations += max_occ
        toffolis += size - max_occ
    return rotations, toffolis


def hwp_kinetic_rotations(sections):
    """(rotations, added toffolis) per Trotter step of U_T, both spins.

    All tiles within a section share the angle and act on disjoint qubits,
    so each section application collapses to a single rotation.
    """
    rotations = 0
    toffolis = 0
    n = sections.n_sections
    for s in range(n):
        mult = 2 * (1 if s == n - 1 else 2)  # both spins
        rotations += mult
        toffolis += mult * (sections.rotations[s] - 1)
    return rotations, toffolis


def hwp_estimate(params, potential, sections, gap=False):
    """Cost report under Hamming weight phasing with N - 1 ancillas."""
    base = total_cost(params, gap=gap)
    pot_rot, pot_tof = hwp_potential_rotations(potential)
    kin_rot, kin_tof = hwp_kinetic_rotations(sections)
    rotations = min(pot_rot + kin_rot, params.per_step.n_rotations)
    added_toffoli = pot_tof + kin_tof
    per_step = t_gates_per_step(
        replace(params, per_step=replace(params.per_step, n_rotations=rotations)))
    total_t = base.n_runs * base.n_steps * per_step
    n = params.n_sites
    return replace(
        base,
        t_per_step_gates=per_step,
        total_t=total_t,
        total_toffoli=ceil(total_t / 2) + base.n_runs * base.n_steps * added_toffoli,
        logical_qubits=2 * n + 1 + (n - 1) + 1,
        hwp={
            "rotations_per_step": rotations,
            "added_toffoli_per_step": added_toffoli,
            "potential_rotations": pot_rot,
            "kinetic_rotations": kin_rot,
            "ancilla_qubits": n - 1,
        },
    )


# -- extrapolation ----------------------------------------------------------


def extrapolated_energy_constant(scheme, n_sites):
    """Power-law a * N^b estimate of the energy error constant, from the
    ``ENERGY_CONSTANT_FITS`` of ``scheme``."""
    if scheme not in ENERGY_CONSTANT_FITS:
        raise ValueError("no extrapolation fit for scheme %r" % scheme)
    a, b = ENERGY_CONSTANT_FITS[scheme]
    return a * n_sites**b
