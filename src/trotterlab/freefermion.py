"""Kinetic-operator splitting errors via the single-particle reduction.

The hopping operator T conserves spin, so everything here works on the
n x n single-particle matrix A per spin species (T = sum_ij A_ij a_i^+ a_j
with zero diagonal).  The second-order sectioned propagator

    U_T = prod_s exp(-i T_s t/2) prod_rev exp(-i T_s t/2)

differs from exp(-i T t) by exp(-i T_delta t); the effective matrix
A_delta = (i/t) log(exp(iAt) prod exp(-iA_s t/2) prod_rev exp(-iA_s t/2))
gives the exact splitting error on the Fock space, because the map from
matrices to quadratic operators preserves commutators and therefore the
whole BCH series.  Each factor is exponentiated from the eigenpairs of its
real symmetric matrix, and the log is one Hermitian eigensolve of the
product's Cayley transform (``sector.principal_log_spectrum``).  The
worst-case constant W_T follows from the largest fixed-filling eigenvalue
sum, the average-case constant A_T from the exact normalized fixed-filling
trace, an elementary symmetric mean of the eigenmode phases; both are
fitted from the same A_delta per time step (``kinetic_fits``).
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .hamiltonian import PppParams
from .norms import ErrorConstant
from .sector import hermitian_exponential, principal_log_spectrum

# time steps of the cubic fits
T_GRID = (0.01, 0.03, 0.05)
_BRANCH_MARGIN = 1e-6


@dataclass(frozen=True)
class KineticSections:
    """Partition of the hopping matrix into section matrices A_s.

    The last section sits at the center of the symmetric product and is
    applied once per Trotter step; every other section is applied twice.
    Gate counts are per application of one spin species.
    """

    n_modes: int
    matrices: tuple
    names: tuple
    rotations: tuple
    t_gates: tuple

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValueError("at least one section is required")
        for name, mat in zip(self.names, self.matrices):
            if mat.shape != (self.n_modes, self.n_modes):
                raise ValueError("section %r has wrong shape" % name)
            if np.abs(np.diag(mat)).max(initial=0.0) > 0:
                raise ValueError("section %r has nonzero diagonal" % name)
            if np.abs(mat - mat.T).max() > 1e-12:
                raise ValueError("section %r is not symmetric" % name)

    @property
    def n_sections(self):
        return len(self.matrices)

    @property
    def full_matrix(self):
        return sum(self.matrices)

    def gate_counts(self):
        """(rotations, T gates) per Trotter step of U_T, both spins."""
        n_rot = 0
        n_t = 0
        for s in range(self.n_sections):
            mult = 1 if s == self.n_sections - 1 else 2
            n_rot += mult * self.rotations[s]
            n_t += mult * self.t_gates[s]
        return 2 * n_rot, 2 * n_t


@dataclass(frozen=True)
class EffectiveKineticMatrix:
    matrix: np.ndarray
    time_step: float
    eigenmodes: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm > 1e-12:
            raise ValueError("effective kinetic matrix is not Hermitian")
        modes = np.sort(np.linalg.eigvalsh(self.matrix))[::-1]
        if np.abs(modes + modes[::-1]).max() > 1e-10:
            raise ValueError("eigenmode spectrum is not symmetric about zero")
        object.__setattr__(self, "eigenmodes", modes)

    def filled_norm(self, filling):
        """Spectral norm of T_delta at fixed per-spin fillings.

        filling is (n_up, n_down); hopping conserves spin, so the norm is
        the sum over spin species of the largest-filling eigenmode sums.
        """
        total = 0.0
        for n_occ in filling:
            if not 0 <= n_occ <= self.matrix.shape[0]:
                raise ValueError("filling out of range")
            total += float(self.eigenmodes[:n_occ].sum())
        return total


def default_filling(n_sites):
    """Per-spin electron counts at half filling (N electrons in N sites)."""
    n_up = (n_sites + 1) // 2
    return n_up, n_sites - n_up


def single_section(lattice):
    """The trivial S=1 sectioning: one section holding all of T."""
    tau = PppParams().tau
    mat = np.zeros((lattice.n_sites, lattice.n_sites))
    for i, j in lattice.bonds:
        mat[i, j] = mat[j, i] = -tau
    n_bonds = len(lattice.bonds)
    return KineticSections(
        n_modes=lattice.n_sites,
        matrices=(mat,),
        names=("all",),
        rotations=(n_bonds,),
        t_gates=(2 * n_bonds,),
    )


def tiling_path(family, size_n):
    """Path to the shipped tiling file for a supported molecule."""
    from importlib.resources import files

    resource = files("trotterlab") / "tilings" / ("%s%d.json" % (family, size_n))
    if not resource.is_file():
        raise ValueError("no shipped tiling for %s-%d" % (family, size_n))
    return str(resource)


def load_tiling(path):
    with open(path) as fh:
        spec = json.load(fh)
    for key in ("family", "size_n", "sections"):
        if key not in spec:
            raise ValueError("tiling spec missing field %r" % key)
    return spec


def tile_sections(lattice, tiling_spec):
    """Build KineticSections from a tiling spec: a dict, or the path of a JSON
    file (``str``, ``bytes`` or ``os.PathLike``) read by ``load_tiling``."""
    if not isinstance(tiling_spec, dict):
        tiling_spec = load_tiling(tiling_spec)
    tau = PppParams().tau
    if tiling_spec["family"] != lattice.family or tiling_spec["size_n"] != lattice.size_n:
        raise ValueError(
            "tiling spec is for %s-%d, lattice is %s-%d"
            % (tiling_spec["family"], tiling_spec["size_n"], lattice.family, lattice.size_n)
        )
    bond_set = {tuple(sorted(b)) for b in lattice.bonds}
    seen = set()
    matrices, names, rotations, t_gates = [], [], [], []
    for section in tiling_spec["sections"]:
        mat = np.zeros((lattice.n_sites, lattice.n_sites))
        for raw in section["bonds"]:
            bond = tuple(sorted(raw))
            if bond not in bond_set:
                raise ValueError("tiling bond %s is not a lattice bond" % (bond,))
            if bond in seen:
                raise ValueError("tiling bond %s assigned twice" % (bond,))
            seen.add(bond)
            i, j = bond
            mat[i, j] = mat[j, i] = -tau
        matrices.append(mat)
        names.append(section["name"])
        rotations.append(int(section["rotations"]))
        t_gates.append(int(section["t_gates"]))
    missing = bond_set - seen
    if missing:
        raise ValueError("tiling leaves %d bonds uncovered" % len(missing))
    return KineticSections(
        n_modes=lattice.n_sites,
        matrices=tuple(matrices),
        names=tuple(names),
        rotations=tuple(rotations),
        t_gates=tuple(t_gates),
    )


def effective_kinetic(sections, t):
    """Effective splitting-error matrix A_delta at time step t.

    Every factor of the product is exponentiated from the eigenpairs of its
    real symmetric matrix, and A_delta = (i/t) log of the product comes from
    one Hermitian eigensolve (``sector.principal_log_spectrum``).
    """
    if t <= 0:
        raise ValueError("time step must be positive")
    n = sections.n_modes
    if sections.n_sections == 1:
        return EffectiveKineticMatrix(matrix=np.zeros((n, n)), time_step=t)
    prod = hermitian_exponential(eigh(sections.full_matrix, driver="evd"), -t)
    halves = [hermitian_exponential(eigh(mat, driver="evd"), t / 2) for mat in sections.matrices]
    for half in halves:
        prod = prod @ half
    for half in reversed(halves):
        prod = prod @ half
    modes, vecs = principal_log_spectrum(prod, t, _BRANCH_MARGIN)
    gen = (vecs * modes) @ vecs.conj().T
    return EffectiveKineticMatrix(matrix=(gen + gen.conj().T) / 2, time_step=t)


@dataclass(frozen=True)
class KineticFit:
    """Cubic fit value = constant * t^3 over a time-step grid."""

    constant: ErrorConstant
    t_grid: tuple
    errors: tuple
    r_squared: float


def _filling_deviations(phases, k_max):
    """D_k = E_k - 1 for k = 0..k_max.

    E_k is the mean of exp(i sum_{j in S} phases_j) over the k-subsets S of
    the modes.  Adding mode m to the first m - 1 gives
    E_k <- ((m-k)/m) E_k + (k/m) exp(i phases_m) E_{k-1}; it is carried out
    on D with w = expm1(i phases_m), so no step subtracts two numbers close
    to one.
    """
    dev = np.zeros(k_max + 1, dtype=complex)
    for m, w in enumerate(np.expm1(1j * phases), start=1):
        k = np.arange(1, min(m, k_max) + 1)
        prev = dev[k - 1]
        dev[k] = ((m - k) / m) * dev[k] + (k / m) * (w * (1.0 + prev) + prev)
    return dev


def _worst_error(eff, filling):
    """|1 - exp(-i ||T_delta|| t)| at the fixed fillings."""
    return abs(1.0 - np.exp(-1j * eff.filled_norm(filling) * eff.time_step))


def _average_error(eff, filling):
    """sqrt(2 - 2 Re(P_up P_down)), P_sigma the normalized fixed-filling
    trace of exp(i T_delta t) for one spin species; 1 - P_up P_down is
    formed from the deviations D_sigma = P_sigma - 1 directly."""
    dev = _filling_deviations(eff.time_step * eff.eigenmodes, max(filling))
    d_up, d_down = dev[filling[0]], dev[filling[1]]
    loss = -(d_up + d_down + d_up * d_down).real
    return float(np.sqrt(max(2.0 * loss, 0.0)))


def _kinetic_fit(kind, method, errors):
    """Least-squares fit of errors = constant * t^3 over ``T_GRID``."""
    t3 = np.asarray(T_GRID, dtype=float) ** 3
    y = np.asarray(errors, dtype=float)
    coeff = float(np.dot(t3, y)) / float(np.dot(t3, t3))
    resid = y - coeff * t3
    total = float(np.dot(y, y))
    return KineticFit(
        constant=ErrorConstant(kind=kind, scheme="kinetic", value=coeff,
                               provenance={"method": method}),
        t_grid=T_GRID,
        errors=tuple(errors),
        r_squared=1.0 if total == 0.0 else 1.0 - float(np.dot(resid, resid)) / total,
    )


def kinetic_fits(sections):
    """(W_T fit, A_T fit) at half filling, both from one A_delta per time
    step of ``T_GRID``."""
    filling = default_filling(sections.n_modes)
    effective = [effective_kinetic(sections, t) for t in T_GRID]
    return (
        _kinetic_fit("worst", "eigenmode-sum norm, cubic fit",
                     [_worst_error(eff, filling) for eff in effective]),
        _kinetic_fit("average", "exact fixed-filling trace",
                     [_average_error(eff, filling) for eff in effective]),
    )


def worst_case_kinetic(sections):
    """W_T from |1 - exp(-i ||T_delta|| t)| fitted as W_T t^3."""
    return kinetic_fits(sections)[0]


def average_case_kinetic(sections):
    """A_T from the exact normalized fixed-filling trace of exp(i T_delta t),
    fitted as A_T t^3."""
    return kinetic_fits(sections)[1]
