"""Energy and gap errors of the effective Hamiltonian.

A second-order product formula U at time step t equals exp(-i H_eff t) for a
Hermitian effective Hamiltonian H_eff whose eigenvalues are what phase
estimation measures.  Small sectors build U densely (hopping factors
exponentiated from one Hermitian eigensolve each) and take the spectrum of
H_eff = (i/t) log U from one more, of the Cayley transform of U; larger ones
go through the time-series route: build g_k = <psi|U^k|psi> with exact
sector propagation and locate the dominant pole of a Gaussian-filtered
Fourier reconstruction.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .hamiltonian import PppParams
from .pauli import PauliSum, add_hop, qubit_index
from .resources import CHEMICAL_ACCURACY  # noqa: F401  re-exported
from .sector import (
    DENSE_DIM_LIMIT,
    Propagator,
    SectorOperator,
    hermitian_exponential,
    principal_log_spectrum,
)

_GRID_POINTS = 8192
# Gaussian filter width (radians) of every energy extraction
_FILTER_WIDTH = 0.05
# matched eigenstates with a smaller squared overlap are flagged
_MIN_OVERLAP = 0.9
# phases this close to +-pi leave the branch of log U ambiguous
_BRANCH_MARGIN = 1e-9


# -- schemes ------------------------------------------------------------------


@dataclass(frozen=True)
class TrotterScheme:
    kind: str  # "SO" | "tile"
    time_step: float
    factors: tuple  # ((PauliSum, duration), ...) in application order

    def __post_init__(self):
        if self.kind not in ("SO", "tile"):
            raise ValueError("scheme kind must be 'SO' or 'tile'")
        if self.time_step <= 0:
            raise ValueError("time step must be positive")
        ids = [(id(op), dur) for op, dur in self.factors]
        if ids != ids[::-1]:
            raise ValueError("factor sequence must be palindromic")
        totals = {}
        for op, dur in self.factors:
            totals[id(op)] = totals.get(id(op), 0.0) + dur
        for total in totals.values():
            if abs(total - self.time_step) > 1e-12:
                raise ValueError("per-operator durations must sum to t")


def so_scheme(kinetic, potential, t):
    """U_SO = exp(-iVt/2) exp(-iTt) exp(-iVt/2)."""
    half = t / 2.0
    return TrotterScheme("SO", t, ((potential, half), (kinetic, t), (potential, half)))


def tile_scheme(section_sums, potential, t):
    """U_tile = exp(-iVt/2) U_T exp(-iVt/2) with the symmetric section product."""
    half = t / 2.0
    inner = [(op, half) for op in section_sums[:-1]]
    factors = (
        [(potential, half)]
        + inner
        + [(section_sums[-1], t)]
        + inner[::-1]
        + [(potential, half)]
    )
    return TrotterScheme("tile", t, tuple(factors))


def hopping_pauli_sum(n_sites, bonds):
    """Both-spin hopping Pauli sum for a bond subset (``qubit_index`` order)."""
    tau = PppParams().tau
    out = PauliSum(2 * n_sites)
    for i, j in bonds:
        for spin in (0, 1):
            add_hop(out, qubit_index(i, spin, n_sites), qubit_index(j, spin, n_sites), -tau)
    return out


def default_section_order(classes):
    """Arrange bond classes for a tile product with good gap cancellation.

    The smallest class sits just inside the outermost factor and the
    second-largest class takes the once-applied center slot; empirically
    this placement keeps low-lying gap errors far below the energy errors.
    """
    ordered = sorted(classes, key=len)
    if len(ordered) < 2:
        return list(ordered)
    return [ordered[-1]] + ordered[:-2] + [ordered[-2]]


# -- dense effective Hamiltonian ----------------------------------------------


def scheme_unitary_dense(scheme, basis):
    """Sector-restricted dense unitary of the product formula.

    Each distinct hopping factor is diagonalised once and exponentiated per
    duration from its eigenpairs; potential factors are diagonal phases.
    """
    if basis.dim > DENSE_DIM_LIMIT:
        raise ValueError("sector too large for the dense route")
    unitary = np.eye(basis.dim, dtype=complex)
    operators, eigenpairs, exponentials = {}, {}, {}
    for op, dur in scheme.factors:
        key = id(op)
        if key not in operators:
            operators[key] = SectorOperator(op, basis)
        sop = operators[key]
        if op.is_diagonal():
            unitary = np.exp(-1j * dur * np.real(sop.diagonal))[:, None] * unitary
            continue
        if key not in eigenpairs:
            eigenpairs[key] = eigh(sop.to_dense(), driver="evd")
        if (key, dur) not in exponentials:
            exponentials[key, dur] = hermitian_exponential(eigenpairs[key], dur)
        unitary = exponentials[key, dur] @ unitary
    return unitary


def effective_spectrum_dense(scheme, basis):
    """Eigenpairs of H_eff = (i/t) log U on the sector, branch-checked.

    Returns (energies ascending, orthonormal eigenvectors as columns) from
    one Hermitian eigensolve of the Cayley transform of U
    (``sector.principal_log_spectrum``).
    """
    return principal_log_spectrum(scheme_unitary_dense(scheme, basis), scheme.time_step,
                                  _BRANCH_MARGIN)


def effective_hamiltonian_dense(scheme, basis):
    """H_eff = (i/t) log U on the sector as a dense Hermitian matrix."""
    energies, vecs = effective_spectrum_dense(scheme, basis)
    h_eff = (vecs * energies) @ vecs.conj().T
    return (h_eff + h_eff.conj().T) / 2


def pair_eigenstates(vecs_exact, vecs_effective):
    """Greedy max-|overlap|^2 matching between two eigenbases.

    Returns a list of (exact_index, effective_index, overlap_sq, flagged),
    one per state, flagged when overlap_sq < ``_MIN_OVERLAP``.
    """
    overlap = np.abs(vecs_exact.conj().T @ vecs_effective) ** 2
    dim = overlap.shape[0]
    work = overlap.copy()
    matches = [None] * dim
    for _ in range(dim):
        m, n = np.unravel_index(np.argmax(work), work.shape)
        matches[m] = (int(m), int(n), float(overlap[m, n]), overlap[m, n] < _MIN_OVERLAP)
        work[m, :] = -1.0
        work[:, n] = -1.0
    return matches


# -- time series --------------------------------------------------------------


@dataclass(frozen=True)
class TimeSeries:
    values: np.ndarray  # g_k, k = 0..N
    time_step: float
    state_label: str = ""
    scheme_kind: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if abs(vals[0] - 1.0) > 1e-10:
            raise ValueError("g_0 must equal 1")
        if np.abs(vals).max() > 1.0 + 1e-10:
            raise ValueError("|g_k| must not exceed 1")
        object.__setattr__(self, "values", vals)


def compute_time_series(scheme, basis, state, n_steps, label=""):
    """g_k = <psi|U^k|psi> by repeated exact sector propagation.

    The state is reshaped once to its layout matrix; every factor acts on
    that form (``Propagator``) and g_k is taken in it.
    """
    psi = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    psi = (psi / norm).reshape(basis.shape)
    props = {}
    for op, _ in scheme.factors:
        if id(op) not in props:
            props[id(op)] = Propagator(op, basis)
    values = [1.0 + 0.0j]
    current = psi
    for _ in range(n_steps):
        for op, dur in scheme.factors:
            current = props[id(op)].apply(current, dur)
        values.append(complex(np.vdot(psi, current)))
    return TimeSeries(np.array(values), scheme.time_step, label, scheme.kind)


@dataclass(frozen=True)
class FilterSpec:
    """Truncated Fourier series of a periodic Gaussian filter."""

    width: float  # standard deviation a, radians
    order: int
    coefficients: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        if self.width <= 0 or self.order < 1:
            raise ValueError("filter needs positive width and order")
        ks = np.arange(self.order + 1)
        object.__setattr__(self, "coefficients", np.exp(-0.5 * (self.width * ks) ** 2))


def default_filter():
    """The Gaussian filter of width ``_FILTER_WIDTH``, truncated at order 6 / width."""
    return FilterSpec(width=_FILTER_WIDTH, order=int(np.ceil(6.0 / _FILTER_WIDTH)))


def filter_objective(series, filt):
    """C(x) = f_0 + 2 Re sum_{k=1}^{order} f_k g_k e^{ikx} on the uniform grid
    x_j = -pi + 2 pi j / G, j = 1..G, over (-pi, pi], with G = ``_GRID_POINTS``.

    There e^{ikx_j} = (-1)^k e^{2 pi i kj / G}, so with a_k = (-1)^k f_k g_k,
    folded onto k mod G (exact for any order), C(x_j) is
    f_0 + 2 Re[G ifft(a)]_{j mod G}: one inverse FFT of length G.
    """
    order = min(filt.order, len(series.values) - 1)
    grid = -np.pi + 2 * np.pi * (np.arange(1, _GRID_POINTS + 1) / _GRID_POINTS)
    ks = np.arange(1, order + 1)
    terms = np.zeros((order // _GRID_POINTS + 1) * _GRID_POINTS, dtype=complex)
    terms[ks] = np.where(ks % 2, -1.0, 1.0) * filt.coefficients[ks] * series.values[ks]
    folded = terms.reshape(-1, _GRID_POINTS).sum(axis=0)
    sums = np.roll(_GRID_POINTS * np.fft.ifft(folded).real, -1)
    return grid, filt.coefficients[0] + 2.0 * sums


def _objective_slope(x, series, filt, order):
    """C'(x) = -2 sum_k k f_k (sin(kx) Re g_k + cos(kx) Im g_k)."""
    ks = np.arange(1, order + 1)
    kfk = ks * filt.coefficients[1 : order + 1]
    g = series.values[1 : order + 1]
    return float(-2.0 * (np.sin(ks * x) @ (kfk * g.real) + np.cos(ks * x) @ (kfk * g.imag)))


def extract_energy(series, filt, prior_energy):
    """Effective energy from the dominant pole of the filtered series.

    The pole is the root of the objective's derivative, bracketed by the
    grid cells around the grid maximum and bisected to 1e-15.  A root moves
    with the series to first order, where the maximum of the objective, flat
    to second order, would move by about the square root of a last-bit
    change.

    prior_energy (eV) selects the 2*pi/t branch; it should come from the
    exact Hamiltonian, whose eigenvalue the effective one barely departs.
    """
    order = min(filt.order, len(series.values) - 1)
    grid, values = filter_objective(series, filt)
    spread = values.max() - values.min()
    if spread < 1e-9 * max(abs(values.max()), 1.0):
        raise ValueError("objective is flat: no dominant pole")
    peak = int(np.argmax(values))
    cell = 2 * np.pi / _GRID_POINTS
    a, b = grid[peak] - cell, grid[peak] + cell
    if _objective_slope(a, series, filt, order) < 0 or _objective_slope(b, series, filt, order) > 0:
        raise ValueError("objective has no maximum next to the grid peak")
    while b - a > 1e-15:
        mid = (a + b) / 2.0
        if _objective_slope(mid, series, filt, order) > 0:
            a = mid
        else:
            b = mid
    x_star = (a + b) / 2.0
    t = series.time_step
    energy = x_star / t
    period = 2.0 * np.pi / t
    return energy + period * np.round((prior_energy - energy) / period)


# -- error constants ----------------------------------------------------------


@dataclass(frozen=True)
class StateRecord:
    label: str
    exact_energy: float
    effective_energy: float
    signed_constant: float  # (E_eff - E_exact) / t^2
    constant: float  # |E_eff - E_exact| / t^2


@dataclass(frozen=True)
class PairRecord:
    labels: tuple
    exact_gap: float
    effective_gap: float
    constant: float  # |gap difference| / t^2


@dataclass(frozen=True)
class SpectrumReport:
    time_step: float
    states: tuple
    pairs: tuple


def error_constants(exact_energies, effective_energies, t, pairs=()):
    """Per-state and per-pair Trotter error constants at fixed t; state m is
    labelled "m"."""
    exact = np.asarray(exact_energies, dtype=float)
    eff = np.asarray(effective_energies, dtype=float)
    if exact.shape != eff.shape:
        raise ValueError("energy arrays must align")
    labels = [str(m) for m in range(len(exact))]
    states = tuple(
        StateRecord(
            label=labels[m],
            exact_energy=float(exact[m]),
            effective_energy=float(eff[m]),
            signed_constant=float((eff[m] - exact[m]) / t**2),
            constant=float(abs(eff[m] - exact[m]) / t**2),
        )
        for m in range(len(exact))
    )
    pair_records = []
    for m, n in pairs:
        gap = float(exact[m] - exact[n])
        eff_gap = float(eff[m] - eff[n])
        pair_records.append(
            PairRecord(
                labels=(labels[m], labels[n]),
                exact_gap=gap,
                effective_gap=eff_gap,
                constant=float(abs(gap - eff_gap) / t**2),
            )
        )
    return SpectrumReport(time_step=t, states=states, pairs=tuple(pair_records))
