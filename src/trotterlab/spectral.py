"""Energy and gap errors of the effective Hamiltonian.

A second-order product formula U at time step t equals exp(-i H_eff t) for a
Hermitian effective Hamiltonian H_eff whose eigenvalues are what phase
estimation measures.  Both routes take one Trotter step, every factor by its
``Propagator`` on sector vectors and each run of hopping factors as one
species pass (``_trotter_step``), which refuses a factor whose sector matrix
is not real.  A palindromic product of real symmetric factors' exponentials
is complex symmetric, U = U^T, and both routes rest on that.  Small sectors
build U as that step on identity blocks and take the spectrum of
H_eff = (i/t) log U from one real eigensolve of its Cayley transform;
larger ones build g_k = <psi|U^k|psi>, g_2k and g_(2k+1) both from U^k psi
and U^(k+1) psi, so n values take ceil(n/2) steps, and locate the dominant
pole of a Gaussian-filtered Fourier reconstruction.
"""

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .hamiltonian import hopping_matrix
from .pauli import one_body_pauli_sum
from .resources import CHEMICAL_ACCURACY  # noqa: F401  re-exported
from .sector import Propagator, dense_from_action, principal_log_spectrum, species_products

_GRID_POINTS = 8192
# Gaussian filter width (radians) of every energy extraction
_FILTER_WIDTH = 0.05
# matched eigenstates with a smaller squared overlap are flagged
_MIN_OVERLAP = 0.9


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
    """Both-spin hopping Pauli sum of a bond subset: ``one_body_pauli_sum`` of
    its ``hopping_matrix``, terms in the matrix's row-major order."""
    return one_body_pauli_sum(hopping_matrix(n_sites, bonds))


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


def _trotter_step(scheme, basis):
    """The product formula's step on a sector vector or a (dim, w) block, one
    ``Propagator`` per distinct factor, built here.  Each maximal run of
    consecutive hopping factors takes one species pass
    (``sector.species_products``) on their exponentials; a potential factor
    takes its phases.  A factor or a basis that the propagators refuse, or a
    factor whose sector matrix is not real, raises ``ValueError`` before any
    state is touched: only real factors make a palindromic U symmetric,
    which the dense log and the doubled time series both rely on."""
    props = {}
    for op, _ in scheme.factors:
        if id(op) not in props:
            props[id(op)] = Propagator(op, basis)
    if not all(prop.sop.is_real for prop in props.values()):
        raise ValueError("a Trotter factor's sector matrix is not real, so U is not symmetric")
    runs = [(diagonal, [(props[id(op)], dur) for op, dur in run])
            for diagonal, run in groupby(scheme.factors,
                                         key=lambda factor: props[id(factor[0])].diagonal_only)]

    def step(psi):
        for diagonal, run in runs:
            if diagonal:
                for prop, dur in run:
                    psi = prop.apply(psi, dur)
            else:
                psi = species_products(basis, [prop.exponentials(dur) for prop, dur in run], psi)
        return psi

    return step


def scheme_unitary_dense(scheme, basis):
    """Sector-restricted dense unitary of the product formula: the time
    series' own step (``_trotter_step``) on blocks of the identity's columns
    (``dense_from_action``)."""
    return dense_from_action(_trotter_step(scheme, basis), basis.dim)


def effective_spectrum_dense(scheme, basis):
    """Eigenpairs of H_eff = (i/t) log U on the sector, branch-checked.

    A scheme is palindromic and each factor's exponential is symmetric, so
    U = U^T: its Cayley transform is real symmetric, and one real
    eigensolve of it (``sector.principal_log_spectrum``) gives (energies
    ascending, real orthonormal eigenvectors as columns).
    """
    return principal_log_spectrum(scheme_unitary_dense(scheme, basis), scheme.time_step)


def effective_hamiltonian_dense(scheme, basis):
    """H_eff = (i/t) log U on the sector as a dense real symmetric matrix,
    from the real eigenvectors of ``effective_spectrum_dense``."""
    energies, vecs = effective_spectrum_dense(scheme, basis)
    h_eff = (vecs * energies) @ vecs.T
    return (h_eff + h_eff.T) / 2


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
    """g_k = <psi|U^k|psi>, k = 0..n_steps, from ceil(n_steps / 2) Trotter steps.

    psi = a + i b is propagated as the real columns [a, b] of one block,
    Phi_k = U^k [a, b], b left out when it is zero (as for every eigenvector
    the package computes).  U is symmetric (``_trotter_step``), so the cross
    terms a^T U^m b - b^T U^m a cancel and g_m = a^T U^m a + b^T U^m b,
    which the unconjugated column products give as
    g_2k = sum_c Phi_k[:, c]^T Phi_k[:, c] and
    g_(2k+1) = sum_c Phi_k[:, c]^T Phi_(k+1)[:, c].
    """
    step = _trotter_step(scheme, basis)
    psi = np.asarray(state)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    parts = [psi.real, psi.imag] if np.iscomplexobj(psi) and psi.imag.any() else [psi.real]
    current = np.column_stack(parts) / norm
    values = [1.0 + 0.0j]
    for _ in range((n_steps + 1) // 2):
        following = step(current)
        values.append(complex(np.dot(current.ravel(), following.ravel())))
        current = following
        values.append(complex(np.dot(current.ravel(), current.ravel())))
    return TimeSeries(np.array(values[:n_steps + 1]), scheme.time_step, label, scheme.kind)


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
