"""PPP Hamiltonian construction and the symmetry-shifted potential.

The model is H = T + V with nearest-neighbor hopping

    T = -tau sum_{<ij>,sigma} (a†_{i sigma} a_{j sigma} + h.c.)

and a density-density potential screened by the Ohno formula

    V = u sum_i n_{i up} n_{i down}
        + sum_{i<j} v_ij (n_i - 1)(n_j - 1),   v_ij = u / sqrt(1 + alpha r_ij²).

The shifted potential V' = V + c1 N̂ + c2 N̂² has the same fixed-filling
spectra up to a constant but far fewer Pauli terms: a suitable c2 removes
the most frequent pairwise-coefficient class entirely, after which all
single-Z coefficients coincide and c1 removes them too.  On nq qubits

    N̂  = nq/2 - (1/2) sum_q Z_q,
    N̂² = (nq²/4 + nq/4) - (nq/2) sum_q Z_q + (1/2) sum_{p<q} Z_p Z_q,

with dyadic coefficients, so V' is assembled term by term from these closed
forms, never as a Pauli-sum product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lattice import Lattice
from .pauli import PauliSum, jw_potential

COEFF_BIN_REL = 1e-9


@dataclass(frozen=True)
class PppParams:
    """Standard PPP parameters (energies in eV, alpha in 1/Å²)."""

    tau: float = 2.4
    u: float = 11.13
    alpha: float = 0.6117

    def __post_init__(self):
        for name in ("tau", "u", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def ohno(self, r: float) -> float:
        return self.u / np.sqrt(1.0 + self.alpha * r * r)


@dataclass(frozen=True)
class ShiftParams:
    c1: float
    c2: float


class FermionHamiltonian:
    """Second-quantized PPP Hamiltonian on a lattice.

    Stores hopping coefficients per bond (spin-independent), on-site u per
    site, and the full pairwise Ohno matrix.
    """

    def __init__(self, lattice: Lattice, params: PppParams):
        self.lattice = lattice
        self.params = params
        self.site_count = lattice.n_sites
        self.bonds = list(lattice.bonds)
        self.hop_coeff = -params.tau
        self.on_site = np.full(self.site_count, params.u)
        d = lattice.distances
        self.v = params.ohno(d)
        np.fill_diagonal(self.v, 0.0)

    def hops(self):
        """Yield ((site_i, site_j), spin, coefficient) for every hopping term."""
        for i, j in self.bonds:
            for spin in (0, 1):
                yield (i, j), spin, self.hop_coeff


def build_ppp(lattice: Lattice) -> FermionHamiltonian:
    """The PPP Hamiltonian of a lattice with the standard ``PppParams``."""
    return FermionHamiltonian(lattice, PppParams())


def bin_coefficients(values, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Classes of nearly equal coefficients, found by one sweep of the sorted values.

    A class starts at the smallest value not yet assigned and takes every
    value v with v - start <= rel_tol · max|values|.  Classes are numbered in
    ascending order.  Returns (class id of each value, index of each class's
    first-seen member).
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    tol = rel_tol * np.abs(values).max(initial=0.0)
    starts = np.zeros(len(values), dtype=bool)
    i = 0
    while i < len(ranked):
        starts[i] = True
        i += int(np.searchsorted(ranked[i:] - ranked[i], tol, side="right"))
    ids = np.empty(len(values), dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids, np.unique(ids, return_index=True)[1]


def choose_shift(jw_potential: PauliSum) -> ShiftParams:
    """Pick (c1, c2) that zero the modal ZZ class and all single-Z terms.

    The modal class is the most numerous set of equal-coefficient two-qubit
    ZZ terms; ties break toward the larger |coefficient|.  N̂² contributes
    c2/2 to every qubit-pair ZZ coefficient, so c2 = -2 · (modal ZZ
    coefficient).  With that fixed, every single-Z coefficient of
    V + c2 N̂² is the same value h, and c1 = 2h cancels them (N̂
    contributes -c1/2 per qubit).
    """
    nq = jw_potential.n_qubits
    zz_coeffs = [
        complex(c).real
        for (x, z), c in jw_potential.terms.items()
        if x == 0 and z.bit_count() == 2
    ]
    if not zz_coeffs:
        return ShiftParams(0.0, 0.0)
    ids, first = bin_coefficients(zz_coeffs, COEFF_BIN_REL)
    counts = np.bincount(ids)
    # max() keeps the first of equal keys, so classes go in first-seen order
    modal = max(np.argsort(first), key=lambda k: (counts[k], abs(zz_coeffs[first[k]])))
    c2 = -2.0 * zz_coeffs[first[modal]]

    n_elec_half = nq // 2  # N̂² single-Z coefficient is -c2 · N at half scale
    single_z = [
        complex(c).real
        for (x, z), c in jw_potential.terms.items()
        if x == 0 and z.bit_count() == 1
    ]
    h_vals = [v - c2 * n_elec_half for v in single_z]
    # all single-Z coefficients of V + c2 N̂² must coincide for the shift
    # to remove the whole class; assert homogeneity
    if h_vals:
        if max(h_vals) - min(h_vals) > COEFF_BIN_REL * max(1.0, max(abs(v) for v in h_vals)):
            raise ValueError("single-Z coefficients not homogeneous; shift invalid")
        h_freq = h_vals[0]
    else:
        h_freq = 0.0
    c1 = 2.0 * h_freq
    return ShiftParams(c1=c1, c2=c2)


def apply_shift(jw_potential: PauliSum, shift: ShiftParams, n_sites: int) -> tuple[PauliSum, float]:
    """Return (V' without identity, scalar offset) for V' = V + c1 N̂ + c2 N̂²."""
    nq = 2 * n_sites
    if jw_potential.n_qubits != nq:
        raise ValueError("qubit count mismatch")
    singles = [1 << q for q in range(nq)]
    # same additions, in the same order, as V + c1 N̂ + c2 N̂² by Pauli algebra
    shifted = jw_potential.copy()
    shifted.add_term(0, 0, shift.c1 * (nq / 2))
    for z in singles:
        shifted.add_term(0, z, shift.c1 * -0.5)
    shifted.add_term(0, 0, shift.c2 * (nq * nq / 4 + nq / 4))
    for z in singles:
        shifted.add_term(0, z, shift.c2 * (-nq / 2))
    for p, q in combinations(singles, 2):
        shifted.add_term(0, p | q, shift.c2 * 0.5)
    shifted = shifted.require_real("shifted potential").pruned()
    body, offset = shifted.split_identity()
    return body, float(complex(offset).real)


def shifted_potential(lattice: Lattice):
    """Convenience: build V, choose the shift, and return (V', offset, shift, V)."""
    v_jw = jw_potential(build_ppp(lattice))
    shift = choose_shift(v_jw)
    v_shifted, offset = apply_shift(v_jw, shift, lattice.n_sites)
    return v_shifted, offset, shift, v_jw
