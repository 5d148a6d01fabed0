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

with dyadic coefficients, so V' is built from these closed forms, never as a
Pauli-sum product: ``choose_shift`` reads V's coefficients as one array, and
``apply_shift`` adds the nq + 1 identity and single-Z coefficients of each of
c1 N̂ and c2 N̂² as two batches and c2/2 to the qubit-pair coefficients as one
array, then checks and prunes that array and builds the Pauli sum once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, repeat

import numpy as np

from .lattice import Lattice
from .pauli import PauliSum, jw_potential, pruned_real, real_coefficients

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
    ZZ terms, in term order; ties break toward the larger |coefficient|.
    N̂² contributes c2/2 to every qubit-pair ZZ coefficient, so
    c2 = -2 · (modal ZZ coefficient).  With that fixed, every single-Z
    coefficient of V + c2 N̂² is the same value h, and c1 = 2h cancels them
    (N̂ contributes -c1/2 per qubit).
    """
    nq = jw_potential.n_qubits
    coeffs = np.array(list(jw_potential.terms.values())).real
    weights = jw_potential.diagonal_weights()
    zz_coeffs = coeffs[weights == 2]
    if not zz_coeffs.size:
        return ShiftParams(0.0, 0.0)
    ids, first = bin_coefficients(zz_coeffs, COEFF_BIN_REL)
    counts = np.bincount(ids)
    # max() keeps the first of equal keys, so classes go in first-seen order
    modal = max(np.argsort(first), key=lambda k: (counts[k], abs(zz_coeffs[first[k]])))
    c2 = -2.0 * float(zz_coeffs[first[modal]])

    n_elec_half = nq // 2  # N̂² single-Z coefficient is -c2 · N at half scale
    h_vals = coeffs[weights == 1] - c2 * n_elec_half
    # all single-Z coefficients of V + c2 N̂² must coincide for the shift
    # to remove the whole class; assert homogeneity
    if h_vals.size:
        if h_vals.max() - h_vals.min() > COEFF_BIN_REL * max(1.0, np.abs(h_vals).max()):
            raise ValueError("single-Z coefficients not homogeneous; shift invalid")
        h_freq = float(h_vals[0])
    else:
        h_freq = 0.0
    c1 = 2.0 * h_freq
    return ShiftParams(c1=c1, c2=c2)


def _add_terms(terms: dict, keys: list, coeffs: list) -> None:
    """``PauliSum.add_term`` for each of the distinct ``keys`` in order: a sum
    of exactly zero leaves ``terms``, a new key goes to the end."""
    new = np.array(list(map(terms.get, keys, repeat(0.0)))) + coeffs
    zero = new == 0
    for key in compress(keys, zero):
        terms.pop(key, None)
    terms.update(zip(compress(keys, ~zero), new[~zero].tolist()))


def apply_shift(jw_potential: PauliSum, shift: ShiftParams, n_sites: int) -> tuple[PauliSum, float]:
    """Return (V' without identity, scalar offset) for V' = V + c1 N̂ + c2 N̂².

    The same additions, in the same order, as V + c1 N̂ + c2 N̂² by Pauli
    algebra (``PauliSum.add_term``): the identity and single Z of c1 N̂, then
    those of c2 N̂², as two batches of nq + 1 terms; then c2/2 on every
    qubit-pair ZZ, on the coefficient array in term order, a pair V lacks
    going to the end.  One array check of the imaginary parts
    (``real_coefficients``) and one pruned build (``pruned_real``) follow.
    """
    nq = 2 * n_sites
    if jw_potential.n_qubits != nq:
        raise ValueError("qubit count mismatch")
    singles = [(0, 0)] + [(0, 1 << q) for q in range(nq)]
    shifted = jw_potential.copy()
    _add_terms(shifted.terms, singles, [shift.c1 * (nq / 2)] + [shift.c1 * -0.5] * nq)
    _add_terms(shifted.terms, singles,
               [shift.c2 * (nq * nq / 4 + nq / 4)] + [shift.c2 * (-nq / 2)] * nq)
    half_c2 = shift.c2 * 0.5
    keys = list(shifted.terms)
    coeffs = np.array(list(shifted.terms.values()))
    pairs = shifted.diagonal_weights() == 2
    coeffs = np.where(pairs, coeffs + half_c2, coeffs)
    kept = ~pairs | (coeffs != 0)
    keys, coeffs = list(compress(keys, kept)), coeffs[kept]
    if np.count_nonzero(pairs) < nq * (nq - 1) // 2 and half_c2 != 0:
        bits = [1 << q for q in range(nq)]
        absent = [(0, p | q) for p, q in combinations(bits, 2) if (0, p | q) not in shifted.terms]
        keys += absent
        coeffs = np.concatenate([coeffs, np.full(len(absent), half_c2)])
    body = pruned_real(nq, keys, real_coefficients(keys, coeffs, "shifted potential"))
    offset = body.terms.pop((0, 0), 0.0)
    return body, offset


def shifted_potential(lattice: Lattice):
    """Convenience: build V, choose the shift, and return (V', offset, shift, V)."""
    v_jw = jw_potential(build_ppp(lattice))
    shift = choose_shift(v_jw)
    v_shifted, offset = apply_shift(v_jw, shift, lattice.n_sites)
    return v_shifted, offset, shift, v_jw
