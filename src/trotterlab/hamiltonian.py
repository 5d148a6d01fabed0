"""The PPP model and the symmetry-shifted potential.

The model is H = T + V with hopping ``TAU`` on the bonds,

    T = sum_{ij,sigma} h_ij a†_{i sigma} a_{j sigma},   h_ij = -TAU on a bond, else 0,

and a density-density potential screened by the Ohno formula

    V = U sum_i n_{i up} n_{i down}
        + sum_{i<j} v_ij (n_i - 1)(n_j - 1),   v_ij = U / sqrt(1 + ALPHA r_ij²).

``TAU``, ``U`` and ``ALPHA`` are fixed; ``build_ppp`` is the one place that
turns a lattice into the arrays (h, on-site U, v) of ``FermionHamiltonian``,
and ``hopping_matrix`` the one place that puts -TAU on a list of bonds.

The shifted potential V' = V + c1 N̂ + c2 N̂² has the same fixed-filling
spectra up to a constant but far fewer Pauli terms: a suitable c2 removes
the most frequent pairwise-coefficient class entirely, after which all
single-Z coefficients coincide and c1 removes them too.  On nq qubits

    N̂  = nq/2 - (1/2) sum_q Z_q,
    N̂² = (nq²/4 + nq/4) - (nq/2) sum_q Z_q + (1/2) sum_{p<q} Z_p Z_q,

with dyadic coefficients, so V' is built from these closed forms, never as a
Pauli-sum product: ``shifted_potential`` takes V's coefficient array and the
Z-weight of each term (0, 1 or 2) from ``pauli``, picks the shift from that
array, adds the shift's identity, single-Z and qubit-pair coefficients to it
and builds the pruned Pauli sum once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .pauli import PauliSum, _potential_terms, pruned_real

COEFF_BIN_REL = 1e-9


# Standard PPP parameters: hopping and on-site energy in eV, Ohno alpha in 1/Å²
TAU = 2.4
U = 11.13
ALPHA = 0.6117


@dataclass(frozen=True)
class ShiftParams:
    c1: float
    c2: float


@dataclass(frozen=True)
class FermionHamiltonian:
    """The PPP Hamiltonian of one molecule as arrays: the n x n one-body
    hopping matrix ``h`` (spin-independent, zero diagonal), the on-site U of
    each site and the n x n Ohno pair matrix ``v`` (zero diagonal)."""

    h: np.ndarray
    on_site: np.ndarray
    v: np.ndarray

    @property
    def site_count(self) -> int:
        return len(self.h)


def hopping_matrix(n_sites: int, bonds) -> np.ndarray:
    """The n x n hopping matrix with -TAU on each of ``bonds``, both ways round."""
    h = np.zeros((n_sites, n_sites))
    for i, j in bonds:
        h[i, j] = h[j, i] = -TAU
    return h


def build_ppp(lattice: Lattice) -> FermionHamiltonian:
    """The PPP Hamiltonian of a lattice: -TAU on its bonds, U on every site and
    the Ohno v_ij = U / sqrt(1 + ALPHA r_ij²) between distinct sites."""
    r = lattice.distances
    v = U / np.sqrt(1.0 + ALPHA * r * r)
    np.fill_diagonal(v, 0.0)
    return FermionHamiltonian(hopping_matrix(lattice.n_sites, lattice.bonds),
                              np.full(lattice.n_sites, U), v)


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


def shifted_potential(lattice: Lattice) -> tuple[PauliSum, float, ShiftParams, PauliSum]:
    """(V' without identity, its identity coefficient, the shift, V) for the
    PPP potential V of ``lattice`` and V' = V + c1 N̂ + c2 N̂².

    The shift zeroes the modal ZZ class and all single-Z terms.  The modal
    class is the most numerous set of equal-coefficient ZZ terms
    (``bin_coefficients``); ties break toward the larger |coefficient|, then
    the class seen first in term order.  N̂² contributes c2/2 to every
    qubit-pair ZZ coefficient, so c2 = -2 · (modal ZZ coefficient).  With that
    fixed, every single-Z coefficient of V + c2 N̂² is the same value h, and
    c1 = 2h cancels them (N̂ contributes -c1/2 per qubit).  V' is V's terms
    with the closed-form coefficients of c1 N̂ and c2 N̂² added, in the order
    Pauli-sum algebra adds them, then pruned (``pruned_real``).
    """
    nq = 2 * lattice.n_sites
    keys, v, weights = _potential_terms(build_ppp(lattice))
    identity, single, pair = weights == 0, weights == 1, weights == 2
    zz = v[pair]
    ids, first = bin_coefficients(zz, COEFF_BIN_REL)
    counts = np.bincount(ids)
    # max() keeps the first of equal keys, so classes go in first-seen order
    modal = max(np.argsort(first), key=lambda k: (counts[k], abs(zz[first[k]])))
    c2 = -2.0 * float(zz[first[modal]])
    h_vals = v[single] - c2 * (nq // 2)  # c2 N̂² adds -c2 nq/2 to each single Z
    if h_vals.max() - h_vals.min() > COEFF_BIN_REL * max(1.0, np.abs(h_vals).max()):
        raise ValueError("single-Z coefficients not homogeneous; shift invalid")
    c1 = 2.0 * float(h_vals[0])
    shifted = np.empty_like(v)
    shifted[identity] = (v[identity] + c1 * (nq / 2)) + c2 * (nq * nq / 4 + nq / 4)
    shifted[single] = (v[single] + c1 * -0.5) + c2 * (-nq / 2)
    shifted[pair] = zz + c2 * 0.5
    body = pruned_real(nq, keys, shifted)
    offset = body.terms.pop((0, 0), 0.0)
    return body, offset, ShiftParams(c1, c2), PauliSum(nq, dict(zip(keys, v.tolist())))
