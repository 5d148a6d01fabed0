"""Fock-space oracles: Pauli sums as full 2^n matrices, and the symmetry
operators and matrices that only the tests build.

``dense_matrix`` forms an operator column by column from its action on
basis states (``apply_to_basis_state``), string by string, with no sector
and no grouping of terms, so it checks the sector engine from outside.
"""

import numpy as np

from trotterlab.pauli import PauliSum, qubit_index


def apply_to_basis_state(op: PauliSum, bits: int) -> dict[int, complex]:
    """Action of ``op`` on a computational basis state given as an
    occupation int (bit q = occupation of qubit q), as {bits: amplitude}."""
    out: dict[int, complex] = {}
    for (x, z), c in op.terms.items():
        amp = c * (1j ** ((x & z).bit_count() % 4))
        if (z & bits).bit_count() % 2:
            amp = -amp
        target = bits ^ x
        out[target] = out.get(target, 0.0) + amp
    return {b: a for b, a in out.items() if a != 0}


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix in the full 2^n computational basis (small n only)."""
    dim = 1 << op.n_qubits
    if op.n_qubits > 14:
        raise ValueError("dense matrix limited to 14 qubits")
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        for tgt, amp in apply_to_basis_state(op, b).items():
            mat[tgt, b] += amp
    return mat


def number_operator(n_sites: int) -> PauliSum:
    """Total electron number N̂ = Σ (1 - Z_q)/2 as a Pauli sum."""
    nq = 2 * n_sites
    out = PauliSum(nq, {(0, 0): float(nq) / 2.0})
    for q in range(nq):
        out.add_term(0, 1 << q, -0.5)
    return out


def sz_operator(n_sites: int) -> PauliSum:
    """Total S_z = (1/2) Σ_i (n_i↑ - n_i↓)."""
    out = PauliSum(2 * n_sites)
    for i in range(n_sites):
        out.add_term(0, 1 << qubit_index(i, 0, n_sites), -0.25)
        out.add_term(0, 1 << qubit_index(i, 1, n_sites), 0.25)
    return out


def full_matrix(sections) -> np.ndarray:
    """The whole n x n hopping matrix of ``KineticSections``: the sum of its
    section matrices."""
    return sum(sections.matrices)
