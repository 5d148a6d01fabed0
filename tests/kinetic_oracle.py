"""Finite-t oracle for the kinetic splitting error.

``effective_kinetic`` forms A_delta(t) = (i/t) log of the sectioned product
times exp(i A t) directly, one matrix exponential per factor and one
Hermitian log, and ``eigenmodes`` reads its spectrum.  The package takes
W_T and A_T as t -> 0 limits from A_2 instead; the tests hold those limits
against this oracle.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh

from fock_oracle import full_matrix
from trotterlab.sector import hermitian_exponential, principal_log_spectrum

BRANCH_MARGIN = 1e-6


def eigenmodes(matrix):
    """Eigenvalues of a Hermitian A_delta in descending order; its spectrum
    must be symmetric about zero, as for any tiling of a bipartite lattice."""
    if np.abs(matrix - matrix.conj().T).max() > 1e-12:
        raise ValueError("effective kinetic matrix is not Hermitian")
    modes = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    if np.abs(modes + modes[::-1]).max() > 1e-10:
        raise ValueError("eigenmode spectrum is not symmetric about zero")
    return modes


def effective_kinetic(sections, t):
    """A_delta at time step t as ``matrix`` with its ``eigenmodes``.

    Every factor of the product is exponentiated from the eigenpairs of its
    real symmetric matrix, and A_delta = (i/t) log of the product comes from
    one Hermitian eigensolve (``sector.principal_log_spectrum``).
    """
    if t <= 0:
        raise ValueError("time step must be positive")
    n = sections.n_modes
    if sections.n_sections == 1:
        matrix = np.zeros((n, n))
    else:
        prod = hermitian_exponential(eigh(full_matrix(sections), driver="evd"), -t)
        halves = [hermitian_exponential(eigh(mat, driver="evd"), t / 2)
                  for mat in sections.matrices]
        for half in halves + halves[::-1]:
            prod = prod @ half
        modes, vecs = principal_log_spectrum(prod, t, BRANCH_MARGIN)
        gen = (vecs * modes) @ vecs.conj().T
        matrix = (gen + gen.conj().T) / 2
    return SimpleNamespace(matrix=matrix, eigenmodes=eigenmodes(matrix))
