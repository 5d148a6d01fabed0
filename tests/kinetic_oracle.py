"""Finite-t oracle for the kinetic splitting error.

``effective_kinetic`` forms A_delta(t) = (i/t) log of the sectioned product
between two factors exp(i A t / 2) directly, one matrix exponential per
factor and one log, and ``eigenmodes`` reads its spectrum.  The package takes
W_T and A_T as t -> 0 limits from A_2 instead; the tests hold those limits
against this oracle.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh

from fock_oracle import full_matrix
from trotterlab.sector import principal_log_spectrum


def _exponential(matrix, t):
    """exp(-i t M) of a real symmetric M from its eigenpairs."""
    vals, vecs = eigh(matrix, driver="evd")
    return (vecs * np.exp(-1j * t * vals)) @ vecs.T


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

    Every factor is exponentiated from the eigenpairs of its real symmetric
    matrix.  The product exp(i A t / 2) S exp(i A t / 2), S the palindromic
    section product, is similar to exp(i A t) S, so it has the same
    spectrum, and it is symmetric, so A_delta = (i/t) log of it comes from
    one real eigensolve (``sector.principal_log_spectrum``).
    """
    if t <= 0:
        raise ValueError("time step must be positive")
    n = sections.n_modes
    if sections.n_sections == 1:
        matrix = np.zeros((n, n))
    else:
        undo = _exponential(full_matrix(sections), -t / 2)
        halves = [_exponential(mat, t / 2) for mat in sections.matrices]
        prod = undo
        for factor in halves + halves[::-1] + [undo]:
            prod = prod @ factor
        modes, vecs = principal_log_spectrum(prod, t)
        gen = (vecs * modes) @ vecs.T
        matrix = (gen + gen.T) / 2
    return SimpleNamespace(matrix=matrix, eigenmodes=eigenmodes(matrix))
