"""Symmetry-sector basis enumeration and sector-restricted linear algebra.

A sector fixes the electron count and 2·S_z.  Basis states are occupation
bitstrings packed into int64 (bit q = occupation of qubit q, spin-blocked
ordering of ``pauli.qubit_index``: on n sites, up electrons on the low n
bits, down ones on the high n).  The basis order is the up-major product of
the sorted single-species configurations, (up x down) flattened row by row,
so membership lookup is one binary search per species.  A basis keeps only
the two species lists: state i is up[i // m] | down[i % m] for m down
configurations, so sampling takes states by index pairs, and the full
sector-length list is built on first use, only by routes that enumerate
the sector: ``to_sparse`` (the CSR matrix of a sum off the layout route
below) and exact Frobenius norms (structured or Pauli column norms of
every state).

``SectorOperator`` is the one place a Pauli sum becomes sector matrix
elements.  All strings sharing an X-mask map |b> to |b ^ x> with a
state-dependent amplitude

    amp_x(b) = sum_z c_z i^{popcount(x & z)} (-1)^{popcount(z & b)},

which vectorizes over the whole basis with numpy bit tricks.
``_group_terms`` normalises a Pauli sum's terms once, into a pair (zs, cs)
per X-mask: the Z masks as an int64 array and the phased coefficients
c_z i^{popcount(x & z)}, float when the group is real.  ``_term_values`` is
the one sign kernel, c_z (-1)^{popcount(z & b)} per term and state, and its
column sums are amp_x.  The (target, source, amplitude) triples of all
X-masks, x = 0 among them, form the CSR sector matrix (``to_sparse``).
The diagonal is a polynomial in the occupation signs s_q = 1 - 2 bit_q(b);
of Z-weight <= 2, as a PPP potential is, it is one quadratic form
(``_DiagonalForm``).  Its up-up and down-down parts are vectors over the
species lists and its up-down part one matrix product of their sign
matrices, so D is evaluated on the (up x down) grid without the state list;
the form also gives D(b ^ x) - D(b) from a batch's signs s and x's bits alone.

Hopping conserves each spin species, so a sector vector reshaped to
``SectorBasis.shape``, C(n, n_up) x C(n, n_down), is a matrix Psi over (up
configuration, down configuration).  With the spins blocked, a hop's
Jordan-Wigner chain runs over its own species only, so an up hop acts on
the rows of Psi and a down hop on its columns, with no cross-species sign.
Every PPP operator (H, T, V, V', a tile section) is one-species hops with a
full Jordan-Wigner chain plus such a diagonal, so it acts as K_up Psi +
Psi K_down^T + D o Psi without a sector-size matrix, and the exponential of
a pure hopping operator as M_up Psi M_down^T.  Every other operator acts through its CSR
matrix, built once on first use.  Every dense sector matrix is an action on
blocks of the identity's columns (``dense_from_action``).

Hopping is one-body, so K_sigma and M_sigma = exp(-i t K_sigma) follow from
the n x n matrix k_sigma (``SectorOperator.one_body_matrices``), lifted onto
each species list by ``SectorBasis.species`` with one table of partners and
Jordan-Wigner signs per mode pair.  ``_givens_decomposition`` writes
u = exp(-i t k_sigma) as 2-mode unitaries R_1 ... R_m times a phase diagonal,
one R_k per bond of a matching (a tile section), n(n-1)/2 for a connected
hopping graph; M_sigma is the product of their lifts, kept dense where that
takes less memory than CSR.  Up and down products commute, so a run of
hopping factors takes every down product after one transpose of Psi and
every up product after one transpose back (``species_products``).

At S_z = 0 the two species lists coincide up to the shift by n, so a
hopping factor with K_up = K_down has one M for both species, and the
spin flip maps Psi to +-Psi^T (a singlet has Psi^T = Psi, a triplet
Psi^T = -Psi).  An operator that commutes with the flip (K_up = K_down,
D symmetric, as for the PPP Hamiltonian) therefore keeps the symmetric
layouts (S = 0, 2, ...) and the antisymmetric ones (S = 1, 3, ...) apart.
``enumerate_sector(n, N, 0, parity=+-1)`` gives either half as a basis of
its own, m(m + 1)/2 or m(m - 1)/2 entries for m configurations per species
(the triangle of Psi, ``SectorBasis.embed`` / ``restrict``), and a matvec
on it takes one sparse product, K Psi, instead of two.  A half has no list
of basis states, so the CSR matrix, |O|, the norms and the propagator
refuse it; eigensolves and <S^2> take it.

Above DENSE_DIM_LIMIT, eigensolves run the package's one Lanczos,
``thick_restart_lanczos``: a thick-restart Lanczos on a callable matvec,
whose basis is one preallocated array and whose own work per step is a few
in-place BLAS calls, so the matvecs it drives dominate its time.  It starts
from a fixed vector.  For a single state of an operator with hops on the
layout route it is the sector's free-fermion determinant plus equal-weight
noise: the lowest orbitals of each k_sigma filled, a determinant on each
species list (``_SpeciesLift.determinants``), and on the odd half, which
holds no product of equal factors, its antisymmetrised HOMO -> LUMO
excitation.  It overlaps a PPP ground state by about 0.9 where noise alone
gives 1/sqrt(dim), and the noise keeps every symmetry reachable.  k > 1, a
pure potential and the CSR route start from the noise alone.

Dense unitaries, a Trotter product on a small sector or a one-body product,
have their principal log from ``principal_log_spectrum``.  Each is a
palindromic product of exponentials of real symmetric matrices, so
U = U^T, and its Cayley transform is real symmetric: one real solve and one
real eigensolve give the eigenpairs of (i/t) log U, with real eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
from scipy.linalg import eigh, expm, get_blas_funcs
from scipy.sparse import csr_matrix, diags_array

from .pauli import PauliSum

# largest sector dimension handled through dense matrices
DENSE_DIM_LIMIT = 5000

# most sites a sector can have: configurations are int64 masks with the down
# spin of site i on bit i + n, so 32 sites would need the sign bit 63
MAX_SECTOR_SITES = 31

# the weight of each of the two layout entries of a spin-flip half's pair
_PAIR_WEIGHT = np.sqrt(0.5)


def _search(sorted_states: np.ndarray, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices into ``sorted_states``, whether each entry is there)."""
    idx = np.minimum(np.searchsorted(sorted_states, packed), len(sorted_states) - 1)
    return idx, sorted_states[idx] == packed


@dataclass(frozen=True)
class SectorBasis:
    """A fixed (N, 2 S_z) sector, held as its two sorted species lists.

    State i is ``up_states[i // m] | down_states[i % m]`` with
    m = len(down_states), so ``dim`` is the product of the two lengths and
    ``states_at`` gives any states by index without the full list.
    ``states``, the whole (up x down) list, is built on first use, for the
    routes that enumerate the sector: the CSR matrix, exact Frobenius norms
    and whole-basis column norms.

    ``parity`` +1 or -1 makes the basis a spin-flip half of an S_z = 0
    sector: the layout matrices with Psi^T = parity Psi.  Its vectors hold
    the diagonal of Psi (even half only), then one entry x per pair i < j,
    row by row, with Psi[i, j] = x / sqrt(2) and Psi[j, i] = parity x / sqrt(2),
    so ``embed`` (half to whole sector) is an isometry and ``restrict`` its
    adjoint.  A half has no list of basis states: the routes that need one
    raise ``ValueError`` (``require_whole_sector``).
    """

    n_sites: int
    electrons: int
    sz_twice: int
    up_states: np.ndarray = field(repr=False)  # sorted up configurations (bits 0 .. n-1)
    down_states: np.ndarray = field(repr=False)  # sorted down configurations (n .. 2n-1)
    parity: int = 0  # 0 for the whole sector, +1 / -1 for a spin-flip half

    @property
    def dim(self) -> int:
        if self.parity:
            m = len(self.up_states)
            return m * (m + self.parity) // 2
        return len(self.up_states) * len(self.down_states)

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_sites

    def require_whole_sector(self, route: str) -> None:
        """Raise ``ValueError`` for a route that has no meaning on a half."""
        if self.parity:
            raise ValueError("%s needs a whole sector, not a spin-flip half" % route)

    @cached_property
    def states(self) -> np.ndarray:
        """Every state as an int64 occupation int, in basis order; built on
        first use and kept."""
        self.require_whole_sector("states")
        return (self.up_states[:, None] | self.down_states[None, :]).ravel()

    def states_at(self, indices: np.ndarray) -> np.ndarray:
        """The states at the given basis indices, from their (up, down) pairs."""
        self.require_whole_sector("states_at")
        i_up, i_down = np.divmod(indices, len(self.down_states))
        return self.up_states[i_up] | self.down_states[i_down]

    def index_or_mask(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indices, validity mask); invalid entries get index 0.

        A state is in the sector when both its up and its down configuration
        are; its index is i_up * len(down_states) + i_down.
        """
        self.require_whole_sector("index_or_mask")
        up_bits = np.int64((1 << self.n_sites) - 1)
        i_up, up_valid = _search(self.up_states, packed & up_bits)
        i_down, down_valid = _search(self.down_states, packed & ~up_bits)
        valid = up_valid & down_valid
        return np.where(valid, i_up * len(self.down_states) + i_down, 0), valid

    @property
    def shape(self) -> tuple[int, int]:
        """(up configurations, down configurations): the shape of the layout
        matrix Psi that a sector vector reshapes to."""
        return len(self.up_states), len(self.down_states)

    @cached_property
    def species(self) -> tuple["_SpeciesLift", "_SpeciesLift"]:
        """One-body lifts onto the up list (qubits q) and the down list
        (qubits n + q), built on first use."""
        return (_SpeciesLift(self.up_states, self.n_sites, 0),
                _SpeciesLift(self.down_states, self.n_sites, self.n_sites))

    @cached_property
    def _upper(self) -> np.ndarray:
        """The (m, m) mask of a half's pairs i < j; Psi[mask] reads them row by row."""
        m = len(self.up_states)
        return np.arange(m)[:, None] < np.arange(m)

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v's diagonal of Psi (none on the odd half), its pairs at (i, j) and at (j, i)."""
        m = self.shape[0]
        psi = v.reshape((m, m) + v.shape[1:])
        diagonal = v[::m + 1] if self.parity > 0 else v[:0]
        return diagonal, psi[self._upper], psi.swapaxes(0, 1)[self._upper]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The whole-sector vector (or columns, along axis 0) of a half's
        vector x; x itself on a whole sector."""
        if not self.parity:
            return x
        m = self.shape[0]
        out = np.zeros((m * m,) + x.shape[1:], dtype=np.result_type(x, float))
        diagonal = m if self.parity > 0 else 0
        out[::m + 1][:diagonal] = x[:diagonal]
        pairs = x[diagonal:] * _PAIR_WEIGHT
        psi = out.reshape((m, m) + x.shape[1:])
        psi[self._upper] = pairs
        psi.swapaxes(0, 1)[self._upper] = pairs if self.parity > 0 else -pairs
        return out

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """The adjoint of ``embed``: a half's vector (or columns) from a
        whole-sector one; v itself on a whole sector."""
        if not self.parity:
            return v
        diagonal, upper, lower = self._split(v)
        pairs = upper + lower if self.parity > 0 else upper - lower
        pairs *= _PAIR_WEIGHT
        return np.concatenate([diagonal, pairs])


def _configurations(n_sites: int, count: int, offset: int) -> np.ndarray:
    """Sorted int64 configurations of ``count`` electrons on qubits i + ``offset``.

    With P_j the sorted j-electron configurations, the first C(t, j) entries
    of P_j are those on sites 0 .. t-1, so the entries whose highest
    occupied site is t are P_{j-1}[:C(t, j-1)] with bit t set, at
    C(t, j) .. C(t+1, j) (Pascal's rule).  One array of C(n, count) entries
    holds P_0 = [0] and then each P_j in turn, written over P_{j-1} from the
    highest site down, so every read of P_{j-1} comes before the writes that
    reach it.
    """
    out = np.zeros(comb(n_sites, count), dtype=np.int64)
    for j in range(1, count + 1):
        for t in range(n_sites - count + j - 1, j - 2, -1):
            np.bitwise_or(out[:comb(t, j - 1)], np.int64(1 << (t + offset)),
                          out=out[comb(t, j):comb(t + 1, j)])
    return out


def enumerate_sector(n_sites: int, electrons: int, sz_twice: int,
                     parity: int = 0) -> SectorBasis:
    """The sector with fixed electron count and 2 S_z, as its sorted up and
    down configurations; the basis order is (up x down), up major.

    ``parity`` +1 or -1 (S_z = 0 only) gives the sector's spin-flip half with
    Psi^T = parity Psi: the states of even total spin S for +1, odd S for -1.
    More than ``MAX_SECTOR_SITES`` sites raise ValueError before anything is
    allocated.
    """
    if n_sites > MAX_SECTOR_SITES:
        raise ValueError("a sector has at most %d sites; asked for %d"
                         % (MAX_SECTOR_SITES, n_sites))
    if not 0 <= electrons <= 2 * n_sites:
        raise ValueError("infeasible electron count")
    if (electrons + sz_twice) % 2 != 0:
        raise ValueError("electron count and 2 S_z must have equal parity")
    if parity not in (-1, 0, 1) or (parity and sz_twice != 0):
        raise ValueError("a spin-flip half has parity +1 or -1 and S_z = 0")
    n_up = (electrons + sz_twice) // 2
    n_dn = electrons - n_up
    if not (0 <= n_up <= n_sites and 0 <= n_dn <= n_sites):
        raise ValueError("infeasible S_z for this electron count")
    return SectorBasis(n_sites, electrons, sz_twice, _configurations(n_sites, n_up, 0),
                       _configurations(n_sites, n_dn, n_sites), parity)


def _givens_decomposition(u: np.ndarray):
    """u = R_1 ... R_m diag(d) for an n x n unitary u.

    Column by column, each nonzero sub-diagonal entry u[i, j] is zeroed
    against the pivot u[j, j] by the 2 x 2 unitary B = [[a*, b*], [b, -a]] / r
    on rows (j, i), with a = u[j, j], b = u[i, j], r = |(a, b)|; exact zeros are
    skipped, so a u that is block diagonal over a matching gives one factor
    per pair.  Then R_k = B_k^dagger (det -1) and d is the diagonal left over.
    Returns ([(j, i, R_k), ...], d).
    """
    w = np.array(u, dtype=complex)
    rotations = []
    for j in range(len(w) - 1):
        for i in range(j + 1, len(w)):
            b = w[i, j]
            if b == 0:
                continue
            a = w[j, j]
            block = np.array([[a.conjugate(), b.conjugate()], [b, -a]]) / np.hypot(abs(a), abs(b))
            w[[j, i]] = block @ w[[j, i]]
            w[i, j] = 0.0
            rotations.append((j, i, block.conj().T))
    return rotations, np.diag(w).copy()


class _SpeciesLift:
    """Sparse images of one-body operators on one species' sorted
    configurations ``states``, mode q on qubit q + ``offset``.

    A pair of modes j < i links each state with only j occupied to its
    partner (j moved to i), with the Jordan-Wigner sign
    (-1)^{#occupied strictly between j and i}.  A one-body matrix k lifts to
    K[partner, single] = sign k[i, j], K[single, partner] = sign k[j, i]
    (``operator``).  A 2-mode unitary R on (j, i) keeps states with neither
    mode occupied, multiplies states with both by det R and mixes each pair
    through R times the sign; a phase diagonal d becomes prod_q d_q^{n_q}
    (``exponential``).  The tables of a pair are built once, on first use.
    A Slater determinant of n-mode orbitals takes the determinant of each
    configuration's occupied rows (``determinants``).
    """

    def __init__(self, states: np.ndarray, n_sites: int, offset: int):
        self.states = states
        self.offset = offset
        self.occupied = [(states >> (q + offset)) & 1 == 1 for q in range(n_sites)]
        self._pairs: dict[tuple[int, int], tuple] = {}

    def _pair(self, j: int, i: int):
        """(j-only states, their partners, JW signs, states with both)."""
        if (j, i) not in self._pairs:
            states = self.states
            bit_j, bit_i = j + self.offset, i + self.offset
            single = np.nonzero(self.occupied[j] & ~self.occupied[i])[0]
            moved = states[single] ^ np.int64((1 << bit_j) | (1 << bit_i))
            partner, found = _search(states, moved)
            if not found.all():
                raise ValueError("state outside sector")
            between = np.int64((1 << bit_i) - (1 << (bit_j + 1)))
            sign = 1.0 - 2.0 * (_popcount(states[single] & between) & 1)
            both = np.nonzero(self.occupied[j] & self.occupied[i])[0]
            self._pairs[j, i] = (single, partner, sign, both)
        return self._pairs[j, i]

    def operator(self, k: np.ndarray) -> csr_matrix:
        """The CSR matrix K of the one-body matrix k on the species list.

        Only the off-diagonal part of k is lifted: k comes from hop strings,
        whose diagonal is zero by construction.
        """
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, data = [empty], [empty], [np.zeros(0, dtype=k.dtype)]
        for j, i in np.argwhere(np.triu((k != 0) | (k != 0).T, 1)).tolist():
            single, partner, sign, _ = self._pair(j, i)
            rows += [partner, single]
            cols += [single, partner]
            data += [sign * k[i, j], sign * k[j, i]]
        dim = len(self.states)
        return csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )

    def _rotation(self, j: int, i: int, r: np.ndarray) -> csr_matrix:
        single, partner, sign, both = self._pair(j, i)
        dim = len(self.states)
        diag = np.ones(dim, dtype=complex)
        diag[single] = r[0, 0]
        diag[partner] = r[1, 1]
        diag[both] = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        index = np.arange(dim)
        return csr_matrix(
            (np.concatenate([diag, sign * r[1, 0], sign * r[0, 1]]),
             (np.concatenate([index, partner, single]),
              np.concatenate([index, single, partner]))),
            shape=(dim, dim),
        )

    def exponential(self, k: np.ndarray, t: float) -> csr_matrix | np.ndarray:
        """The sector matrix of exp(-i t K) for the one-body matrix k.

        CSR, or a dense array where the CSR arrays would take more memory
        than the dense one: the rotations of a connected hopping graph (the
        full kinetic factor) fill the matrix in, where a tile section's
        matching keeps it sparse.
        """
        rotations, d = _givens_decomposition(expm(-1j * t * k))
        phases = np.ones(len(self.states), dtype=complex)
        for q, occupied in enumerate(self.occupied):
            phases[occupied] *= d[q]
        out = diags_array(phases, format="csr")
        for j, i, r in reversed(rotations):
            out = self._rotation(j, i, r) @ out
        csr_bytes = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
        if csr_bytes > out.shape[0] * out.shape[1] * out.dtype.itemsize:
            return out.toarray()
        return out

    def determinants(self, orbitals: np.ndarray) -> np.ndarray:
        """The Slater determinant of the columns of ``orbitals`` (n x N, N
        the species' electron count) on the species list: each
        configuration's amplitude is the determinant of the rows of its
        occupied modes, in ascending order, the order behind the lift's
        Jordan-Wigner signs."""
        rows = np.nonzero(np.stack(self.occupied, axis=1))[1]
        return np.linalg.det(orbitals[rows.reshape(len(self.states), orbitals.shape[1])])


def half_filling(n_sites: int) -> tuple[int, int]:
    """(n_up, n_down) at half filling, the filling used throughout: n_sites
    electrons on n_sites sites, the odd one up."""
    return (n_sites + 1) // 2, n_sites // 2


def half_filling_sz_twice(n_sites: int) -> int:
    """2 S_z at ``half_filling``: 0, or 1 for odd n_sites."""
    n_up, n_down = half_filling(n_sites)
    return n_up - n_down


def half_filling_sector(n_sites: int) -> SectorBasis:
    """The sector used throughout, at ``half_filling``."""
    return enumerate_sector(n_sites, n_sites, half_filling_sz_twice(n_sites))


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def _group_terms(op: PauliSum) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The terms of ``op`` by X-mask x, as a pair (zs, cs) per x: the Z masks
    (int64) and the coefficients with the canonical i-phase
    i^{popcount(x & z)} folded in, float when every imaginary part is below
    1e-15 and complex otherwise."""
    groups: dict[int, list[tuple[int, complex]]] = {}
    for (x, z), c in op.terms.items():
        phased = complex(c) * (1j ** ((x & z).bit_count() % 4))
        groups.setdefault(x, []).append((z, phased))
    out = {}
    for x, zs_cs in groups.items():
        cs = np.array([c for _, c in zs_cs])
        out[x] = (np.array([z for z, _ in zs_cs], dtype=np.int64),
                  cs.real if np.all(np.abs(cs.imag) < 1e-15) else cs)
    return out


# identity columns per action call in ``dense_from_action``: a block is at
# most DENSE_DIM_LIMIT x 256 floats, 10 MB, and a half's embedded block 20 MB
_DENSE_BLOCK = 256


def _term_values(states: np.ndarray, group: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(terms x states) array of c_z (-1)^{popcount(z & b)} for one x-group
    (zs, cs), one row per term; its column sums are the amplitudes amp_x(b)."""
    zs, cs = group
    return cs[:, None] * (1.0 - 2.0 * (_popcount(states[None, :] & zs[:, None]) & 1))


# states per block of ``norms.column_norms_squared``: a 190-term x-group of
# O_VTT then holds about 6 MB of (terms x states) values, not 100 MB at the
# 63 504-state naphthalene sector
_COLUMN_BLOCK = 4096


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Column sums of a (terms x states) array, adding the rows in order.

    This is what ``values.sum(axis=0)`` does for two or more columns; for a
    single column numpy sums pairwise, so a state's sum would depend on how
    many states share the call.
    """
    out = np.zeros(values.shape[1], dtype=values.dtype)
    for row in values:
        out += row
    return out


def _species_signs(configurations: np.ndarray, first: int, n: int) -> np.ndarray:
    """(configurations x n) occupation signs 1 - 2 bit_q of qubits first .. first + n - 1."""
    return 1.0 - 2.0 * ((configurations[:, None] >> np.arange(first, first + n)) & 1)


class _DiagonalForm:
    """Evaluator of the x = 0 group, amp_0(b) = sum_z c_z (-1)^{popcount(z & b)}.

    With s_q = 1 - 2 bit_q(b), a term is c_z times the product of s_q over
    its Z support, so terms of Z-weight <= 2 (all of a PPP potential) form
    the quadratic form c0 + h.s + s^T J s over all ``n_qubits``, with a
    weight-2 coefficient split as c/2 over J[p, q] and J[q, p]; a heavier
    term raises ``ValueError``.  The group (zs, cs) comes from
    ``_group_terms``, and results have the dtype of cs.  ``diagonal`` gives D
    over a sector from its two species lists; ``flip_differences`` gives
    D(b ^ x) - D(b) at states given by their occupation signs.
    """

    def __init__(self, group: tuple[np.ndarray, np.ndarray], n_qubits: int):
        zs, cs = group
        weight = _popcount(zs)
        if np.any(weight > 2):
            raise ValueError("a diagonal term of Z-weight above 2 has no quadratic form")
        self.dtype = cs.dtype
        self.n = n_qubits
        # the lowest set bit p of each mask and, for a pair, the other one q
        low = zs & -zs
        p, q = _popcount(low - 1), _popcount((zs ^ low) - 1)
        self.c0 = cs[weight == 0].sum()
        self.h = np.zeros(self.n, dtype=self.dtype)
        self.h[p[weight == 1]] = cs[weight == 1]
        self.J = np.zeros((self.n, self.n), dtype=self.dtype)
        pair = weight == 2
        self.J[p[pair], q[pair]] = self.J[q[pair], p[pair]] = cs[pair] / 2

    def diagonal(self, basis: SectorBasis) -> np.ndarray:
        """D over ``basis``, in basis order, without the sector's state list.

        With s split into its up half (qubits 0 .. n-1) and down half, the
        quadratic form is d_up(s_up) + d_down(s_down) + 2 s_up^T J_ud s_down,
        so on the (up x down) grid D = d_up[:, None] + d_down[None, :] +
        S_up (2 J_ud) S_down^T, with S_sigma the (configurations x n) sign
        matrix of one species list.
        """
        n, h, J = basis.n_sites, self.h, self.J
        s_up = _species_signs(basis.up_states, 0, n)
        s_down = _species_signs(basis.down_states, n, n)
        d_up = self.c0 + s_up @ h[:n] + np.einsum("ij,ij->i", s_up @ J[:n, :n], s_up)
        d_down = s_down @ h[n:] + np.einsum("ij,ij->i", s_down @ J[n:, n:], s_down)
        out = (s_up @ (2.0 * J[:n, n:])) @ s_down.T
        out += d_up[:, None]
        out += d_down
        return out.ravel()

    def flip_differences(self, s: np.ndarray):
        """The function x -> D(b ^ x) - D(b) over the states b whose
        occupation signs s_q = 1 - 2 bit_q(b) are the columns of ``s``
        (qubits x states, so that the rows s[F] are contiguous).

        Flipping the bits F of x negates s_q for q in F, so with
        g = h + 2 J s the quadratic part changes by
        sum_{q in F} s_q (4 sum_{p in F} J[q, p] s_p - 2 g_q), O(|F|^2) per
        state, with g from one ``J @ s``.  Mask 0 gives exactly 0.
        """
        minus_2g = -2.0 * (self.h[:, None] + 2.0 * (self.J @ s))

        def delta(x: int) -> np.ndarray:
            flipped = [q for q in range(self.n) if x >> q & 1]
            s_f = s[flipped]
            inner = (4.0 * self.J[flipped][:, flipped]) @ s_f
            inner += minus_2g[flipped]
            return np.einsum("qb,qb->b", s_f, inner)

        return delta


def _is_species_hop(x: int, z: int, n_sites: int) -> bool:
    """True for a string that flips two same-spin modes p < q (both below
    ``n_sites``, or both at or above it) and whose Z support outside {p, q}
    is exactly the Jordan-Wigner chain p+1 .. q-1."""
    if x.bit_count() != 2:
        return False
    p, q = (x & -x).bit_length() - 1, x.bit_length() - 1
    return (p < n_sites) == (q < n_sites) and z & ~x == (1 << q) - (1 << (p + 1))


class SectorOperator:
    """A PauliSum restricted to a sector, ready for repeated matvecs.

    The operator's form fixes one of two routes (``layout``); neither builds
    anything in ``__init__``:

    - one-species hops (``hops``, or none) plus diagonal terms of Z-weight
      <= 2, as every PPP operator: ``matvec`` is one kernel
      (``_layout_action``) on Psi = v reshaped to the layout,
      v -> vec(K_up Psi + Psi K_down^T) + D o v, with K_sigma lifted from
      the one-body matrices (``species_matrices``), so it builds no
      sector-size array; without hops it is D o v;
    - anything else: the CSR sector matrix (``sparse``), assembled from
      ``to_sparse()``, which lists the sector's states, on first use and kept.

    ``abs_matvec`` applies the element-wise absolute matrix |O| along the
    same route: ``abs`` of the CSR, or the kernel with |K_up|, |K_down| and
    |D|.  Both take a vector or a (dim, m) block of columns, and
    ``to_dense`` is ``matvec`` on blocks of the identity (``dense_from_action``).

    On a spin-flip half (``basis.parity`` +-1) only the layout route
    exists, and only for an operator that commutes with the flip: K_up =
    K_down = K and a symmetric D, checked on construction (``ValueError``
    otherwise, with D - D^T allowed 1e-12 max|D| of rounding).  Then with
    Psi^T = +-Psi, Psi K^T = +-(K Psi)^T, so H Psi = y +- y^T + D o Psi for the
    one sparse product y = K Psi, and ``matvec`` returns the half's vector
    2 restrict(y) + D_half o x, with D_half the half's entries of (D + D^T) / 2.
    """

    def __init__(self, op: PauliSum, basis: SectorBasis):
        if op.n_qubits != basis.n_qubits:
            raise ValueError("qubit count mismatch")
        self.basis = basis
        self.groups = _group_terms(op)
        self.dim = basis.dim
        self.hops = any(x != 0 for x in self.groups)
        self.layout = all(_is_species_hop(x, z, basis.n_sites) if x else z.bit_count() <= 2
                          for x, z in op.terms)
        if basis.parity:
            self._half_diagonal = self._flip_symmetric_diagonal()

    def _flip_symmetric_diagonal(self) -> np.ndarray:
        """D_half, after checking that the operator commutes with the spin flip."""
        if not self.layout:
            raise ValueError("a spin-flip half takes layout-route operators only")
        if self.hops and not np.array_equal(*self.one_body_matrices):
            raise ValueError("operator breaks the spin flip: K_up != K_down")
        grid = self._form.diagonal(self.basis)
        diagonal, upper, lower = self.basis._split(grid)
        if np.abs(upper - lower).max(initial=0.0) > 1e-12 * np.abs(grid).max(initial=0.0):
            raise ValueError("operator breaks the spin flip: D is not symmetric")
        return np.concatenate([diagonal, (upper + lower) / 2])

    @cached_property
    def species_matrices(self) -> tuple[csr_matrix, csr_matrix]:
        """(K_up, K_down): the hops on the species lists, each lifted from
        its one-body matrix."""
        return tuple(lift.operator(k) for lift, k in
                     zip(self.basis.species, self.one_body_matrices))

    @cached_property
    def _abs_species_matrices(self) -> tuple[csr_matrix, csr_matrix]:
        """(|K_up|, |K_down|), element-wise, for ``abs_matvec``."""
        return tuple(abs(k) for k in self.species_matrices)

    @cached_property
    def one_body_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(k_up, k_down): the hops restricted to one electron of each
        species, i.e. the n x n single-particle hopping matrices.

        On one electron a hop's Jordan-Wigner chain is empty, so the group of
        modes p < q gives k[q, p] and k[p, q] as its amplitudes at the states
        1 << p and 1 << q.  Its amplitude at the vacuum is that of a pairing
        term, which changes the electron count: beyond float residue of
        exact cancellations it raises ``ValueError``.
        """
        if not (self.layout and self.hops):
            raise ValueError("one-body matrices need one-species hops on the layout route")
        n = self.basis.n_sites
        hop_groups = [(x, group) for x, group in self.groups.items() if x]
        k = np.zeros((2, n, n), dtype=np.result_type(float, *(cs for _, (_, cs) in hop_groups)))
        for x, group in hop_groups:
            p, q = (x & -x).bit_length() - 1, x.bit_length() - 1
            states = np.array([0, 1 << p, 1 << q], dtype=np.int64)
            vacuum, at_p, at_q = _column_sums(_term_values(states, group))
            if abs(vacuum) > 1e-9 * max(abs(at_p), abs(at_q)):
                raise ValueError("operator does not preserve the sector")
            species = p // n
            k[species, q % n, p % n] += at_p
            k[species, p % n, q % n] += at_q
        return k[0], k[1]

    @cached_property
    def sparse(self) -> csr_matrix:
        """The sector matrix, assembled on first use and kept."""
        return self.to_sparse()

    @cached_property
    def _abs_sparse(self) -> csr_matrix:
        return abs(self.sparse)

    @cached_property
    def _form(self) -> _DiagonalForm:
        """The diagonal's quadratic form; ``ValueError`` above Z-weight 2."""
        no_terms = (np.zeros(0, dtype=np.int64), np.zeros(0))
        return _DiagonalForm(self.groups.get(0, no_terms), self.basis.n_qubits)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """D over the sector from the quadratic form, without the state list."""
        return self._form.diagonal(self.basis)

    @cached_property
    def is_real(self) -> bool:
        return not any(np.iscomplexobj(cs) for _, cs in self.groups.values())

    def _layout_action(self, k_up, k_down, d: np.ndarray | None, v: np.ndarray) -> np.ndarray:
        """vec(k_up Psi + Psi k_down^T) + d o v (no d for None), Psi = v
        reshaped to the layout, a block's columns along a third axis."""
        rows, cols = self.basis.shape
        psi = v.reshape((rows, cols) + v.shape[1:])
        # one expression, so both products are freed before D o v is allocated:
        # holding them too made a (10,10,0) matvec 1.6 ms instead of 1.0 ms
        out = ((k_up @ psi.reshape(rows, -1)).reshape(psi.shape)
               + (k_down @ psi.swapaxes(0, 1).reshape(cols, -1))
               .reshape((cols, rows) + psi.shape[2:]).swapaxes(0, 1)).reshape(v.shape)
        if d is None:
            return out
        return out + (d if v.ndim == 1 else d[:, None]) * v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """O v for a vector or a (dim, m) block of columns: D o v without
        hops, the layout kernel (on a half 2 restrict(K Psi) + D_half o v), or
        the CSR product."""
        if not self.layout:
            return self.sparse @ v
        if not self.hops:
            d = self._half_diagonal if self.basis.parity else self.diagonal
            return (d if v.ndim == 1 else d[:, None]) * v
        if self.basis.parity:
            psi = self.basis.embed(v)
            y = self.species_matrices[0] @ psi.reshape(self.basis.shape[0], -1)
            out = 2.0 * self.basis.restrict(y.reshape(psi.shape))
            out += (self._half_diagonal if v.ndim == 1 else self._half_diagonal[:, None]) * v
            return out
        return self._layout_action(*self.species_matrices,
                                   self.diagonal if 0 in self.groups else None, v)

    def abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O| v for the element-wise absolute matrix |O|; v is a vector or a
        (dim, m) block of columns."""
        self.basis.require_whole_sector("abs_matvec")
        if not self.layout:
            return self._abs_sparse @ v
        if not self.hops:
            return (np.abs(self.diagonal) if v.ndim == 1 else np.abs(self.diagonal)[:, None]) * v
        return self._layout_action(*self._abs_species_matrices,
                                   np.abs(self.diagonal) if 0 in self.groups else None, v)

    def to_sparse(self) -> csr_matrix:
        """The sector matrix in CSR form, assembled afresh from the x-groups,
        the diagonal x = 0 among them, as their term values' column sums.

        Zero amplitudes are dropped first; off the diagonal they are exactly
        the states whose image under the bit flips leaves the sector.
        """
        self.basis.require_whole_sector("to_sparse")
        states = self.basis.states
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, data = [empty], [empty], [np.zeros(0)]
        for x, group in self.groups.items():
            amp = _column_sums(_term_values(states, group))
            src = np.nonzero(amp)[0]
            tgt, valid = self.basis.index_or_mask(states[src] ^ np.int64(x))
            # out-of-sector scatter is legal only for amplitudes that are
            # pure float residue of exact cancellations
            if not valid.all() and np.abs(amp[src[~valid]]).max() > 1e-9 * np.abs(amp).max():
                raise ValueError("operator does not preserve the sector")
            rows.append(tgt[valid])
            cols.append(src[valid])
            data.append(amp[src[valid]])
        return csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )

    def to_dense(self) -> np.ndarray:
        """The sector matrix as an array, ``dense_from_action`` on ``matvec``."""
        return dense_from_action(self.matvec, self.dim)


def dense_from_action(action, dim: int) -> np.ndarray:
    """The matrix of a linear action on (dim, m) blocks, from its images of
    the identity's columns, ``_DENSE_BLOCK`` at a time, in the dtype of its
    output; ``ValueError`` above ``DENSE_DIM_LIMIT``."""
    if dim > DENSE_DIM_LIMIT:
        raise ValueError("sector too large for dense mode")
    out = None
    for start in range(0, dim, _DENSE_BLOCK):
        width = min(_DENSE_BLOCK, dim - start)
        block = action(np.eye(dim, width, -start))
        if out is None:
            out = np.empty((dim, dim), dtype=block.dtype)
        out[:, start:start + width] = block
    return out


# the Cayley transform of U loses about eps / (pi - |phi|) of accuracy, so a
# phase closer than this to its pole at +-pi moves the pole into a spectral gap
_POLE_DISTANCE = 1e-2

# phases this close to +-pi leave the branch of log U ambiguous
_BRANCH_MARGIN = 1e-9


def _cayley_phases(unitary: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, V) with U = V exp(-i phi) V^T, V real, and phi in (alpha - pi, alpha + pi).

    W = exp(i alpha) U is a complex symmetric unitary, so W = A + i B with A
    and B real symmetric, commuting, A^2 + B^2 = I, and its Cayley transform
    C = -i (I + W)^-1 (I - W) = -(I + A)^-1 B is real symmetric, with W's
    real eigenvectors and eigenvalues tan((phi - alpha)/2): one real solve
    and one real eigensolve.  A singular I + A raises ``LinAlgError``.
    """
    rotated = np.exp(1j * alpha) * unitary
    cayley = np.linalg.solve(np.eye(len(unitary)) + rotated.real, -rotated.imag)
    mu, vecs = eigh((cayley + cayley.T) / 2, driver="evd")
    return alpha + 2.0 * np.arctan(mu), vecs


def principal_log_spectrum(unitary: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of H = (i/t) log U on the principal branch: U = exp(-i t H).

    U must be a complex symmetric unitary, as every palindromic product of
    exponentials of real symmetric matrices is.  Its Cayley transform is
    then real symmetric, with the eigenvectors of U and eigenvalues
    tan(phi/2) where U = V exp(-i phi) V^T (Higham, Functions of Matrices,
    2008), so one real eigensolve gives phi = 2 arctan(mu) and E = phi / t
    (``_cayley_phases``).  When a phase
    comes within ``_POLE_DISTANCE`` of +-pi, the transform is taken once
    more with its pole rotated into the widest gap between the phases.
    A U with U - U^T above 1e-12 max|U| is refused before any solve.
    Phases within ``_BRANCH_MARGIN`` of +-pi, or an eigenvalue -1 (a
    singular I + Re U), leave the branch ambiguous; a U that is not unitary,
    so that U V = V exp(-i phi) misses by more than 1e-10 in its real or
    its imaginary part, has no such log.  Each raises ``ValueError``.
    Returns (energies ascending, real orthonormal eigenvectors as columns).
    """
    if np.abs(unitary - unitary.T).max(initial=0.0) > 1e-12 * np.abs(unitary).max(initial=0.0):
        raise ValueError("unitary is not symmetric: its log needs U = U^T")
    try:
        phases, vecs = _cayley_phases(unitary, 0.0)
        if np.abs(phases).max(initial=0.0) > np.pi - _POLE_DISTANCE:
            gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
            widest = int(np.argmax(gaps))
            phases, vecs = _cayley_phases(unitary, phases[widest] + gaps[widest] / 2 - np.pi)
            phases = np.remainder(phases + np.pi, 2.0 * np.pi) - np.pi
            order = np.argsort(phases)
            phases, vecs = phases[order], vecs[:, order]
    except np.linalg.LinAlgError:
        raise ValueError("unitary has an eigenvalue -1: log branch ambiguity") from None
    if np.abs(phases).max(initial=0.0) >= np.pi - _BRANCH_MARGIN:
        raise ValueError("time step too large: log branch ambiguity")
    if (np.abs(unitary.real @ vecs - vecs * np.cos(phases)).max(initial=0.0) > 1e-10
            or np.abs(unitary.imag @ vecs + vecs * np.sin(phases)).max(initial=0.0) > 1e-10):
        raise ValueError("matrix is not unitary to tolerance: U V != V exp(-i phi)")
    return phases / t, vecs


def _determinant_seed(sop: SectorOperator) -> np.ndarray:
    """The free-fermion (Hueckel) state of ``sop``'s hopping on its sector.

    Phi_sigma fills the lowest N_sigma orbitals of k_sigma (the n x n
    one-body matrix) and is a determinant on the species list
    (``_SpeciesLift.determinants``).  The seed is Phi_up (x) Phi_down, on
    the even half restricted onto it; the odd half holds no symmetric
    product, so there it is Phi (x) Phi' - Phi' (x) Phi, Phi' with the
    highest occupied orbital swapped for the lowest empty one, whose
    restriction is twice that of Phi (x) Phi'.  Not normalised.
    """
    basis = sop.basis
    n_up = (basis.electrons + basis.sz_twice) // 2
    columns = [np.arange(n_up), np.arange(basis.electrons - n_up)]
    if basis.parity < 0:
        columns[1] = np.r_[:n_up - 1, n_up]
    up, down = (lift.determinants(eigh(k, driver="evd")[1][:, occupied]) for lift, k, occupied
                in zip(basis.species, sop.one_body_matrices, columns))
    return basis.restrict(np.multiply.outer(up, down).ravel())


def _start_vector(sop: SectorOperator, k: int) -> np.ndarray:
    """The fixed Lanczos start vector, so repeated eigensolves agree bit for bit.

    r, standard normal from seed 0, reaches every eigenvector.  For k = 1 on
    hops on the layout route the start is s/|s| + r/|r|, with s the
    free-fermion determinant (``_determinant_seed``), which overlaps the
    lowest state of a PPP sector far more than r; otherwise r alone.
    """
    r = np.random.default_rng(0).standard_normal(sop.dim)
    if k > 1 or not (sop.layout and sop.hops):
        return r
    v0 = _determinant_seed(sop)
    v0 /= np.linalg.norm(v0)
    r /= np.linalg.norm(r)
    v0 += r
    return v0


# matvecs a Lanczos solve may spend before it counts as not converged: a
# converging solve of this package takes 20 to 150
_LANCZOS_BUDGET = 10_000

# basis columns per block of the in-place restart rotation, so its temporary
# holds a few thousand columns, not the kept vectors whole
_ROTATE_BLOCK = 4096


def thick_restart_lanczos(matvec, v0: np.ndarray, k: int, ncv: int, tol: float):
    """The k lowest eigenpairs of the Hermitian operator with action
    ``matvec``, by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 602 (2000)) from ``v0``, whose dtype the basis takes.

    The basis is one row-major (ncv + 1, dim) array.  Each step is the
    three-term recurrence in place, then one pair of gemv calls that
    orthogonalises the new vector against the Ritz vectors kept at the last
    restart (the directions in which converged Ritz vectors make a Lanczos
    basis lose orthogonality, Parlett & Scott, Math. Comp. 33, 217 (1979));
    right after a restart that pair also removes the kept vectors' coupling.
    When the basis is full, the max(ncv // 2, k) lowest Ritz vectors are
    kept, rotated in place, and the projected matrix restarts as their Ritz
    values bordered by the coupling beta y[-1, i] (an arrowhead).  After
    every step, Ritz pair i counts as converged when |beta y[-1, i]| <=
    tol max(|theta_i|, eps^(2/3)), ARPACK's rule, with tol = 0 meaning
    machine epsilon, so a solve can stop mid-cycle.

    ``matvec`` must return a new array, which the solver overwrites.
    Returns (eigenvalues ascending, eigenvectors as the columns of a
    Fortran-ordered (dim, k) array, converged).  After ``_LANCZOS_BUDGET``
    matvecs it returns its current Ritz pairs with converged False; a start
    vector whose Krylov space holds fewer than k states raises
    ``ValueError``.
    """
    eps = np.finfo(float).eps
    tol = tol or eps
    basis = np.empty((ncv + 1, len(v0)), dtype=v0.dtype)
    gemv, axpy, nrm2 = get_blas_funcs(("gemv", "axpy", "nrm2"), (basis,))
    np.multiply(v0, 1.0 / nrm2(v0), out=basis[0])
    projected = np.zeros((ncv, ncv))
    kept = j = matvecs = 0
    beta = 0.0
    while True:
        w = matvec(basis[j])
        matvecs += 1
        alpha = np.vdot(basis[j], w).real
        w = axpy(basis[j], w, a=-alpha)
        if j > kept:
            w = axpy(basis[j - 1], w, a=-beta)
        if kept:
            ritz = basis[:kept].T
            w = gemv(-1.0, ritz, gemv(1.0, ritz, w, trans=2), beta=1.0, y=w, overwrite_y=True)
        beta = nrm2(w)
        projected[j, j] = alpha
        theta, y = np.linalg.eigh(projected[:j + 1, :j + 1])
        if j + 1 >= k:
            residual = np.abs(beta * y[j, :k])
            converged = bool(np.all(residual <= tol * np.maximum(np.abs(theta[:k]),
                                                                 eps ** (2 / 3))))
            if converged or matvecs >= _LANCZOS_BUDGET:
                vecs = (y[:, :k].T @ basis[:j + 1]).T
                return theta[:k], vecs, converged
        if beta <= eps * np.abs(theta).max():
            raise ValueError("the start vector spans an invariant subspace of "
                             "fewer than %d states" % k)
        if j + 1 < ncv:
            projected[j, j + 1] = projected[j + 1, j] = beta
            np.multiply(w, 1.0 / beta, out=basis[j + 1])
            j += 1
            continue
        kept = max(ncv // 2, k)
        rotation = y[:, :kept].T
        for start in range(0, basis.shape[1], _ROTATE_BLOCK):
            block = basis[:ncv, start:start + _ROTATE_BLOCK]
            block[:kept] = rotation @ block
        np.multiply(w, 1.0 / beta, out=basis[kept])
        projected[:] = 0.0
        projected[:kept, :kept] = np.diag(theta[:kept])
        projected[kept, :kept] = projected[:kept, kept] = beta * y[ncv - 1, :kept]
        j = kept


def _lanczos(sop: SectorOperator, k: int, tol: float):
    """The k lowest eigenpairs by ``thick_restart_lanczos`` on ``sop.matvec``
    with a basis of 2k + 10 vectors, started at ``_start_vector``: the
    free-fermion determinant plus noise for k = 1 on an operator with hops on
    the layout route, noise alone otherwise.  The basis is float for a real
    operator and complex otherwise.  A solve that has not converged after
    ``_LANCZOS_BUDGET`` matvecs raises ``RuntimeError``.
    """
    v0 = _start_vector(sop, k).astype(float if sop.is_real else complex, copy=False)
    vals, vecs, converged = thick_restart_lanczos(sop.matvec, v0, k, 2 * k + 10, tol)
    if not converged:
        raise RuntimeError("Lanczos did not converge in %d matvecs" % _LANCZOS_BUDGET)
    return vals, vecs


def lowest_eigenpairs(op, basis: SectorBasis, k: int = 1, tol: float = 0.0):
    """k lowest eigenpairs of a Hermitian operator on the sector.

    ``op`` is a PauliSum or a SectorOperator, and ``basis`` a whole sector
    or a spin-flip half, whose eigenvectors are the half's vectors.  Dense
    diagonalization up to DENSE_DIM_LIMIT; above it, thick-restart Lanczos
    with a basis of 2k + 10 vectors (``_lanczos``) to the relative residual
    ``tol`` (0 for machine epsilon), from a fixed start vector: a single
    state of an operator with hops on the layout route starts at the
    free-fermion determinant plus noise, k > 1 at noise alone.  Eigenvalues
    ascend; the eigenvectors are columns.  k above the sector's dimension
    raises ``ValueError``, and a Lanczos solve that does not converge
    ``RuntimeError``.
    """
    if k > basis.dim:
        raise ValueError("%d eigenpairs asked of a %d-state sector" % (k, basis.dim))
    if isinstance(op, PauliSum):
        op = SectorOperator(op, basis)
    if basis.dim > DENSE_DIM_LIMIT:
        return _lanczos(op, k, tol)
    vals, vecs = eigh(op.to_dense(), driver="evd")
    return vals[:k], vecs[:, :k]


# -- time propagation ---------------------------------------------------------


class Propagator:
    """Applies exp(-i G t) for one Hamiltonian piece G to a sector vector or
    a (dim, m) block of columns, as ``SectorOperator.matvec`` takes them.

    The route follows from G:

    - diagonal G (V, V'): v -> exp(-i t D) o v, with the phases of the
      diagonal cached per duration;
    - G made only of one-species hops (the kinetic factor, a tile section):
      Psi -> M_up Psi M_down^T on v's layout matrix Psi (``basis.shape``, a
      block's columns along a third axis, ``species_products``), where
      M_sigma = exp(-i t K_sigma) is cached per duration, built exactly from
      the n x n one-body unitary exp(-i t k_sigma) as a product of sparse
      2-mode rotations and one phase diagonal (``basis.species``,
      ``_SpeciesLift.exponential``); it stays sparse for a tile section and
      is dense for the full kinetic factor.  When the two species lists
      coincide up to the qubit offset and k_up = k_down, as in every
      S_z = 0 sector, one M serves both species.

    ``exponentials(t)`` hands out the cached phases or (M_up, M_down), so a
    run of hopping factors can take one species pass.  Every factor of a
    Trotter scheme is one of the two; any other G is rejected with
    ``ValueError``.
    """

    def __init__(self, op: PauliSum, basis: SectorBasis):
        basis.require_whole_sector("Propagator")
        self.sop = SectorOperator(op, basis)
        self.basis = basis
        self.diagonal_only = self.sop.layout and not self.sop.hops
        self.hopping_only = self.sop.layout and self.sop.hops and 0 not in self.sop.groups
        if not (self.diagonal_only or self.hopping_only):
            raise ValueError("Propagator needs a diagonal or a hopping-only operator")
        self._shared = self.hopping_only and (
            np.array_equal(basis.up_states << np.int64(basis.n_sites), basis.down_states)
            and np.array_equal(*self.sop.one_body_matrices))
        self._exponentials: dict[float, np.ndarray | tuple] = {}

    def exponentials(self, t: float) -> np.ndarray | tuple:
        """exp(-i t D) as phases for a diagonal G, else (M_up, M_down), one
        object twice when the species share it; built once per duration."""
        if t not in self._exponentials:
            if self.diagonal_only:
                self._exponentials[t] = np.exp(-1j * t * self.sop.diagonal.real)
            else:
                (up, down), (k_up, k_down) = self.basis.species, self.sop.one_body_matrices
                m_up = up.exponential(k_up, t)
                self._exponentials[t] = (m_up, m_up if self._shared
                                         else down.exponential(k_down, t))
        return self._exponentials[t]

    def apply(self, v: np.ndarray, t: float) -> np.ndarray:
        if self.diagonal_only:
            phases = self.exponentials(t)
            return (phases if v.ndim == 1 else phases[:, None]) * v
        return species_products(self.basis, [self.exponentials(t)], v)


def species_products(basis: SectorBasis, pairs, v: np.ndarray) -> np.ndarray:
    """vec(M_r^up ... M_1^up Psi (M_r^down ... M_1^down)^T) for the
    (M_up, M_down) ``pairs`` of a run of hopping factors, applied first to
    last, on a sector vector or a (dim, m) block v.

    Up and down products act on different indices of Psi, so they commute:
    one transpose puts the down configurations on the rows for every down
    product, one transpose back puts the up ones there for every up product.
    """
    rows, cols = basis.shape
    psi = v.reshape(rows, cols, -1).swapaxes(0, 1).reshape(cols, -1)
    for _, m_down in pairs:
        psi = m_down @ psi
    psi = psi.reshape(cols, rows, -1).swapaxes(0, 1).reshape(rows, -1)
    for m_up, _ in pairs:
        psi = m_up @ psi
    return psi.reshape(v.shape)


# -- total spin ---------------------------------------------------------------


def _ladder(states: np.ndarray, target: np.ndarray, bit: int, between: int):
    """The configurations of one species that toggling ``bit`` takes into the
    sorted list ``target``: (their indices, their images' indices in
    ``target``, the signs (-1)^{popcount(configuration & between)})."""
    moved_to, found = _search(target, states ^ np.int64(bit))
    moved = np.nonzero(found)[0]
    sign = 1.0 - 2.0 * (_popcount(states[moved] & np.int64(between)) & 1)
    return moved, moved_to[moved], sign


def apply_s_plus(state: np.ndarray, basis: SectorBasis):
    """S+ |psi>, landing in the sector with 2 S_z raised by 2.

    S+ = sum_i a†_{i up} a_{i down} moves an electron from qubit n + i to
    qubit i, with the Jordan-Wigner sign (-1)^{#occupied qubits strictly
    between i and n + i}: a factor (-1)^{#up electrons above site i} and a
    factor (-1)^{#down electrons below it}.  So on the layout Psi (a half's
    vector embedded first), site i maps row u (site i empty) to row
    u | bit i of the raised sector's up list and column d (site i occupied)
    to column d ^ bit n + i of its down list, each with its species' sign;
    the images of one site are distinct, so its contribution is one
    fancy-indexed addition of a signed block of Psi.  No sector-length list
    of states is built.
    """
    n = basis.n_sites
    target = enumerate_sector(n, basis.electrons, basis.sz_twice + 2)
    psi = basis.embed(state).reshape(basis.shape)
    out = np.zeros(target.shape, dtype=np.result_type(psi, float))
    for i in range(n):
        up_bit, dn_bit = 1 << i, 1 << (n + i)
        rows, up_rows, up_sign = _ladder(basis.up_states, target.up_states, up_bit,
                                         (1 << n) - 2 * up_bit)
        cols, dn_cols, dn_sign = _ladder(basis.down_states, target.down_states, dn_bit,
                                         dn_bit - (1 << n))
        out[np.ix_(up_rows, dn_cols)] += up_sign[:, None] * psi[np.ix_(rows, cols)] * dn_sign
    return out.ravel(), target


def total_spin_expectation(state: np.ndarray, basis: SectorBasis) -> float:
    """<S²> = |S+ psi|² + s_z (s_z + 1).

    S+ psi is zero when the raised sector does not exist: every site holds
    an up electron, or none holds a down one.  A ``state`` whose length is not
    ``basis.dim`` raises ValueError.
    """
    if np.shape(state) != (basis.dim,):
        raise ValueError("a state of %d entries on a basis of %d"
                         % (np.size(state), basis.dim))
    sz = basis.sz_twice / 2.0
    n_up = (basis.electrons + basis.sz_twice) // 2
    s_plus_sq = 0.0
    if n_up < basis.n_sites and n_up < basis.electrons:
        plus, _ = apply_s_plus(state, basis)
        s_plus_sq = float(np.vdot(plus, plus).real)
    return s_plus_sq + sz * (sz + 1.0)
