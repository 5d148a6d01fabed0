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
the sector (the CSR matrix, exact Frobenius norms).

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
X-masks form the CSR sector matrix (``to_sparse``).  The diagonal (x = 0)
is a polynomial in the occupation signs s_q = 1 - 2 bit_q(b); its terms of
Z-weight <= 2, all of a PPP potential, form one quadratic form
(``_DiagonalForm``).  Its up-up and down-down parts are vectors over the
species lists and its up-down part one matrix product of their sign
matrices, so D is evaluated on the (up x down) grid without the state list;
the form also gives D(b ^ x) - D(b) from the flipped bits of x alone.

Hopping conserves each spin species, so a sector vector reshaped to
``SectorBasis.shape``, C(n, n_up) x C(n, n_down), is a matrix Psi over (up
configuration, down configuration).  With the spins blocked, a hop's
Jordan-Wigner chain runs over its own species only, so an up hop acts on
the rows of Psi and a down hop on its columns, with no cross-species sign.
An operator made of diagonal terms plus one-species hops with a full
Jordan-Wigner chain therefore acts as K_up Psi + Psi K_down^T + D o Psi
without a sector-size matrix, and the exponential of a pure hopping
operator as M_up Psi M_down^T.  Every other operator acts through its CSR
matrix, built once on first use.

Hopping is one-body, so K_sigma and M_sigma = exp(-i t K_sigma) follow from
the n x n matrix k_sigma (``SectorOperator.one_body_matrices``), lifted onto
each species list by ``SectorBasis.species`` with one table of partners and
Jordan-Wigner signs per mode pair.  ``_givens_decomposition`` writes
u = exp(-i t k_sigma) as 2-mode unitaries R_1 ... R_m times a phase diagonal,
one R_k per bond of a matching (a tile section), n(n-1)/2 for a connected
hopping graph; M_sigma is the product of their lifts, kept dense where that
takes less memory than CSR.

At S_z = 0 the two species lists coincide up to the shift by n, and the
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

Dense unitaries, a Trotter product on a small sector or a one-body product,
have their principal log from ``principal_log_spectrum``: one Hermitian
eigensolve of the Cayley transform gives the eigenpairs of (i/t) log U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
from scipy.linalg import eigh, expm
from scipy.sparse import csr_matrix, diags_array
from scipy.sparse.linalg import LinearOperator, eigsh

from .pauli import PauliSum

# largest sector dimension handled through dense matrices
DENSE_DIM_LIMIT = 5000

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
    def _triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A half's entries as flat layout positions: the diagonal (empty for
        the odd half), then the pairs i < j at (i, j) and at (j, i)."""
        m = len(self.up_states)
        i, j = np.triu_indices(m, 1)
        diagonal = np.arange(m) * (m + 1) if self.parity > 0 else np.zeros(0, dtype=np.intp)
        return diagonal, i * m + j, j * m + i

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The whole-sector vector (or columns, along axis 0) of a half's
        vector x; x itself on a whole sector."""
        if not self.parity:
            return x
        diagonal, upper, lower = self._triangle
        out = np.zeros((self.shape[0] ** 2,) + x.shape[1:], dtype=np.result_type(x, float))
        out[diagonal] = x[:len(diagonal)]
        pairs = x[len(diagonal):] * _PAIR_WEIGHT
        out[upper] = pairs
        out[lower] = pairs if self.parity > 0 else -pairs
        return out

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """The adjoint of ``embed``: a half's vector (or columns) from a
        whole-sector one; v itself on a whole sector."""
        if not self.parity:
            return v
        diagonal, upper, lower = self._triangle
        pairs = v[upper] + v[lower] if self.parity > 0 else v[upper] - v[lower]
        pairs *= _PAIR_WEIGHT
        return np.concatenate([v[diagonal], pairs])


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
    """
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


def half_filling_sector(n_sites: int) -> SectorBasis:
    """The sector used throughout: half filling, S_z = 0 (or 1/2 for odd N)."""
    sz = n_sites % 2
    return enumerate_sector(n_sites, n_sites, sz)


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


# identity columns per ``matvec`` call when ``SectorOperator.to_dense`` builds
# a half's matrix: the embedded block is then at most 2 DENSE_DIM_LIMIT x 256
# floats, 20 MB
_DENSE_BLOCK = 256

# the group of an operator without terms at some X-mask
_NO_TERMS = (np.zeros(0, dtype=np.int64), np.zeros(0))


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
    its Z support, so the terms of Z-weight <= 2 (all of a PPP potential)
    form the quadratic form c0 + h.s + s^T J s, with a weight-2 coefficient
    split as c/2 over J[p, q] and J[q, p]; heavier terms (``heavy``, a group
    (zs, cs) of its own) are kept as terms.  The group (zs, cs) comes from
    ``_group_terms``, and results have the dtype of cs.  ``diagonal`` gives
    D = amp_0 over a whole sector from its two species lists;
    ``flip_differences`` gives D(b ^ x) - D(b) at given states from the
    flipped bits of x and the terms' values at b, without evaluating D at
    b ^ x.
    """

    def __init__(self, group: tuple[np.ndarray, np.ndarray]):
        zs, cs = group
        self.dtype = cs.dtype
        weight = _popcount(zs)
        self.heavy = (zs[weight > 2], cs[weight > 2])
        self.n = int(zs[weight <= 2].max(initial=0)).bit_length()
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
        matrix of one species list.  A heavy term's sign is the product of
        its up part's sign and its down part's, so the heavy terms add
        H_up diag(c) H_down^T, one column per term; both products are one
        matmul.
        """
        n = basis.n_sites
        h = np.zeros(2 * n, dtype=self.dtype)
        h[:self.n] = self.h
        J = np.zeros((2 * n, 2 * n), dtype=self.dtype)
        J[:self.n, :self.n] = self.J
        s_up = _species_signs(basis.up_states, 0, n)
        s_down = _species_signs(basis.down_states, n, n)
        d_up = self.c0 + s_up @ h[:n] + np.einsum("ij,ij->i", s_up @ J[:n, :n], s_up)
        d_down = s_down @ h[n:] + np.einsum("ij,ij->i", s_down @ J[n:, n:], s_down)
        heavy_zs, _ = self.heavy
        left = np.hstack([s_up @ (2.0 * J[:n, n:]), _term_values(basis.up_states, self.heavy).T])
        right = np.hstack([s_down, _term_values(basis.down_states,
                                                (heavy_zs, np.ones(len(heavy_zs)))).T])
        out = left @ right.T
        out += d_up[:, None]
        out += d_down
        return out.ravel()

    def flip_differences(self, states: np.ndarray):
        """The function x -> D(b ^ x) - D(b), an array over ``states``.

        Flipping the bits F of x negates s_q for q in F, so with
        g = h + 2 J s the quadratic part changes by
        sum_{q in F} s_q (4 sum_{p in F} J[q, p] s_p - 2 g_q), O(|F|^2) per
        state.  s and g are taken once, qubit-major (qubits x states) so that
        the rows s[F] are contiguous, with one ``J @ s``.  A heavy term, with
        value c_z S_z(b) at b, changes by c_z S_z(b) ((-1)^{popcount(z & x)} - 1):
        -2 c_z S_z(b) when z overlaps x in an odd number of bits, else 0.  Its
        values at b are also taken once.  Mask 0 gives exactly 0.
        """
        s = 1.0 - 2.0 * ((states[None, :] >> np.arange(self.n)[:, None]) & 1)
        minus_2g = -2.0 * (self.h[:, None] + 2.0 * (self.J @ s))
        heavy_zs = self.heavy[0]
        heavy = _term_values(states, self.heavy)

        def delta(x: int) -> np.ndarray:
            flipped = [q for q in range(self.n) if x >> q & 1]
            s_f = s[flipped]
            inner = (4.0 * self.J[flipped][:, flipped]) @ s_f
            inner += minus_2g[flipped]
            out = np.einsum("qb,qb->b", s_f, inner)
            if heavy_zs.size:
                odd = _popcount(heavy_zs & np.int64(x)) & 1 == 1
                out -= 2.0 * _column_sums(heavy[odd])
            return out

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

    The operator's terms fix one of two routes; neither builds anything in
    ``__init__``:

    - diagonal terms plus one-species hops (``hops`` is then the
      off-diagonal part): ``matvec`` is one kernel on Psi = v reshaped to
      the spin-factorised layout, v -> vec(K_up Psi + Psi K_down^T) + D o v,
      with K_sigma the small single-species matrices (``species_matrices``,
      lifted from the one-body matrices) and D the diagonal, so no sector-size matrix is built;
    - anything else: the CSR sector matrix (``sparse``), assembled from
      ``to_sparse()`` on first use and kept.

    ``abs_matvec`` applies the element-wise absolute matrix |O| along the
    same route, to a vector or a block of columns: ``abs`` of the CSR, or
    |K_up|, |K_down| on the vector reshaped to the layout; each absolute
    matrix is built once, on first use.

    On a spin-flip half (``basis.parity`` +-1) only the factorised route
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
        hops = PauliSum(op.n_qubits, {key: c for key, c in op.terms.items() if key[0]})
        factorisable = hops.terms and all(_is_species_hop(x, z, basis.n_sites)
                                          for x, z in hops.terms)
        self.hops = hops if factorisable else None
        if basis.parity:
            self._half_diagonal = self._flip_symmetric_diagonal()

    def _flip_symmetric_diagonal(self) -> np.ndarray:
        """D_half, after checking that the operator commutes with the spin flip."""
        if self.hops is None:
            raise ValueError("a spin-flip half takes diagonal terms plus one-species hops only")
        k_up, k_down = self.one_body_matrices
        if not np.array_equal(k_up, k_down):
            raise ValueError("operator breaks the spin flip: K_up != K_down")
        diagonal, upper, lower = self.basis._triangle
        grid = _DiagonalForm(self.groups.get(0, _NO_TERMS)).diagonal(self.basis)
        if np.abs(grid[upper] - grid[lower]).max(initial=0.0) > 1e-12 * np.abs(grid).max(initial=0.0):
            raise ValueError("operator breaks the spin flip: D is not symmetric")
        return np.concatenate([grid[diagonal], (grid[upper] + grid[lower]) / 2])

    @cached_property
    def species_matrices(self) -> tuple[csr_matrix, csr_matrix]:
        """(K_up, K_down): ``hops`` on the species lists, each lifted from
        its one-body matrix."""
        return tuple(lift.operator(k) for lift, k in
                     zip(self.basis.species, self.one_body_matrices))

    @cached_property
    def _abs_species_matrices(self) -> tuple[csr_matrix, csr_matrix]:
        """(|K_up|, |K_down|), element-wise, for ``abs_matvec``."""
        return tuple(abs(k) for k in self.species_matrices)

    @cached_property
    def one_body_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(k_up, k_down): ``hops`` restricted to one electron of each
        species, i.e. the n x n single-particle hopping matrices.

        On one electron a hop's Jordan-Wigner chain is empty, so the group of
        modes p < q gives k[q, p] and k[p, q] as its amplitudes at the states
        1 << p and 1 << q.  Its amplitude at the vacuum is that of a pairing
        term, which changes the electron count: beyond float residue of
        exact cancellations it raises ``ValueError``.
        """
        if self.hops is None:
            raise ValueError("one-body matrices need diagonal terms plus one-species hops")
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
    def diagonal(self) -> np.ndarray:
        return _DiagonalForm(self.groups.get(0, _NO_TERMS)).diagonal(self.basis)

    @cached_property
    def is_real(self) -> bool:
        return not any(np.iscomplexobj(cs) for _, cs in self.groups.values())

    @staticmethod
    def _hop_action(k_up, k_down, psi: np.ndarray) -> np.ndarray:
        """k_up Psi + Psi k_down^T, on the first two axes of Psi (a matrix, or
        a stack of them along a third axis)."""
        rows, cols = psi.shape[:2]
        up = (k_up @ psi.reshape(rows, -1)).reshape(psi.shape)
        down = k_down @ psi.swapaxes(0, 1).reshape(cols, -1)
        return up + down.reshape((cols, rows) + psi.shape[2:]).swapaxes(0, 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """O v; a factorised O gives vec(K_up Psi + Psi K_down^T) + D o v,
        with Psi = v reshaped to the layout, returned in v's shape.  On a
        half, v may also be a (dim, m) block of columns."""
        if self.hops is None:
            return self.sparse @ v
        if self.basis.parity:
            psi = self.basis.embed(v)
            y = self.species_matrices[0] @ psi.reshape(self.basis.shape[0], -1)
            out = 2.0 * self.basis.restrict(y.reshape(psi.shape))
            out += (self._half_diagonal if v.ndim == 1 else self._half_diagonal[:, None]) * v
            return out
        psi = v.reshape(self.basis.shape)
        out = self._hop_action(*self.species_matrices, psi)
        if 0 in self.groups:
            out = out + self.diagonal.reshape(psi.shape) * psi
        return out.reshape(v.shape)

    def abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O| v for the element-wise absolute matrix |O|; v is a vector or a
        (dim, m) block of columns."""
        self.basis.require_whole_sector("abs_matvec")
        if self.hops is None:
            return self._abs_sparse @ v
        psi = v.reshape(self.basis.shape + v.shape[1:])
        out = self._hop_action(*self._abs_species_matrices, psi).reshape(v.shape)
        if 0 not in self.groups:
            return out
        d = np.abs(self.diagonal)
        return (d if v.ndim == 1 else d[:, None]) * v + out

    def to_sparse(self) -> csr_matrix:
        """The sector matrix in CSR form, assembled afresh from the x-groups.

        Zero-amplitude entries are dropped first; they are exactly the
        states whose image under the bit flips leaves the sector.
        """
        self.basis.require_whole_sector("to_sparse")
        states = self.basis.states
        d = self.diagonal
        nz = np.nonzero(d)[0]
        rows, cols, data = [nz], [nz], [d[nz]]
        for x, group in self.groups.items():
            if x == 0:
                continue
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
        """The sector matrix as an array; on a half, from ``matvec`` on
        blocks of the identity's columns."""
        if self.dim > DENSE_DIM_LIMIT:
            raise ValueError("sector too large for dense mode")
        if not self.basis.parity:
            return self.to_sparse().toarray()
        out = np.empty((self.dim, self.dim), dtype=float if self.is_real else complex)
        for start in range(0, self.dim, _DENSE_BLOCK):
            width = min(_DENSE_BLOCK, self.dim - start)
            out[:, start:start + width] = self.matvec(np.eye(self.dim, width, -start))
        return out


def hermitian_exponential(eig: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(-i t H) = W exp(-i t lambda) W^dagger from eig = (lambda, W) of H."""
    vals, vecs = eig
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


# the Cayley transform of U loses about eps / (pi - |phi|) of accuracy, so a
# phase closer than this to its pole at +-pi moves the pole into a spectral gap
_POLE_DISTANCE = 1e-2


def _cayley_phases(unitary: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, V) with U = V exp(-i phi) V^dagger and phi in (alpha - pi, alpha + pi).

    C = -i (I + W)^-1 (I - W) of the unitary W = exp(i alpha) U is Hermitian,
    with eigenvalues tan((phi - alpha)/2).  A complex symmetric W, such as a
    palindromic product of exponentials of real symmetric matrices, gives a
    real C; its imaginary part is dropped when it is no larger than the
    rounding that Hermitising C drops, and the eigensolve runs in real
    arithmetic.  A singular I + W raises ``LinAlgError``.
    """
    eye = np.eye(len(unitary))
    rotated = np.exp(1j * alpha) * unitary
    cayley = -1j * np.linalg.solve(eye + rotated, eye - rotated)
    hermitian = (cayley + cayley.conj().T) / 2
    if np.abs(hermitian.imag).max(initial=0.0) <= np.abs(cayley - hermitian).max(initial=0.0):
        hermitian = hermitian.real
    mu, vecs = eigh(hermitian, driver="evd")
    return alpha + 2.0 * np.arctan(mu), vecs


def principal_log_spectrum(unitary: np.ndarray, t: float,
                           margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of H = (i/t) log U on the principal branch: U = exp(-i t H).

    The Cayley transform C = -i (I + U)^-1 (I - U) of a unitary U is
    Hermitian, with the eigenvectors of U and eigenvalues tan(phi/2) where
    U = V exp(-i phi) V^dagger (Higham, Functions of Matrices, 2008), so one
    Hermitian eigensolve gives phi = 2 arctan(mu) and E = phi / t.  When a
    phase comes within ``_POLE_DISTANCE`` of +-pi, the transform is taken
    once more with its pole rotated into the widest gap between the phases.
    Phases within ``margin`` of +-pi, or an eigenvalue -1 (a singular
    I + U), leave the branch ambiguous; a U that is not normal, so that
    V exp(-i phi) V^dagger misses it by more than 1e-10, has no such log.
    Each raises ``ValueError``.  Returns (energies ascending, orthonormal
    eigenvectors as columns).
    """
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
    if np.abs(phases).max(initial=0.0) >= np.pi - margin:
        raise ValueError("time step too large: log branch ambiguity")
    if np.abs(hermitian_exponential((phases, vecs), 1.0) - unitary).max(initial=0.0) > 1e-10:
        raise ValueError("unitary is not normal to tolerance: its log does not reproduce it")
    return phases / t, vecs


def _start_vector(dim: int) -> np.ndarray:
    """Fixed Lanczos start vector, so repeated eigensolves agree bit for bit."""
    return np.random.default_rng(0).standard_normal(dim)


def _lanczos(sop: SectorOperator, k: int, tol: float):
    """The k lowest eigenpairs from ``eigsh`` on ``sop.matvec``, started at
    ``_start_vector``.

    The Lanczos basis holds ncv = 2k + 10 vectors: ARPACK's own work per
    iteration grows with ncv and, next to a cheap matvec, outweighs it, and
    scipy's default, max(2k + 1, 20), keeps 20 vectors even for k = 1.
    """
    lo = LinearOperator((sop.dim, sop.dim), matvec=sop.matvec,
                        dtype=float if sop.is_real else complex)
    return eigsh(lo, k=k, which="SA", tol=tol, maxiter=5000, v0=_start_vector(sop.dim),
                 ncv=2 * k + 10)


def lowest_eigenpairs(op, basis: SectorBasis, k: int = 1, tol: float = 0.0):
    """k lowest eigenpairs of a Hermitian operator on the sector.

    ``op`` is a PauliSum or a SectorOperator, and ``basis`` a whole sector
    or a spin-flip half, whose eigenvectors are the half's vectors.  Dense
    diagonalization up to DENSE_DIM_LIMIT; above it, implicitly restarted
    Lanczos (``eigsh``) from a fixed start vector, with a basis of 2k + 10
    vectors (``_lanczos``).  Eigenvalues ascend; the eigenvectors are
    columns.
    """
    if isinstance(op, PauliSum):
        op = SectorOperator(op, basis)
    if basis.dim > DENSE_DIM_LIMIT:
        vals, vecs = _lanczos(op, k, tol)
        order = np.argsort(vals)
        return vals[order], vecs[:, order]
    vals, vecs = eigh(op.to_dense(), driver="evd")
    return vals[:k], vecs[:, :k]


# -- time propagation ---------------------------------------------------------


class Propagator:
    """Applies exp(-i G t) for one Hamiltonian piece G to a state in layout
    form: the sector vector reshaped to the matrix Psi of shape
    ``basis.shape``, rows over up configurations and columns over down ones.

    The route follows from G:

    - diagonal G: Psi -> exp(-i t D) o Psi, with the phases of the
      diagonal, reshaped to the layout, cached per duration;
    - G made only of one-species hops (the kinetic factor, a tile section):
      Psi -> M_up Psi M_down^T, where M_sigma = exp(-i t K_sigma) is cached
      per duration, built exactly from the n x n one-body unitary
      exp(-i t k_sigma) as a product of sparse 2-mode rotations and one
      phase diagonal (``basis.species``, ``_SpeciesLift.exponential``); it
      stays sparse for a tile section and is dense for the full kinetic
      factor.

    Every factor of a Trotter scheme is one of the two; any other G is
    rejected with ``ValueError``.
    """

    def __init__(self, op: PauliSum, basis: SectorBasis):
        basis.require_whole_sector("Propagator")
        self.sop = SectorOperator(op, basis)
        self.basis = basis
        self.diagonal_only = all(x == 0 for x in self.sop.groups)
        self.hopping_only = self.sop.hops is not None and 0 not in self.sop.groups
        if not (self.diagonal_only or self.hopping_only):
            raise ValueError("Propagator needs a diagonal or a hopping-only operator")
        self._exponentials: dict[float, np.ndarray | tuple] = {}

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        if t not in self._exponentials:
            self._exponentials[t] = (
                np.exp(-1j * t * self.sop.diagonal.real).reshape(self.basis.shape)
                if self.diagonal_only
                else tuple(lift.exponential(k, t) for lift, k in
                           zip(self.basis.species, self.sop.one_body_matrices)))
        if self.diagonal_only:
            return self._exponentials[t] * psi
        m_up, m_down = self._exponentials[t]
        return m_up @ (m_down @ psi.T).T


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
    """<S²> = |S+ psi|² + s_z (s_z + 1)."""
    sz = basis.sz_twice / 2.0
    try:
        plus, _ = apply_s_plus(state, basis)
        s_plus_sq = float(np.vdot(plus, plus).real)
    except ValueError:
        s_plus_sq = 0.0  # raised sector infeasible, so S+ annihilates psi
    return s_plus_sq + sz * (sz + 1.0)
