"""Sparse Pauli-sum algebra and the Jordan-Wigner transformation.

A Pauli string on n qubits is stored as an (x, z) pair of bit masks in the
phase-canonical form

    S(x, z) = i^{popcount(x & z)} X^x Z^z,

which is Hermitian and equals the plain tensor product of I/X/Y/Z letters
(the i-phase unravels per qubit, turning each overlapping X Z into Y).
Products of canonical strings pick up an integer power of i that is folded
into the coefficient.

Spin orbitals are blocked by spin: on n sites, qubit i is site i spin-up and
qubit n + i is site i spin-down (``qubit_index``).  A hop then carries a
Jordan-Wigner chain over its own species only, so the Hamiltonian restricted
to fixed (N_up, N_down) is K_up (x) I + I (x) K_down + D on the product of the
single-species configurations, and one-body rotations factor per species.
"""

from __future__ import annotations

import numpy as np

PRUNE_REL = 1e-12


def _product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power k of i in S(x1,z1)·S(x2,z2) = i^k · S(x1^x2, z1^z2)."""
    x3, z3 = x1 ^ x2, z1 ^ z2
    k = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return k % 4


def strings_commute(x1: int, z1: int, x2: int, z2: int) -> bool:
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


class PauliSum:
    """A sparse real/complex-linear combination of canonical Pauli strings.

    Terms live in a dict keyed by (x_mask, z_mask).  The identity component
    is kept like any other term; callers that want it separated use
    ``split_identity``.
    """

    def __init__(self, n_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n_qubits = n_qubits
        self.terms: dict[tuple[int, int], complex] = dict(terms or {})

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): coeff})

    def add_term(self, x: int, z: int, coeff: complex) -> None:
        key = (x, z)
        new = self.terms.get(key, 0.0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def copy(self) -> "PauliSum":
        return PauliSum(self.n_qubits, self.terms)

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def term_count(self) -> int:
        """The number of terms other than the identity."""
        return len(self.terms) - ((0, 0) in self.terms)

    def coefficient(self, x: int, z: int) -> complex:
        return self.terms.get((x, z), 0.0)

    def is_diagonal(self) -> bool:
        return all(x == 0 for x, _ in self.terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def split_identity(self) -> tuple["PauliSum", complex]:
        rest = {k: v for k, v in self.terms.items() if k != (0, 0)}
        return PauliSum(self.n_qubits, rest), self.terms.get((0, 0), 0.0)

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = self.copy()
        for key, c in other.terms.items():
            out.add_term(*key, c)
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n_qubits, {k: scalar * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = PauliSum(self.n_qubits)
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                k = _product_phase(x1, z1, x2, z2)
                out.add_term(x1 ^ x2, z1 ^ z2, c1 * c2 * (1j**k))
        return out.pruned()

    def pruned(self) -> "PauliSum":
        """Without the terms at or below ``PRUNE_REL`` of the largest."""
        cut = PRUNE_REL * self.max_abs_coeff()
        kept = {k: v for k, v in self.terms.items() if abs(v) > cut}
        return PauliSum(self.n_qubits, kept)

    def require_real(self, context: str = "operator") -> "PauliSum":
        """Drop numerically-zero imaginary parts, error on genuine ones."""
        scale = self.max_abs_coeff() or 1.0
        out = {}
        for key, c in self.terms.items():
            if abs(c.imag if isinstance(c, complex) else 0.0) > 1e-9 * scale:
                raise ValueError(
                    f"{context}: non-real coefficient {c} on term {key}"
                )
            out[key] = complex(c).real
        return PauliSum(self.n_qubits, out)

    # -- state action ---------------------------------------------------------

    def apply_to_basis_state(self, bits: int) -> dict[int, complex]:
        """Action on a computational basis state given as an occupation int.

        Bit q of ``bits`` is the occupation of qubit q.  Returns the sparse
        output vector as {bits: amplitude}.
        """
        out: dict[int, complex] = {}
        for (x, z), c in self.terms.items():
            amp = c * (1j ** ((x & z).bit_count() % 4))
            if (z & bits).bit_count() % 2:
                amp = -amp
            target = bits ^ x
            out[target] = out.get(target, 0.0) + amp
        return {b: a for b, a in out.items() if a != 0}


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """[a, b] = ab - ba, using term-pairwise cancellation.

    Commuting string pairs contribute nothing; anticommuting pairs
    contribute 2·(product).
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    out = PauliSum(a.n_qubits)
    for (x1, z1), c1 in a.terms.items():
        for (x2, z2), c2 in b.terms.items():
            if strings_commute(x1, z1, x2, z2):
                continue
            k = _product_phase(x1, z1, x2, z2)
            out.add_term(x1 ^ x2, z1 ^ z2, 2.0 * c1 * c2 * (1j**k))
    return out.pruned()


# -- Jordan-Wigner ------------------------------------------------------------


def qubit_index(site: int, spin: int, n_sites: int) -> int:
    """Spin-blocked ordering on ``n_sites`` sites: (site, spin) -> site + spin·n."""
    return site + spin * n_sites


def add_hop(op: PauliSum, p: int, q: int, coeff: float) -> None:
    """Add coeff·(a†_p a_q + h.c.) to ``op``: (coeff/2)(X Z..Z X + Y Z..Z Y).

    Both canonical strings carry coeff/2 (the Y-string's i-phases cancel
    against the Jordan-Wigner sign).
    """
    p, q = sorted((int(p), int(q)))
    ends = (1 << p) | (1 << q)
    chain = (1 << q) - (1 << (p + 1))
    op.add_term(ends, chain, coeff / 2.0)
    op.add_term(ends, chain | ends, coeff / 2.0)


def jordan_wigner(fermion_hamiltonian) -> tuple[PauliSum, PauliSum]:
    """Map a fermionic PPP Hamiltonian to (kinetic, potential) Pauli sums,
    with modes on ``qubit_index``.

    Kinetic: each hop c·(a†_p a_q + h.c.) becomes (c/2)(X Z..Z X + Y Z..Z Y).
    Potential: ``jw_potential``.
    """
    n = fermion_hamiltonian.site_count
    kinetic = PauliSum(2 * n)
    for (i, j), spin, coeff in fermion_hamiltonian.hops():
        add_hop(kinetic, qubit_index(i, spin, n), qubit_index(j, spin, n), coeff)
    return kinetic.pruned(), jw_potential(fermion_hamiltonian)


def jw_potential(fermion_hamiltonian) -> PauliSum:
    """The potential half of ``jordan_wigner``, built from the on-site and
    pair arrays: densities become I/Z polynomials.

    u n↑n↓ = (u/4)(1 - Z↑ - Z↓ + Z↑Z↓) and
    v (n_i - 1)(n_j - 1) = (v/4)(Z_i↑ + Z_i↓)(Z_j↑ + Z_j↓).  Terms are in the
    order of a term-by-term build: the identity (the on-site u/4 summed
    site by site), then per site Z↑, Z↓, Z↑Z↓, then per pair i < j the four
    ZZ terms; exact zeros are dropped, then terms below ``PRUNE_REL`` of
    the largest.  Masks are Python ints, so qubits past 63 do not wrap.
    """
    n = fermion_hamiltonian.site_count
    up = np.array([1 << qubit_index(i, 0, n) for i in range(n)], dtype=object)
    down = np.array([1 << qubit_index(i, 1, n) for i in range(n)], dtype=object)
    quarter_u = fermion_hamiltonian.on_site / 4.0
    identity = 0.0
    for c in quarter_u.tolist():
        identity += c
    i, j = np.triu_indices(n, 1)
    quarter_v = fermion_hamiltonian.v[i, j] / 4.0
    masks = np.concatenate([
        np.stack([up, down, up | down], axis=1).ravel(),
        np.stack([up[i] | up[j], up[i] | down[j],
                  down[i] | up[j], down[i] | down[j]], axis=1).ravel(),
    ]).tolist()
    coeffs = np.concatenate([
        np.stack([-quarter_u, -quarter_u, quarter_u], axis=1).ravel(),
        np.repeat(quarter_v, 4),
    ]).tolist()
    terms = {(0, 0): identity} if identity != 0 else {}
    terms.update(((0, z), c) for z, c in zip(masks, coeffs) if c != 0)
    return PauliSum(2 * n, terms).pruned()


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


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix in the full 2^n computational basis (small n only)."""
    dim = 1 << op.n_qubits
    if op.n_qubits > 14:
        raise ValueError("dense matrix limited to 14 qubits")
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        for tgt, amp in op.apply_to_basis_state(b).items():
            mat[tgt, b] += amp
    return mat
