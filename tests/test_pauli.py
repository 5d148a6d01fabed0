from importlib.resources import files

import numpy as np
import pytest

from fock_oracle import apply_to_basis_state, dense_matrix, number_operator, sz_operator
from trotterlab.hamiltonian import build_ppp
from trotterlab.lattice import build_lattice
from trotterlab.pauli import (
    PauliSum,
    _potential_terms,
    add_hop,
    commutator,
    jordan_wigner,
    qubit_index,
)


def _random_sum(rng, n_qubits, n_terms):
    out = PauliSum(n_qubits)
    for _ in range(n_terms):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        out.add_term(x, z, float(rng.normal()))
    return out


def _interleaved(site, spin):
    """The other common spin ordering: qubit 2i up, 2i + 1 down."""
    return 2 * site + spin


def _fermion_oracle(fh):
    """Second-quantized dense matrices in the occupation basis, bit q = mode q."""
    n = fh.site_count
    nq = 2 * n
    dim = 1 << nq
    T = np.zeros((dim, dim))
    for (i, j), spin, c in fh.hops():
        p, q = qubit_index(i, spin, n), qubit_index(j, spin, n)
        for b in range(dim):
            if (b >> q) & 1 and not (b >> p) & 1:
                sign = (-1) ** bin(b & ((1 << q) - 1)).count("1")
                b1 = b & ~(1 << q)
                sign *= (-1) ** bin(b1 & ((1 << p) - 1)).count("1")
                b2 = b1 | (1 << p)
                T[b2, b] += c * sign
                T[b, b2] += c * sign
    occ = np.array([[(b >> q) & 1 for q in range(nq)] for b in range(dim)])
    up, down = occ[:, :n], occ[:, n:]
    V = np.zeros(dim)
    for i in range(n):
        V += fh.on_site[i] * up[:, i] * down[:, i]
    for i, j in ((i, j) for i in range(n) for j in range(i + 1, n)):
        vij = fh.v[i, j]
        ni = up[:, i] + down[:, i]
        nj = up[:, j] + down[:, j]
        V += vij * (ni - 1) * (nj - 1)
    return T, np.diag(V)


def test_single_qubit_algebra():
    z = PauliSum(1, {(0, 1): 1.0})
    x = PauliSum(1, {(1, 0): 1.0})
    y = PauliSum(1, {(1, 1): 1.0})
    zx = z @ x
    # ZX = iY
    assert zx.terms == {(1, 1): 1j}
    c = commutator(z, x)
    assert c.terms == {(1, 1): 2j}
    assert len(commutator(z, z)) == 0
    assert np.allclose(dense_matrix(y), np.array([[0, -1j], [1j, 0]]))


def test_commutator_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(7)
    a = _random_sum(rng, 4, 6)
    b = _random_sum(rng, 4, 6)
    c = _random_sum(rng, 4, 6)
    ab = commutator(a, b)
    ba = commutator(b, a)
    assert np.isclose((ab + ba).max_abs_coeff(), 0.0, atol=1e-12)
    lhs = commutator(a + b, c)
    rhs = commutator(a, c) + commutator(b, c)
    assert (lhs - rhs).max_abs_coeff() < 1e-10


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    a = _random_sum(rng, 3, 4)
    b = _random_sum(rng, 3, 4)
    c = _random_sum(rng, 3, 4)
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.max_abs_coeff() < 1e-8


def test_jw_benzene_against_fermion_oracle():
    fh = build_ppp(build_lattice("acene", 1))
    kin, pot = jordan_wigner(fh)
    T, V = _fermion_oracle(fh)
    assert np.abs(dense_matrix(kin) - T).max() < 1e-10
    assert np.abs(dense_matrix(pot) - V).max() < 1e-10


def test_jw_term_structure():
    fh = build_ppp(build_lattice("acene", 1))
    kin, pot = jordan_wigner(fh)
    assert kin.term_count() == 24  # 12 hops x 2 strings
    assert pot.term_count() == 78
    assert pot.is_diagonal()
    singles = sum(1 for (x, z) in pot.terms if x == 0 and z.bit_count() == 1)
    doubles = sum(1 for (x, z) in pot.terms if x == 0 and z.bit_count() == 2)
    assert singles == 12 and doubles == 66  # 60 pair-ZZ + 6 on-site ZZ


def _potential_by_add_term(fh, idx):
    """The JW potential added term by term (the oracle of the array build)."""
    n = fh.site_count
    potential = PauliSum(2 * n)
    for i in range(n):
        u = float(fh.on_site[i])
        a, b = idx(i, 0), idx(i, 1)
        potential.add_term(0, 0, u / 4.0)
        potential.add_term(0, 1 << a, -u / 4.0)
        potential.add_term(0, 1 << b, -u / 4.0)
        potential.add_term(0, (1 << a) | (1 << b), u / 4.0)
    for i, j in ((i, j) for i in range(n) for j in range(i + 1, n)):
        v = float(fh.v[i, j])
        for si in (0, 1):
            for sj in (0, 1):
                potential.add_term(0, (1 << idx(i, si)) | (1 << idx(j, sj)), v / 4.0)
    return potential.pruned()


def _jordan_wigner_interleaved(fh):
    """(kinetic, potential) of ``jordan_wigner`` in the ``_interleaved`` order,
    built hop by hop and term by term."""
    kinetic = PauliSum(2 * fh.site_count)
    for (i, j), spin, coeff in fh.hops():
        add_hop(kinetic, _interleaved(i, spin), _interleaved(j, spin), coeff)
    return kinetic.pruned(), _potential_by_add_term(fh, _interleaved)


def _moved_to_interleaved(op, n):
    """``op`` with qubit ``qubit_index(i, s, n)`` moved to ``_interleaved(i, s)``,
    terms in the same order."""
    def move(mask):
        return sum(1 << _interleaved(q % n, q // n) for q in range(2 * n) if mask >> q & 1)
    return PauliSum(op.n_qubits, {(move(x), move(z)): c for (x, z), c in op.terms.items()})


def _shipped_molecules():
    """Benzene, naphthalene and every molecule with a shipped tiling."""
    out = [("acene", 1), ("acene", 2)]
    for entry in sorted((files("trotterlab") / "tilings").iterdir(), key=lambda e: e.name):
        stem = entry.name.removesuffix(".json")
        family = stem.rstrip("0123456789")
        out.append((family, int(stem[len(family):])))
    return out


@pytest.mark.parametrize("family,n", _shipped_molecules())
def test_jw_potential_matches_add_term_build(family, n):
    """Same terms, coefficients and insertion order as the term-by-term build
    (the shift's tie-breaks depend on the order); moved onto the interleaved
    qubits, the same as that order's term-by-term build."""
    fh = build_ppp(build_lattice(family, n))
    _, got = jordan_wigner(fh)
    want = _potential_by_add_term(fh, lambda site, spin: qubit_index(site, spin, fh.site_count))
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is float for c in got.terms.values())
    moved = _moved_to_interleaved(got, fh.site_count)
    _, interleaved = _jordan_wigner_interleaved(fh)
    assert list(moved.terms.items()) == list(interleaved.terms.items())
    # the Z-weights handed to the shift are those of the keys
    keys, _, weights = _potential_terms(fh)
    assert keys == list(got.terms) and weights.tolist() == [z.bit_count() for _, z in keys]


def test_adjacent_hop_has_no_z_chain():
    # adjacent JW modes p=0, q=1: exactly (XX + YY)/2 * coeff
    s = PauliSum(2)
    s.add_term(0b11, 0b00, -1.2)
    s.add_term(0b11, 0b11, -1.2)
    mat = dense_matrix(s)
    expect = -2.4 * (
        np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        + np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    ) / 2
    # the kron order differs only by a basis relabel; compare spectra
    assert np.allclose(sorted(np.linalg.eigvalsh(mat)), sorted(np.linalg.eigvalsh(expect)))


def test_symmetry_commutators_vanish():
    fh = build_ppp(build_lattice("acene", 1))
    kin, pot = jordan_wigner(fh)
    n_hat = number_operator(6)
    s_z = sz_operator(6)
    for op in (kin, pot):
        assert len(commutator(op, n_hat)) == 0
        assert len(commutator(op, s_z)) == 0


def test_apply_to_basis_state():
    ident = PauliSum.identity(3)
    assert apply_to_basis_state(ident, 0b101) == {0b101: 1.0}
    zsum = PauliSum(3, {(0, 0b001): 2.0, (0, 0b010): 3.0})
    out = apply_to_basis_state(zsum, 0b001)
    assert set(out) == {0b001}
    assert np.isclose(out[0b001], -2.0 + 3.0)


def test_apply_matches_dense_columns():
    rng = np.random.default_rng(3)
    op = _random_sum(rng, 4, 8).require_real()
    mat = dense_matrix(op)
    for b in [0, 5, 9, 15]:
        col = np.zeros(16, dtype=complex)
        for tgt, amp in apply_to_basis_state(op, b).items():
            col[tgt] = amp
        assert np.allclose(col, mat[:, b])


def _block_spectrum(mat, up_qubits, down_qubits):
    """Sorted spectrum of a Fock-space matrix from its (N_up, N_down) blocks,
    after checking that every element outside them is exactly 0."""
    index = np.arange(len(mat))
    n_up = sum((index >> q) & 1 for q in up_qubits)
    n_down = sum((index >> q) & 1 for q in down_qubits)
    label = n_up * (len(down_qubits) + 1) + n_down
    spectrum = []
    for key in np.unique(label):
        inside = label == key
        rows = mat[inside]
        assert not rows[:, ~inside].any()
        spectrum.append(np.linalg.eigvalsh(rows[:, inside]))
    return np.sort(np.concatenate(spectrum))


def test_ordering_independence_of_counts():
    """Interleaved spin ordering gives the same term counts and spectra."""
    fh = build_ppp(build_lattice("acene", 1))
    kin_a, pot_a = jordan_wigner(fh)
    kin_b, pot_b = _jordan_wigner_interleaved(fh)
    assert kin_a.term_count() == kin_b.term_count()
    assert pot_a.term_count() == pot_b.term_count()
    # both conserve N_up and N_down, so the full spectrum is the union of
    # the (N_up, N_down) block spectra
    n = fh.site_count
    ea = _block_spectrum(dense_matrix(kin_a + pot_a), range(n), range(n, 2 * n))
    eb = _block_spectrum(dense_matrix(kin_b + pot_b), range(0, 2 * n, 2), range(1, 2 * n, 2))
    assert len(ea) == len(eb) == 1 << (2 * n)
    assert np.allclose(ea, eb, atol=1e-8)


def test_require_real_rejects_imaginary():
    s = PauliSum(1, {(1, 0): 1.0 + 0.5j})
    with pytest.raises(ValueError):
        s.require_real()
