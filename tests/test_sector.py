import os
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.linalg import eigh, expm, schur

from fock_oracle import dense_matrix, full_matrix, sz_operator
from kinetic_oracle import effective_kinetic
from trotterlab.cli import main
from trotterlab.freefermion import load_tiling, tile_sections, tiling_path
from trotterlab.hamiltonian import build_ppp, shifted_potential
from trotterlab.lattice import bond_orientation_classes, build_lattice
from trotterlab.norms import (
    HoppingCommutatorAction,
    dense_spectral_norm,
    frobenius_exact,
    frobenius_sampled,
    nested_commutators,
    spectral_norm_bound,
)
from trotterlab.pauli import (
    PauliSum,
    add_hop,
    commutator,
    jordan_wigner,
    qubit_index,
)
from trotterlab.sector import (
    DENSE_DIM_LIMIT,
    Propagator,
    SectorBasis,
    SectorOperator,
    _DiagonalForm,
    _configurations,
    _givens_decomposition,
    _group_terms,
    _determinant_seed,
    _lanczos,
    _term_values,
    apply_s_plus,
    dense_from_action,
    enumerate_sector,
    half_filling_sector,
    lowest_eigenpairs,
    principal_log_spectrum,
    total_spin_expectation,
)
from trotterlab.spectral import (
    compute_time_series,
    default_section_order,
    effective_spectrum_dense,
    hopping_pauli_sum,
    so_scheme,
    tile_scheme,
)


@pytest.fixture(scope="module")
def benzene():
    fh = build_ppp(build_lattice("acene", 1))
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(6, 6, 0)
    return kin, pot, basis


def test_sector_dimensions():
    assert enumerate_sector(6, 6, 0).dim == 400
    assert enumerate_sector(10, 10, 0).dim == comb(10, 5) ** 2
    b = enumerate_sector(13, 13, 1)
    assert b.dim == comb(13, 7) * comb(13, 6)


def test_half_filling_sector_odd_even():
    assert half_filling_sector(6).sz_twice == 0
    assert half_filling_sector(13).sz_twice == 1


def test_infeasible_sector_rejected():
    with pytest.raises(ValueError):
        enumerate_sector(4, 9, 0)
    with pytest.raises(ValueError):
        enumerate_sector(4, 4, 1)  # parity mismatch
    with pytest.raises(ValueError):
        enumerate_sector(4, 2, 8)


def test_basis_deterministic_and_sorted():
    """Each species' configurations are sorted, up on bits 0..4 and down on
    bits 5..9, and the basis is their up-major (up x down) product: a sector
    vector is its layout matrix."""
    b = enumerate_sector(5, 5, 1)
    assert np.all(np.diff(b.up_states) > 0) and np.all(np.diff(b.down_states) > 0)
    assert b.up_states.tolist() == sorted(
        sum(1 << i for i in c) for c in combinations(range(5), 3))
    assert b.down_states.tolist() == sorted(
        sum(1 << (5 + i) for i in c) for c in combinations(range(5), 2))
    want = [up | down for up in b.up_states.tolist() for down in b.down_states.tolist()]
    assert b.states.tolist() == want
    assert np.array_equal(b.states, enumerate_sector(5, 5, 1).states)


def test_configurations_match_combinations_oracle():
    """The site-by-site enumeration lists the same sorted int64 arrays as
    itertools.combinations, for every count and both species offsets."""
    for n in range(13):
        for k in range(n + 1):
            for offset in (0, n):
                want = sorted(sum(1 << (i + offset) for i in c)
                              for c in combinations(range(n), k))
                got = _configurations(n, k, offset)
                assert got.dtype == np.int64 and got.tolist() == want, (n, k, offset)


@pytest.mark.parametrize("sector", [(6, 6, 0), (10, 4, 2), (5, 5, 1), (10, 4, 4)])
def test_states_at_matches_states(sector):
    """States taken by index from their (up, down) pairs are the listed
    ones; (10, 4, 4) has no down electrons."""
    b = enumerate_sector(*sector)
    idx = np.concatenate([[0, b.dim - 1],
                          np.random.default_rng(sum(sector)).integers(0, b.dim, 500)])
    got = b.states_at(idx)
    assert "states" not in vars(b)
    assert got.dtype == np.int64 and np.array_equal(got, b.states[idx])


@pytest.mark.parametrize("sector", [(6, 6, 0), (10, 4, 2), (5, 5, 1), (6, 3, 3)])
def test_index_or_mask_matches_dict_oracle(sector):
    """Every state in the sector maps to its position; states outside it,
    including those with exactly one species in its single-species sector,
    are invalid with index 0."""
    b = enumerate_sector(*sector)
    oracle = {state: i for i, state in enumerate(b.states.tolist())}
    rng = np.random.default_rng(sum(sector))
    n = b.n_sites
    inside = rng.permutation(b.states)
    one_up_flipped = inside ^ np.int64(1 << int(rng.integers(n)))
    one_down_flipped = inside ^ np.int64(1 << (n + int(rng.integers(n))))
    beyond = inside | np.int64(1 << (2 * n))
    noise = rng.integers(0, 1 << (2 * n), size=200)
    packed = np.concatenate([inside, one_up_flipped, one_down_flipped, beyond, noise])
    up_valid = np.isin(packed & np.int64((1 << n) - 1), b.up_states)
    down_valid = np.isin(packed >> n << n, b.down_states)
    assert np.any(up_valid & ~down_valid) and np.any(down_valid & ~up_valid)
    idx, valid = b.index_or_mask(packed)
    assert valid.tolist() == [state in oracle for state in packed.tolist()]
    assert idx.tolist() == [oracle.get(state, 0) for state in packed.tolist()]


def test_basis_index_rejects_states_outside_the_sector():
    b = enumerate_sector(4, 4, 0)
    idx, valid = b.index_or_mask(b.states[::-1])
    assert valid.all() and np.array_equal(idx, np.arange(b.dim)[::-1])
    outside = np.array([b.states[0], b.states[-1] + 1, 0], dtype=np.int64)
    idx, valid = b.index_or_mask(outside)
    assert valid.tolist() == [True, False, False] and idx.tolist() == [0, 0, 0]


def test_sector_matrix_matches_full_restriction(benzene):
    kin, pot, basis = benzene
    H = kin + pot
    mat = SectorOperator(H, basis).to_dense()
    full = dense_matrix(H)
    sub = full[np.ix_(basis.states, basis.states)]
    assert np.abs(mat - sub).max() < 1e-10
    assert np.abs(mat - mat.conj().T).max() < 1e-10


def test_sector_closure(benzene):
    """H maps sector states into the sector: scatter targets all resolve."""
    kin, pot, basis = benzene
    sop = SectorOperator(kin + pot, basis)
    v = np.zeros(basis.dim)
    v[0] = 1.0
    y = sop.matvec(v)  # would raise if support escaped the sector
    assert np.isfinite(y).all()


def test_lanczos_matches_dense(benzene):
    kin, pot, basis = benzene
    H = kin + pot
    mat = SectorOperator(H, basis).to_dense()
    dense_vals = np.linalg.eigvalsh(mat)
    vals, _ = lowest_eigenpairs(H, basis, k=3)
    assert np.allclose(vals, dense_vals[:3], atol=1e-10)


def test_v_only_lowest_is_min_diagonal(benzene):
    _, pot, basis = benzene
    sop = SectorOperator(pot, basis)
    vals, _ = lowest_eigenpairs(pot, basis, k=1)
    assert np.isclose(vals[0], sop.diagonal.real.min(), atol=1e-10)


def test_table_gaps_2acene():
    """Low-lying gaps of the 10-site molecule: 2.529 and 3.611 eV."""
    fh = build_ppp(build_lattice("acene", 2))
    kin, pot = jordan_wigner(fh)
    H = kin + pot
    b0 = enumerate_sector(10, 10, 0)
    vals, vecs = lowest_eigenpairs(H, b0, k=4, tol=1e-10)
    s2 = [total_spin_expectation(vecs[:, m], b0) for m in range(4)]
    e_s0 = vals[0]
    assert abs(s2[0]) < 1e-6
    e_t1 = next(vals[m] for m in range(1, 4) if abs(s2[m] - 2.0) < 0.1)
    e_s1 = next(vals[m] for m in range(1, 4) if abs(s2[m]) < 0.1)
    assert abs((e_t1 - e_s0) - 2.529) < 1e-3
    assert abs((e_s1 - e_s0) - 3.611) < 1e-3
    # triplet from the S_z=1 sector ground state agrees by spin symmetry
    b1 = enumerate_sector(10, 10, 2)
    v1, _ = lowest_eigenpairs(H, b1, k=1, tol=1e-10)
    assert abs(v1[0] - e_t1) < 1e-8


def test_eigensolvers_repeat_bit_for_bit():
    """k = 2 starts from noise, k = 1 from the determinant plus noise."""
    fh = build_ppp(build_lattice("acene", 2))
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(10, 6, 0)  # 14 400 states: Lanczos, not dense
    for k in (2, 1):
        first = lowest_eigenpairs(kin + pot, basis, k=k, tol=1e-10)
        second = lowest_eigenpairs(kin + pot, basis, k=k, tol=1e-10)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


def test_lowest_eigenpairs_refuses_more_states_than_the_sector(benzene):
    """Dense (400 states) and Lanczos (63 504) routes alike."""
    kin, pot, basis = benzene
    with pytest.raises(ValueError):
        lowest_eigenpairs(kin + pot, basis, k=basis.dim + 1)
    assert lowest_eigenpairs(kin + pot, basis, k=basis.dim)[0].shape == (basis.dim,)
    kin2, pot2 = jordan_wigner(build_ppp(build_lattice("acene", 2)))
    big = enumerate_sector(10, 10, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(kin2 + pot2, big, k=big.dim + 1)


@pytest.mark.parametrize("sector,parity", [((10, 10, 0), 0), ((10, 10, 2), 0),
                                           ((10, 10, 0), 1), ((10, 10, 0), -1)])
def test_determinant_seed_is_a_hopping_eigenvector(sector, parity):
    """With the potential off, the seed is an eigenvector of the hopping at
    the sum of the occupied orbital energies of both species; on the odd
    half one electron sits in the LUMO instead of the HOMO.  A wrong
    Jordan-Wigner sign in the determinant would leave a large residual."""
    kin, _ = jordan_wigner(build_ppp(build_lattice("acene", 2)))
    basis = enumerate_sector(*sector, parity=parity)
    sop = SectorOperator(kin, basis)
    seed = _determinant_seed(sop)
    seed /= np.linalg.norm(seed)
    eps = np.linalg.eigvalsh(sop.one_body_matrices[0])
    n_up = (basis.electrons + basis.sz_twice) // 2
    energy = eps[:n_up].sum() + eps[:basis.electrons - n_up].sum()
    if parity < 0:
        energy += eps[n_up] - eps[n_up - 1]
    assert np.linalg.norm(sop.matvec(seed) - energy * seed) <= 1e-10


def test_lanczos_converges_from_a_seed_orthogonal_to_the_ground_state(benzene):
    """Benzene's (6,4,0) ground state is a triplet, orthogonal to the
    singlet determinant; the noise half of the start vector still finds it."""
    kin, pot, _ = benzene
    basis = enumerate_sector(6, 4, 0)
    sop = SectorOperator(kin + pot, basis)
    vals, vecs = eigh(sop.to_dense())
    ground = vecs[:, np.abs(vals - vals[0]) <= 1e-8]
    assert ground.shape[1] == 1
    assert abs(total_spin_expectation(ground[:, 0], basis) - 2.0) <= 1e-10
    seed = _determinant_seed(sop)
    assert np.linalg.norm(ground.T @ seed) <= 1e-12 * np.linalg.norm(seed)
    got, _ = _lanczos(sop, 1, 1e-10)
    assert abs(got[0] - vals[0]) <= 1e-10


def test_lanczos_eigenpairs_come_back_in_basis_order():
    """eigsh runs on the factorised matvec; its eigenvectors are eigenpairs
    of the CSR matrix assembled from the Pauli terms, with a singlet ground
    state."""
    fh = build_ppp(build_lattice("acene", 2))
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(10, 6, 0)  # 14 400 states: Lanczos, not dense
    h = SectorOperator(kin + pot, basis)
    vals, vecs = lowest_eigenpairs(h, basis, k=2, tol=1e-10)
    assert h.layout
    for val, vec in zip(vals, vecs.T):
        assert np.linalg.norm(h.sparse @ vec - val * vec) <= 1e-8
    assert abs(total_spin_expectation(vecs[:, 0], basis)) < 1e-8


def test_factorised_routes_never_list_the_sector():
    """A Lanczos solve on the factorised matvec and a tile time series work
    from the species lists; the sector's state list is never built."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    _, vecs = lowest_eigenpairs(kin + pot, basis, k=1, tol=1e-10)
    scheme = tile_scheme(_tile_sections(lat), pot, 0.1)
    series = compute_time_series(scheme, basis, vecs[:, 0], 2)
    assert np.isclose(abs(series.values[0]), 1.0)
    assert "states" not in vars(basis)


def test_species_hold_no_sector_length_array():
    """The layout is the basis reshaped: its rows and columns are the species
    lists, and the species lifts keep nothing as long as the sector."""
    basis = enumerate_sector(10, 4, 2)
    assert basis.shape == (comb(10, 3), comb(10, 1))
    assert "species" not in vars(basis)  # built on first use only
    species = basis.species
    assert basis.species is species
    kin, _ = jordan_wigner(build_ppp(build_lattice("acene", 2)))
    SectorOperator(kin, basis).species_matrices  # fills the pair tables
    up, down = (lift.states for lift in species)
    assert np.array_equal((up[:, None] | down[None, :]).ravel(), basis.states)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from arrays(item)

    for lift in species:
        assert lift._pairs
        assert not [a for a in arrays(vars(lift)) if a.size >= basis.dim]


def _tile_sections(lat):
    classes = default_section_order(bond_orientation_classes(lat).values())
    return [hopping_pauli_sum(lat.n_sites, c) for c in classes]


@pytest.mark.parametrize("size_n, sector", [
    (1, (6, 6, 0)),    # benzene, half filling
    (2, (10, 4, 2)),   # naphthalene, n_up != n_down, 1200 states
    (2, (10, 4, 0)),
])
def test_factorised_actions_match_dense(size_n, sector):
    lat = build_lattice("acene", size_n)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(*sector)
    rng = np.random.default_rng(5)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    t = 0.1
    for op in _tile_sections(lat) + [kin]:
        prop = Propagator(op, basis)
        assert prop.hopping_only
        # exp(-i s G) = W diag(exp(-i s lambda)) W^dagger from G = W diag(lambda) W^dagger
        lam, w = eigh(SectorOperator(op, basis).to_dense())
        coeffs = w.conj().T @ v
        for steps in (1, 5, -3):  # large and negative angles too
            exact = w @ (np.exp(-1j * steps * t * lam) * coeffs)
            got = prop.apply(v, steps * t)
            assert np.abs(got - exact).max() <= 1e-12
    h = SectorOperator(kin + pot, basis)
    assert h.layout
    assert np.abs(h.matvec(v) - h.to_dense() @ v).max() <= 1e-12
    assert np.abs(h.abs_matvec(v) - np.abs(h.to_dense()) @ v).max() <= 1e-12


@pytest.mark.parametrize("size_n, sector", [(1, (6, 6, 0)), (2, (10, 4, 2))])
def test_whole_sector_matvec_takes_blocks(size_n, sector):
    """The layout kernel on a (dim, m) block gives each column's matvec bit
    for bit, for O and |O|, with real and complex hopping; a propagator's
    block gives each column's image to rounding."""
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", size_n)))
    basis = enumerate_sector(*sector)
    block = np.random.default_rng(4).normal(size=(basis.dim, 7))
    complex_hops = _complex_hopping(sector[0], np.random.default_rng(3))
    for op in (kin + pot, kin, complex_hops + pot):
        sop = SectorOperator(op, basis)
        assert sop.layout
        for action in (sop.matvec, sop.abs_matvec):
            cols = np.column_stack([action(v) for v in block.T])
            assert np.array_equal(action(block), cols)
    for op in (kin, pot):
        prop = Propagator(op, basis)
        cols = np.column_stack([prop.apply(v, 0.1) for v in block.T])
        assert np.abs(prop.apply(block, 0.1) - cols).max() <= 1e-14


def test_dense_from_action_takes_the_action_dtype_and_refuses_large_sectors():
    def never(block):
        raise AssertionError("the action was applied")

    with pytest.raises(ValueError, match="too large"):
        dense_from_action(never, DENSE_DIM_LIMIT + 1)
    mat = dense_from_action(lambda block: 1j * block, 300)  # two blocks
    assert mat.dtype == complex and np.array_equal(mat, 1j * np.eye(300))


def _complex_hopping(n_sites, rng):
    """One-species hops with random complex amplitudes between every pair of
    sites, both spins: a Hermitian K_sigma that is not symmetric."""
    op = PauliSum(2 * n_sites)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            for spin in (0, 1):
                p, q = qubit_index(i, spin, n_sites), qubit_index(j, spin, n_sites)
                ends, chain = (1 << p) | (1 << q), (1 << q) - (1 << (p + 1))
                real, imag = rng.normal(size=2)
                op.add_term(ends, chain, real / 2)  # X Z..Z X
                op.add_term(ends, chain | ends, real / 2)  # Y Z..Z Y
                op.add_term(ends, chain | (1 << p), imag / 2)  # Y Z..Z X
                op.add_term(ends, chain | (1 << q), -imag / 2)  # X Z..Z Y
    return op


def test_full_hopping_factor_is_applied_dense():
    """M_sigma of a connected hopping graph is stored dense, a tile section's
    stays sparse; with complex amplitudes M_sigma is not symmetric, so the
    propagated state shows its orientation."""
    lat = build_lattice("acene", 2)
    kin, _ = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(10, 4, 2)
    lifts = basis.species
    t = 0.3
    for op, dense in ((kin, True), (_tile_sections(lat)[0], False)):
        for lift, k in zip(lifts, SectorOperator(op, basis).one_body_matrices):
            assert isinstance(lift.exponential(k, t), np.ndarray) == dense
    op = _complex_hopping(10, np.random.default_rng(7))
    sop = SectorOperator(op, basis)
    m_up = lifts[0].exponential(sop.one_body_matrices[0], t)
    assert isinstance(m_up, np.ndarray) and np.abs(m_up - m_up.T).max() > 1e-2
    lam, w = eigh(sop.to_dense())
    rng = np.random.default_rng(8)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    exact = w @ (np.exp(-1j * t * lam) * (w.conj().T @ v))
    got = Propagator(op, basis).apply(v, t)
    assert np.abs(got - exact).max() <= 1e-12


def _rebuild(rotations, phases):
    """R_1 ... R_m diag(d) as a dense n x n matrix."""
    out = np.eye(len(phases), dtype=complex)
    for j, i, r in rotations:
        embedded = np.eye(len(phases), dtype=complex)
        embedded[np.ix_([j, i], [j, i])] = r
        out = out @ embedded
    return out * phases


@pytest.mark.parametrize("n", [6, 10])
def test_givens_decomposition_rebuilds_unitary(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = expm(-1j * (a + a.conj().T))
    rotations, phases = _givens_decomposition(u)
    assert len(rotations) == n * (n - 1) // 2
    assert all(j < i for j, i, _ in rotations)
    assert np.abs(_rebuild(rotations, phases) - u).max() <= 1e-13


def test_givens_decomposition_of_matching_is_one_rotation_per_pair():
    pairs = [(0, 7), (2, 3), (4, 9), (5, 6)]
    k = np.zeros((10, 10))
    for p, q in pairs:
        k[p, q] = k[q, p] = -2.4
    for t in (0.1, 0.5, -0.3):
        u = expm(-1j * t * k)
        rotations, phases = _givens_decomposition(u)
        assert [(j, i) for j, i, _ in rotations] == pairs
        assert np.abs(_rebuild(rotations, phases) - u).max() <= 1e-13


def _check_exponential(lift, k, t, exact):
    """M_sigma from the one-body matrix k against dense expm: values and nonzeros."""
    m = lift.exponential(k, t)
    assert np.abs(m.toarray() - exact).max() <= 1e-12
    assert m.nnz == np.count_nonzero(np.abs(exact) > 1e-14)


def _species_sector_matrices(op, basis):
    """(K_up, K_down) from the general engine: ``op`` on the sectors that hold
    only one species, with the basis's electron count of that species."""
    n, n_up = basis.n_sites, (basis.electrons + basis.sz_twice) // 2
    return tuple(SectorOperator(op, enumerate_sector(n, count, sign * count)).to_sparse()
                 for count, sign in ((n_up, 1), (basis.electrons - n_up, -1)))


def _check_species_exponentials(op, basis, t):
    """M_sigma against dense expm of K_sigma, taken from the general engine
    so that the oracle shares no pair tables with the lift."""
    for lift, k, k_sector in zip(basis.species, SectorOperator(op, basis).one_body_matrices,
                                 _species_sector_matrices(op, basis)):
        _check_exponential(lift, k, t, expm(-1j * t * k_sector.toarray()))


@pytest.mark.parametrize("sector", [(10, 4, 2), (10, 10, 0), (10, 10, 2)])
def test_tile_section_exponentials_match_dense(sector):
    basis = enumerate_sector(*sector)
    for op in _tile_sections(build_lattice("acene", 2)):
        for t in (0.1, -0.3):
            _check_species_exponentials(op, basis, t)


@pytest.mark.parametrize("sector", [(10, 4, 2), (10, 10, 0), (10, 4, 4)])
def test_species_matrices_match_general_engine(sector):
    """K_sigma lifted from the one-body matrix equals the general engine's
    matrix on the one-species sector, entry for entry."""
    lat = build_lattice("acene", 2)
    kin, _ = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(*sector)
    ops = [kin] + _tile_sections(lat) + [_complex_hopping(10, np.random.default_rng(9))]
    for op in ops:
        got = SectorOperator(op, basis).species_matrices
        for a, b in zip(got, _species_sector_matrices(op, basis)):
            assert a.shape == b.shape and (a != b).nnz == 0


def test_one_body_matrices_need_number_conserving_hops():
    """An operator without hops on the layout route has no one-body
    matrices, and a pairing string (X Z..Z X alone, a^dagger_p a^dagger_q + h.c. among its
    parts) changes the electron count, so neither gives k_sigma."""
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", 1)))
    basis = enumerate_sector(6, 6, 0)
    pairing = PauliSum(12, {(0b101, 0b010): 0.5})
    for op in (pot, nested_commutators(kin, pot)[0], kin + pairing):
        with pytest.raises(ValueError):
            SectorOperator(op, basis).one_body_matrices


@pytest.mark.slow
def test_tile_section_exponentials_match_dense_3acene():
    """Every anthracene tile section against dense expm at species dimension 3432.

    The half-filled sector's species lists are those of the all-up and
    all-down 7-electron sectors, enumerate_sector(14, 7, +-7), which spares
    the 11.8 M-state layout.  On those sectors the general engine's matrix
    is K_sigma itself; K_up and K_down are the same matrix, so one dense
    expm serves both.
    """
    t = 0.1
    up_only, down_only = enumerate_sector(14, 7, 7), enumerate_sector(14, 7, -7)
    for op in _tile_sections(build_lattice("acene", 3)):
        k_up, k_down = (SectorOperator(op, b).to_sparse() for b in (up_only, down_only))
        assert k_up.shape == (3432, 3432) and (k_up != k_down).nnz == 0
        exact = expm(-1j * t * k_up.toarray())
        for species, basis in enumerate((up_only, down_only)):
            _check_exponential(basis.species[species],
                               SectorOperator(op, basis).one_body_matrices[species], t, exact)


def _spin_exchange(n_sites, i, j):
    """S+_i S-_j + S+_j S-_i from qubit ladder operators: four flipped modes."""
    nq = 2 * n_sites

    def ladder(q, sign):  # (X - i sign Y) / 2; sign +1 creates, -1 annihilates
        return PauliSum(nq, {(1 << q, 0): 0.5, (1 << q, 1 << q): -0.5j * sign})

    def s_plus(site):
        return ladder(site, 1) @ ladder(n_sites + site, -1)

    def s_minus(site):
        return ladder(n_sites + site, 1) @ ladder(site, -1)

    return s_plus(i) @ s_minus(j) + s_plus(j) @ s_minus(i)


def test_non_factorisable_ops_fall_back(benzene):
    kin, pot, basis = benzene
    rng = np.random.default_rng(6)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    flip = _spin_exchange(6, 0, 3)
    assert not SectorOperator(flip, basis).layout
    for op in (kin + pot, flip):
        dense = SectorOperator(op, basis).to_dense()
        assert np.abs(SectorOperator(op, basis).matvec(v) - dense @ v).max() <= 1e-12
        # neither diagonal nor hopping-only: no Trotter factor, no propagator
        with pytest.raises(ValueError):
            Propagator(op, basis)


def _per_term_diagonal(states, op):
    """Reference diagonal: one popcount pass per diagonal Pauli term."""
    out = np.zeros(len(states), dtype=complex)
    for (x, z), c in op.terms.items():
        if x == 0:
            out += c * (1.0 - 2.0 * (np.bitwise_count(states & np.int64(z)) & 1))
    return out


def _check_diagonal(op, basis, layout=True):
    """D against the per-term reference: from the quadratic form on the
    layout route, from the CSR matrix's diagonal on the other."""
    sop = SectorOperator(op, basis)
    assert sop.layout == layout
    got = sop.diagonal if layout else sop.sparse.diagonal()
    want = _per_term_diagonal(basis.states, op)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return got


def test_diagonal_form_matches_per_term_reference(benzene):
    for n_acene, sectors in ((1, [(6, 6, 0)]), (2, [(10, 4, 2), (10, 4, 0)])):
        lat = build_lattice("acene", n_acene)
        _, pot = jordan_wigner(build_ppp(lat))
        v_shifted = shifted_potential(lat)[0]
        for sector in sectors:
            basis = enumerate_sector(*sector)
            for op in (pot, v_shifted):
                assert max(z.bit_count() for _, z in op.terms) == 2
                assert _check_diagonal(op, basis).dtype == np.float64
    # one species empty: the grid has a single row or column
    _check_diagonal(pot, enumerate_sector(10, 4, 4))
    _check_diagonal(pot, enumerate_sector(10, 4, -4))
    # the diagonal of O_VTT, and V^2, whose diagonal terms reach Z-weight 4,
    # come from the CSR route's term values
    kin, pot, basis = benzene
    _, o_vtt = nested_commutators(kin, pot)
    assert _check_diagonal(o_vtt, basis, layout=False).dtype == np.float64
    v_squared = pot @ pot
    assert max(z.bit_count() for _, z in v_squared.terms) == 4
    d = _check_diagonal(pot, basis)
    got = _check_diagonal(v_squared, basis, layout=False)
    assert np.abs(got - d * d).max() <= 1e-12 * (d * d).max()
    # a complex coefficient gives a complex diagonal, on either route
    hand = {(0, 0): 0.5, (0, 0b10): 1.5, (0, 0b100001): 2.0 - 1.0j}
    assert _check_diagonal(PauliSum(12, hand), basis).dtype == np.complex128
    heavy = PauliSum(12, {**hand, (0, 0b1011): -0.75})
    assert _check_diagonal(heavy, basis, layout=False).dtype == np.complex128


def _amplitude_loop(states, op, x):
    """Reference amp_x(b): the terms of X-mask x added one by one, with the
    i-phase folded into each coefficient; real when every phased coefficient
    is."""
    zs_cs = [(z, complex(c) * 1j ** ((x & z).bit_count() % 4))
             for (x_term, z), c in op.terms.items() if x_term == x]
    real = all(abs(c.imag) < 1e-15 for _, c in zs_cs)
    amp = np.zeros(len(states), dtype=float if real else complex)
    for z, c in zs_cs:
        amp += (c.real if real else c) * (1.0 - 2.0 * (np.bitwise_count(states & np.int64(z)) & 1))
    return amp


def _check_term_kernel(op, basis):
    """Every x-group's summed term values equal the loop bit for bit, dtype too."""
    groups = _group_terms(op)
    assert groups.keys() == {x for x, _ in op.terms}
    for x, group in groups.items():
        got = _term_values(basis.states, group).sum(axis=0)
        want = _amplitude_loop(basis.states, op, x)
        assert got.dtype == want.dtype and np.array_equal(got, want), x
    return groups


@pytest.mark.parametrize("size_n,sector", [(1, (6, 6, 0)), (2, (10, 4, 2))])
def test_term_values_sum_to_the_amplitude_loop(size_n, sector):
    lat = build_lattice("acene", size_n)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(*sector)
    for op in (kin, pot, shifted_potential(lat)[0], *nested_commutators(kin, pot)):
        groups = _check_term_kernel(op, basis)
        assert all(cs.dtype == np.float64 for _, cs in groups.values())


def test_term_values_edge_cases(benzene):
    kin, pot, basis = benzene
    # complex groups; those of commutator(pot, kin) come out real (i^2 folded in)
    for op in (kin * 1j, PauliSum(12, {(1, 1): 0.5})):
        groups = _check_term_kernel(op, basis)
        assert all(cs.dtype == np.complex128 for _, cs in groups.values())
        assert not SectorOperator(op, basis).is_real
    groups = _check_term_kernel(commutator(pot, kin), basis)
    assert all(cs.dtype == np.float64 for _, cs in groups.values())
    # a diagonal with terms of Z-weight 4
    zs, _ = _check_term_kernel(pot @ pot, basis)[0]
    assert max(np.bitwise_count(zs)) == 4
    # no diagonal terms: a float zero diagonal
    assert 0 not in _check_term_kernel(kin, basis)
    sop = SectorOperator(kin, basis)
    assert sop.is_real and sop.diagonal.dtype == np.float64 and not sop.diagonal.any()


def _quadratic_form_loop(op):
    """Reference (c0, h, J) of the diagonal terms of Z-weight <= 2, built
    term by term."""
    quadratic = [(z, complex(c)) for (x, z), c in op.terms.items() if x == 0]
    real = all(abs(c.imag) < 1e-15 for _, c in quadratic)
    quadratic = [(z, c.real if real else c) for z, c in quadratic if z.bit_count() <= 2]
    dtype = float if real else complex
    n = op.n_qubits
    c0, h, J = dtype(0), np.zeros(n, dtype=dtype), np.zeros((n, n), dtype=dtype)
    for z, c in quadratic:
        support = [q for q in range(n) if z >> q & 1]
        if not support:
            c0 += c
        elif len(support) == 1:
            h[support[0]] += c
        else:
            p, q = support
            J[p, q] += c / 2
            J[q, p] += c / 2
    return c0, h, J


def test_diagonal_form_coefficients_match_loop(benzene):
    kin, pot, basis = benzene
    lat = build_lattice("acene", 1)
    hand = PauliSum(12, {(0, 0): 0.5, (0, 0b10): 1.5, (0, 0b100001): 2.0 - 1.0j,
                         (0, 0b1100): -0.75})
    for op in (pot, shifted_potential(lat)[0], hand):
        form = _DiagonalForm(_group_terms(op)[0], op.n_qubits)
        c0, h, J = _quadratic_form_loop(op)
        assert form.c0 == c0 and form.h.dtype == h.dtype and form.J.dtype == J.dtype
        assert np.array_equal(form.h, h) and np.array_equal(form.J, J)


def _check_flip_differences(op, kin, basis):
    d = _per_term_diagonal(basis.states, op)
    signs = 1.0 - 2.0 * ((basis.states[None, :] >> np.arange(op.n_qubits)[:, None]) & 1)
    delta = SectorOperator(op, basis)._form.flip_differences(signs)
    assert np.array_equal(delta(0), np.zeros(basis.dim))
    hops = {x for x, _ in kin.terms if x}
    for x in hops | {x1 ^ x2 for x1 in hops for x2 in hops}:
        want = _per_term_diagonal(basis.states ^ np.int64(x), op) - d
        assert np.abs(delta(x) - want).max() <= 1e-12 * np.abs(d).max()


def test_flip_differences_match_form_at_flipped_states():
    """D(b ^ x) - D(b) from the states' occupation signs and the flipped bits
    against the per-term diagonal at b ^ x and at b, for every hop and
    hop-pair mask; mask 0 gives exactly 0."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    _check_flip_differences(pot, kin, enumerate_sector(10, 4, 0))


def test_propagate_diagonal_phase(benzene):
    _, pot, basis = benzene
    prop = Propagator(pot, basis)
    v = np.zeros(basis.dim, dtype=complex)
    v[7] = 1.0
    out = prop.apply(v, 0.3)
    diag = SectorOperator(pot, basis).diagonal.real
    assert np.isclose(out[7], np.exp(-1j * 0.3 * diag[7]))
    assert np.isclose(np.abs(out[7]), 1.0)


def test_propagate_diagonal_phases_reused_bit_for_bit(benzene):
    """The cached phases give the bytes of a fresh exp(-i t D) product."""
    _, pot, basis = benzene
    prop = Propagator(pot, basis)
    v = np.random.default_rng(3).normal(size=basis.dim) + 0j
    phases = np.exp(-1j * 0.05 * SectorOperator(pot, basis).diagonal.real)
    for _ in range(2):
        got = prop.apply(v, 0.05)
        assert got.tobytes() == (phases * v).tobytes()


def test_propagate_matches_dense_expm(benzene):
    """One Strang step, V/2 T V/2, factor by factor against dense expm."""
    kin, pot, basis = benzene
    rng = np.random.default_rng(0)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    t = 0.05
    exact = got = v
    for op, dur in ((pot, t / 2), (kin, t), (pot, t / 2)):
        exact = expm(-1j * dur * SectorOperator(op, basis).to_dense()) @ exact
        got = Propagator(op, basis).apply(got, dur)
    assert np.linalg.norm(exact - got) < 1e-10


def test_propagate_zero_time_limit(benzene):
    kin, pot, basis = benzene
    rng = np.random.default_rng(1)
    v = rng.normal(size=basis.dim) + 0j
    v /= np.linalg.norm(v)
    t = 1e-5
    out = v
    for op, dur in ((pot, t / 2), (kin, t), (pot, t / 2)):
        out = Propagator(op, basis).apply(out, dur)
    fid = abs(np.vdot(v, out))
    assert fid > 1 - (60.0 * t) ** 2  # ||H|| well below 60 eV


def test_unitarity_over_100_steps(benzene):
    kin, pot, basis = benzene
    t = 0.05
    pv = Propagator(pot, basis)
    pk = Propagator(kin, basis)
    rng = np.random.default_rng(2)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    psi = v
    for _ in range(100):
        psi = pv.apply(psi, t / 2)
        psi = pk.apply(psi, t)
        psi = pv.apply(psi, t / 2)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_spin_labels(benzene):
    kin, pot, basis = benzene
    vals, vecs = lowest_eigenpairs(kin + pot, basis, k=2)
    assert abs(total_spin_expectation(vecs[:, 0], basis)) < 1e-8
    assert abs(total_spin_expectation(vecs[:, 1], basis) - 2.0) < 1e-8
    # closed-shell determinant: every down paired with an up
    paired = 0
    for site in (0, 2, 4):  # doubly occupied
        paired |= (1 << qubit_index(site, 0, 6)) | (1 << qubit_index(site, 1, 6))
    (idx,), (valid,) = basis.index_or_mask(np.array([paired], dtype=np.int64))
    assert valid
    det = np.zeros(basis.dim)
    det[idx] = 1.0
    assert abs(total_spin_expectation(det, basis)) < 1e-12


def _jw_annihilator(q, n_qubits):
    """a_q = Z_0 ... Z_{q-1} (X_q + i Y_q) / 2 as a Pauli sum."""
    chain = PauliSum(n_qubits, {(0, (1 << q) - 1): 1.0})
    return chain @ PauliSum(n_qubits, {(1 << q, 0): 0.5, (1 << q, 1 << q): 0.5j})


def _adjoint(op):
    return PauliSum(op.n_qubits, {key: np.conj(c) for key, c in op.terms.items()})


def _spin_operators(n_sites):
    """(S+, S^2) as Pauli sums from Jordan-Wigner ladder operators on the
    qubits of ``qubit_index``: S+ = sum_i a†_{i up} a_{i down} and
    S^2 = S- S+ + S_z (S_z + 1)."""
    nq = 2 * n_sites
    s_plus = PauliSum(nq)
    for i in range(n_sites):
        up = _adjoint(_jw_annihilator(qubit_index(i, 0, n_sites), nq))
        s_plus += up @ _jw_annihilator(qubit_index(i, 1, n_sites), nq)
    s_z = sz_operator(n_sites)
    s_squared = _adjoint(s_plus) @ s_plus + s_z @ s_z + s_z
    return s_plus, s_squared


@pytest.mark.parametrize("sector", [(6, 6, 0), (5, 5, 1)])
def test_total_spin_matches_pauli_oracle(sector):
    """S+ and <S^2> against Pauli sums built from Jordan-Wigner ladder
    operators, as dense Fock-space matrices restricted to the sector."""
    basis = enumerate_sector(*sector)
    target = enumerate_sector(basis.n_sites, basis.electrons, basis.sz_twice + 2)
    s_plus, s_squared = _spin_operators(basis.n_sites)
    s_plus = dense_matrix(s_plus)[np.ix_(target.states, basis.states)]
    s_squared = dense_matrix(s_squared)[np.ix_(basis.states, basis.states)]
    rng = np.random.default_rng(11)
    for state in (rng.normal(size=basis.dim),
                  rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)):
        state /= np.linalg.norm(state)
        assert np.abs(apply_s_plus(state, basis)[0] - s_plus @ state).max() <= 1e-12
        want = np.vdot(state, s_squared @ state).real
        assert abs(total_spin_expectation(state, basis) - want) <= 1e-12 * abs(want)


def test_total_spin_refuses_a_vector_of_another_basis():
    """A vector that is not of the basis raises, and S+ psi is zero only when
    the raised sector cannot exist."""
    whole = enumerate_sector(6, 6, 0)
    odd = enumerate_sector(6, 6, 0, parity=-1)
    for state, basis in ((np.full(403, 403 ** -0.5), whole), (np.full(400, 0.05), odd)):
        with pytest.raises(ValueError, match="a state of"):
            total_spin_expectation(state, basis)
    assert total_spin_expectation(np.ones(1), enumerate_sector(6, 6, 6)) == 12.0  # S = 3
    assert total_spin_expectation(np.ones(1), enumerate_sector(6, 0, 0)) == 0.0
    # one down electron: S+ takes each of the 6 states to its own up state
    assert total_spin_expectation(np.ones(6), enumerate_sector(6, 1, -1)) == 6.0 - 0.25


def test_total_spin_never_lists_the_sector(monkeypatch):
    """S+ works on the layout from the species lists: <S^2> builds no
    sector-length list of states, for the sector or for the raised one."""
    def refuse(self):
        raise AssertionError("a sector's state list was built")

    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", 2)))
    half = enumerate_sector(10, 10, 0, parity=-1)
    _, vecs = lowest_eigenpairs(kin + pot, half, k=1)
    basis = enumerate_sector(10, 10, 0)
    monkeypatch.setattr(SectorBasis, "states", property(refuse))
    assert abs(total_spin_expectation(vecs[:, 0], half) - 2.0) < 1e-8
    assert abs(total_spin_expectation(half.embed(vecs[:, 0]), basis) - 2.0) < 1e-8


def test_dense_routes_never_list_the_sector(monkeypatch, tmp_path):
    """Dense matrices of Hamiltonian pieces come from the layout kernel on
    identity blocks: the dense eigensolve, the dense Trotter unitary,
    ``reproduce fig5`` and ``norms --method dense`` build no state list.  A
    pure potential (V, V') is D o v on the layout route, so its actions,
    dense matrix, eigensolve and propagator list nothing either, and
    ``norms --method bound`` assembles |O_VTT| from T's species matrices."""
    def refuse(self):
        raise AssertionError("a sector's state list was built")

    lat = build_lattice("acene", 1)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(6, 6, 0)
    monkeypatch.setattr(SectorBasis, "states", property(refuse))
    vals, _ = lowest_eigenpairs(kin + pot, basis, k=2)
    energies, _ = effective_spectrum_dense(so_scheme(kin, pot, 0.05), basis)
    assert np.abs(energies[:2] - vals).max() < 0.05  # Trotter shifts of about 0.02
    x = np.random.default_rng(13).normal(size=basis.dim)
    for op in (pot, shifted_potential(lat)[0]):
        sop = SectorOperator(op, basis)
        d = sop.diagonal
        assert np.array_equal(sop.matvec(x), d * x)
        assert np.array_equal(sop.abs_matvec(x), np.abs(d) * x)
        assert np.array_equal(sop.to_dense(), np.diag(d))
        assert lowest_eigenpairs(op, basis, k=1)[0][0] == d.min()
    Propagator(pot, basis).apply(x, 0.1)
    assert main(["reproduce", "fig5", "--out", str(tmp_path / "fig5.json")]) == 0
    for method in ("dense", "bound"):
        assert main(["norms", "--family", "acene", "--n", "1", "--method", method,
                     "--out", str(tmp_path / ("norms_%s.json" % method))]) == 0


def _route_cases():
    """(label, Pauli sum, n_sites, takes the layout route) for every PPP
    operator and for sums that need the CSR matrix."""
    cases = []
    for n_acene in (1, 2, 3):
        lat = build_lattice("acene", n_acene)
        kin, pot = jordan_wigner(build_ppp(lat))
        v_shifted = shifted_potential(lat)[0]
        ops = {"H": kin + pot, "T": kin, "V": pot, "V'": v_shifted, "T + V'": kin + v_shifted}
        classes = default_section_order(bond_orientation_classes(lat).values())
        ops.update(("default section %d" % m, hopping_pauli_sum(lat.n_sites, c))
                   for m, c in enumerate(classes))
        cases += [("acene%d %s" % (n_acene, label), op, lat.n_sites, True)
                  for label, op in ops.items()]
    cases += [("acene3 shipped section " + section["name"],
               hopping_pauli_sum(14, section["bonds"]), 14, True)
              for section in load_tiling(tiling_path("acene", 3))["sections"]]
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", 1)))
    o_vtv, o_vtt = nested_commutators(kin, pot)
    cases += [("O_VTV", o_vtv, 6, False), ("O_VTT", o_vtt, 6, False),
              ("V @ V", pot @ pot, 6, False), ("spin exchange", _spin_exchange(6, 0, 3), 6, False)]
    return cases


def test_route_follows_the_operator_form():
    """Every PPP operator (H, T, V, V', T + V', the default-order tile
    sections and the shipped acene3 tiling's sections) takes the layout
    route, pure potentials included; the nested commutators, V @ V (a
    diagonal of Z-weight 4) and a spin exchange take the CSR route."""
    for label, op, n_sites, layout in _route_cases():
        sop = SectorOperator(op, enumerate_sector(n_sites, 2, 0))
        assert sop.layout is layout, label


def test_heavy_diagonal_terms_have_no_quadratic_form(benzene):
    """A diagonal term of Z-weight above 2 is refused wherever D is taken
    from the quadratic form: the form itself, the operator's D and its
    form's flip differences, and its propagator (``test_norms`` checks the commutator
    actions with V @ V as the potential)."""
    _, pot, basis = benzene
    v_squared = pot @ pot
    with pytest.raises(ValueError, match="Z-weight"):
        _DiagonalForm(_group_terms(v_squared)[0], v_squared.n_qubits)
    sop = SectorOperator(v_squared, basis)
    with pytest.raises(ValueError, match="Z-weight"):
        sop.diagonal
    with pytest.raises(ValueError, match="Z-weight"):
        sop._form.flip_differences(np.ones((v_squared.n_qubits, 3)))
    with pytest.raises(ValueError, match="Propagator"):
        Propagator(v_squared, basis)


# -- spin-flip halves of S_z = 0 ------------------------------------------------


def _total_spin(spin_squared):
    """S from <S^2> = S(S + 1), checked to be integral to 1e-8."""
    spin = round((np.sqrt(1.0 + 4.0 * spin_squared) - 1.0) / 2.0)
    assert abs(spin_squared - spin * (spin + 1)) < 1e-8
    return spin


@pytest.mark.parametrize("sector", [(6, 6, 0), (6, 4, 0), (10, 8, 0), (10, 10, 0)])
def test_half_spectra_match_whole_sector(sector):
    """Each half holds the whole sector's states of one spin parity.

    Benzene's sectors are dense: the two halves' spectra together are the
    whole sector's, and every state of the even half has even S, every state
    of the odd half odd S.  Naphthalene's run Lanczos: the 6 lowest states of
    the whole sector, split by the parity of S, are the lowest states of the
    two halves.  n_up runs over 2, 3, 4 and 5.
    """
    n_sites = sector[0]
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", n_sites // 4)))
    h = kin + pot
    whole = enumerate_sector(*sector)
    dense = whole.dim <= DENSE_DIM_LIMIT
    vals, vecs = lowest_eigenpairs(h, whole, k=whole.dim if dense else 6, tol=1e-12)
    odd = np.array([_total_spin(total_spin_expectation(v, whole)) % 2 == 1
                    for v in vecs.T]) if not dense else None
    halves = {}
    for parity in (1, -1):
        half = enumerate_sector(*sector, parity=parity)
        m = len(half.up_states)
        assert half.dim == m * (m + parity) // 2 and half.shape == (m, m)
        k = half.dim if dense else int(np.sum(odd == (parity < 0)))
        halves[parity] = lowest_eigenpairs(h, half, k=k, tol=1e-12)
        for v in halves[parity][1].T:
            assert _total_spin(total_spin_expectation(v, half)) % 2 == (parity < 0)
    if dense:
        both = np.sort(np.concatenate([halves[1][0], halves[-1][0]]))
        assert np.abs(both - vals).max() <= 1e-10
    else:
        assert np.abs(halves[1][0] - vals[~odd]).max() <= 1e-10
        assert np.abs(halves[-1][0] - vals[odd]).max() <= 1e-10


@pytest.mark.parametrize("parity", [1, -1])
def test_half_embed_is_an_isometry(parity):
    """embed lands on layouts with Psi^T = parity Psi, keeps norms, and
    restrict is its adjoint and its left inverse; the half matvec and its
    dense matrix are restrict H embed, for vectors and blocks of columns."""
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", 1)))
    whole = enumerate_sector(6, 4, 0)
    half = enumerate_sector(6, 4, 0, parity=parity)
    rng = np.random.default_rng(5)
    x = rng.normal(size=half.dim)
    v = rng.normal(size=whole.dim)
    psi = half.embed(x).reshape(half.shape)
    assert np.array_equal(psi.T, parity * psi)
    assert abs(np.linalg.norm(psi) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)
    assert np.abs(half.restrict(half.embed(x)) - x).max() <= 1e-15 * np.abs(x).max()
    assert abs(np.dot(half.embed(x), v) - np.dot(x, half.restrict(v))) <= 1e-12
    h = SectorOperator(kin + pot, whole).to_dense()
    block = rng.normal(size=(half.dim, 3))
    want = half.restrict(h @ half.embed(block))
    sop = SectorOperator(kin + pot, half)
    assert np.abs(sop.matvec(block) - want).max() <= 1e-12
    assert np.abs(sop.matvec(block[:, 0]) - want[:, 0]).max() <= 1e-12
    assert np.abs(sop.matvec(block[:, :1]) - want[:, :1]).max() <= 1e-12
    assert np.abs(sop.to_dense() - half.restrict(h @ half.embed(np.eye(half.dim)))).max() <= 1e-12


@pytest.mark.parametrize("parity", [1, -1])
def test_half_layout_order_matches_index_reference(parity):
    """embed and restrict, on vectors and blocks, give the bytes of the
    flat-index form: the diagonal (even half only), then the pairs i < j row
    by row (``np.triu_indices``) at (i, j) and at (j, i)."""
    half = enumerate_sector(6, 4, 0, parity=parity)
    m = half.shape[0]
    i, j = np.triu_indices(m, 1)
    diagonal = np.arange(m) * (m + 1) if parity > 0 else np.zeros(0, dtype=np.intp)
    upper, lower = i * m + j, j * m + i
    rng = np.random.default_rng(14)
    for shape in ((), (3,)):
        x = rng.normal(size=(half.dim,) + shape)
        want = np.zeros((m * m,) + shape)
        want[diagonal] = x[:len(diagonal)]
        want[upper] = x[len(diagonal):] * np.sqrt(0.5)
        want[lower] = parity * x[len(diagonal):] * np.sqrt(0.5)
        assert half.embed(x).tobytes() == want.tobytes()
        v = rng.normal(size=(m * m,) + shape)
        pairs = (v[upper] + parity * v[lower]) * np.sqrt(0.5)
        assert half.restrict(v).tobytes() == np.concatenate([v[diagonal], pairs]).tobytes()


def test_half_solves_repeat_bit_for_bit():
    """k = 2 on both halves, and the seeded k = 1 solve on the odd half."""
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", 2)))
    for parity, k in ((1, 2), (-1, 2), (-1, 1)):
        half = enumerate_sector(10, 10, 0, parity=parity)  # Lanczos
        first = lowest_eigenpairs(kin + pot, half, k=k, tol=1e-10)
        second = lowest_eigenpairs(kin + pot, half, k=k, tol=1e-10)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


def test_half_refuses_what_breaks_the_flip_or_needs_states(benzene):
    """A half exists at S_z = 0 only; operators that tell the spins apart, or
    that need the CSR matrix, and every route that lists states, propagates
    or takes a norm raise ``ValueError``.  A pure potential takes the
    layout route: its half matvec is D_half o x."""
    kin, pot, whole = benzene
    with pytest.raises(ValueError):
        enumerate_sector(6, 6, 2, parity=1)
    with pytest.raises(ValueError):
        enumerate_sector(6, 6, 0, parity=2)
    half = enumerate_sector(6, 6, 0, parity=1)
    up_hop = PauliSum(12)
    add_hop(up_hop, 0, 1, -2.4)
    refused = [
        kin + pot + PauliSum(12, {(0, 1): 0.3}),  # a field on site 0, spin up: D != D^T
        kin + pot + up_hop,  # K_up != K_down
        nested_commutators(kin, pot)[0],  # not on the layout route
        pot @ pot,  # diagonal terms of Z-weight 4: not on the layout route either
    ]
    for op in refused:
        with pytest.raises(ValueError):
            SectorOperator(op, half)
    grid = SectorOperator(pot, whole).diagonal.reshape(half.shape)
    i, j = np.triu_indices(half.shape[0], 1)
    d_half = np.concatenate([np.diag(grid), (grid[i, j] + grid[j, i]) / 2])
    x = np.random.default_rng(12).normal(size=half.dim)
    assert np.array_equal(SectorOperator(pot, half).matvec(x), d_half * x)
    sop = SectorOperator(kin + pot, half)
    x = np.ones(half.dim)
    state = np.array([0b111000111], dtype=np.int64)
    for route in (lambda: half.states, lambda: half.states_at(np.arange(3)),
                  lambda: half.index_or_mask(state),
                  sop.to_sparse, lambda: sop.abs_matvec(x),
                  lambda: Propagator(kin, half), lambda: Propagator(pot, half),
                  lambda: effective_spectrum_dense(so_scheme(kin, pot, 0.05), half),
                  lambda: compute_time_series(so_scheme(kin, pot, 0.05), half, x, 2),
                  lambda: frobenius_sampled(pot, half, 10),
                  lambda: frobenius_exact(pot, half),
                  lambda: spectral_norm_bound(kin + pot, half),
                  lambda: dense_spectral_norm(kin + pot, half),
                  lambda: HoppingCommutatorAction(kin, pot, half)):
        with pytest.raises(ValueError, match="spin-flip half"):
            route()


# -- principal log of a unitary -----------------------------------------------


def _unitary_with_phases(phases, seed=0, vecs_dtype=float):
    """V exp(-i phases) V^dagger for a random real orthogonal V, so the
    unitary is symmetric, or with ``vecs_dtype=complex`` a random unitary V."""
    rng = np.random.default_rng(seed)
    n = len(phases)
    noise = rng.normal(size=(n, n))
    if vecs_dtype is complex:
        noise = noise + 1j * rng.normal(size=(n, n))
    vecs, _ = np.linalg.qr(noise)
    return (vecs * np.exp(-1j * np.asarray(phases))) @ vecs.conj().T


@pytest.mark.parametrize("phases", [
    [-2.5, -1.0, -1.0, -1.0, 0.0, 0.3, 0.3, 1e-9, 2.0, 2.9],
    [np.pi - 2e-9, -(np.pi - 2e-9), 0.5, 0.5, -3.0, 1.0],
    [np.pi - 2e-9, 0.1, -0.1, -0.1],
])
def test_principal_log_spectrum_known_phases(phases):
    """Degenerate phases and phases just inside the branch margin (1e-9)
    come back as E = phi / t, with real eigenvectors."""
    t = 0.3
    unitary = _unitary_with_phases(phases)
    energies, vecs = principal_log_spectrum(unitary, t)
    assert vecs.dtype == float
    assert np.abs(energies - np.sort(phases) / t).max() < 1e-10
    assert np.abs(vecs.T @ vecs - np.eye(len(phases))).max() < 1e-12
    rebuilt = (vecs * np.exp(-1j * t * energies)) @ vecs.T
    assert np.abs(rebuilt - unitary).max() < 1e-12


def test_principal_log_spectrum_symmetric_unitary_solves_in_real_arithmetic():
    """exp(-i t A) for a real symmetric A: real eigenvectors, eigenvalues of A."""
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 12))
    a = (a + a.T) / 2
    t = 0.4
    energies, vecs = principal_log_spectrum(expm(-1j * t * a), t)
    assert vecs.dtype == float
    assert np.abs(energies - np.linalg.eigvalsh(a)).max() < 1e-10


def test_principal_log_spectrum_rejects_non_normal_and_branch():
    non_normal = np.diag(np.exp(-1j * np.array([0.1, 0.2, 0.3]))).astype(complex)
    non_normal[0, 2] = 1e-6
    with pytest.raises(ValueError):
        principal_log_spectrum(non_normal, 1.0)
    beyond = _unitary_with_phases([np.pi - 1e-10, 0.2, -1.0], seed=1)
    with pytest.raises(ValueError):
        principal_log_spectrum(beyond, 1.0)
    minus_one = np.diag([-1.0, 1.0, 1j])
    with pytest.raises(ValueError):
        principal_log_spectrum(minus_one, 1.0)


def test_principal_log_spectrum_takes_symmetric_unitaries_only():
    """A normal unitary with complex eigenvectors is not symmetric, and is
    refused before any solve; a symmetric matrix that is not unitary fails
    the residual U V = V exp(-i phi)."""
    normal = _unitary_with_phases([0.3, -0.2, 1.0, 0.5], vecs_dtype=complex)
    with pytest.raises(ValueError, match="not symmetric"):
        principal_log_spectrum(normal, 1.0)
    scaled = 1.001 * _unitary_with_phases([0.3, -0.2, 1.0, 0.5])
    with pytest.raises(ValueError, match="not unitary"):
        principal_log_spectrum(scaled, 1.0)


def _schur_log_energies(unitary, t):
    """Sorted eigenvalues of (i/t) log U from a complex Schur form."""
    tri, _ = schur(unitary, output="complex")
    assert np.abs(tri - np.diag(np.diag(tri))).max() < 1e-10
    return np.sort(-np.angle(np.diag(tri)) / t)


def test_effective_spectrum_matches_schur_log(benzene):
    """Benzene SO and tile: energies against the Schur log of the Pade product."""
    kin, pot, basis = benzene
    lat = build_lattice("acene", 1)
    sums = [hopping_pauli_sum(6, c) for c in
            default_section_order(bond_orientation_classes(lat).values())]
    t = 0.05
    for scheme in (so_scheme(kin, pot, t), tile_scheme(sums, pot, t)):
        unitary = np.eye(basis.dim)
        for op, dur in scheme.factors:
            unitary = expm(-1j * dur * SectorOperator(op, basis).to_dense()) @ unitary
        energies, _ = effective_spectrum_dense(scheme, basis)
        assert np.abs(energies - _schur_log_energies(unitary, t)).max() < 1e-10


@pytest.mark.parametrize("family,n", [("acene", 3), ("rhombene", 5)])
def test_effective_kinetic_matches_schur_log(family, n):
    """A_delta eigenmodes against the Schur log of the Pade product."""
    secs = tile_sections(build_lattice(family, n), tiling_path(family, n))
    for t in (0.01, 0.05):
        prod = expm(1j * t * full_matrix(secs))
        halves = [expm(-1j * (t / 2) * mat) for mat in secs.matrices]
        for half in halves + halves[::-1]:
            prod = prod @ half
        modes = np.sort(effective_kinetic(secs, t).eigenmodes)
        assert np.abs(modes - _schur_log_energies(prod, t)).max() < 1e-10
