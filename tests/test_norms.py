from types import SimpleNamespace

import numpy as np
import pytest

from trotterlab import norms, sector
from trotterlab.hamiltonian import build_ppp, shifted_potential
from trotterlab.lattice import build_lattice
from trotterlab.norms import (
    HoppingCommutatorAction,
    NormEstimate,
    average_case_constant,
    column_norms_squared,
    dense_spectral_norm,
    frobenius_exact,
    frobenius_sampled,
    nested_commutators,
    spectral_norm_bound,
    worst_case_constant,
)
from trotterlab.pauli import PauliSum, jordan_wigner
from trotterlab.sector import (
    SectorOperator,
    _group_terms,
    _term_values,
    enumerate_sector,
    half_filling_sector,
)


@pytest.fixture(scope="module")
def benzene():
    lat = build_lattice("acene", 1)
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(6, 6, 0)
    return lat, kin, pot, basis


@pytest.fixture(scope="module")
def benzene_commutators(benzene):
    _, kin, pot, basis = benzene
    return nested_commutators(kin, pot)


def test_nested_commutators_hermitian_dense(benzene, benzene_commutators):
    _, kin, pot, basis = benzene
    o_vtv, o_vtt = benzene_commutators
    t_mat = SectorOperator(kin, basis).to_dense()
    v_mat = np.diag(SectorOperator(pot, basis).diagonal.real)
    b = v_mat @ t_mat - t_mat @ v_mat
    vtv = b @ v_mat - v_mat @ b
    vtt = b @ t_mat - t_mat @ b
    got_vtv = SectorOperator(o_vtv, basis).to_dense()
    got_vtt = SectorOperator(o_vtt, basis).to_dense()
    assert np.abs(got_vtv - vtv).max() < 1e-10
    assert np.abs(got_vtt - vtt).max() < 1e-10
    assert np.abs(got_vtv - got_vtv.conj().T).max() < 1e-10
    assert np.abs(got_vtt - got_vtt.conj().T).max() < 1e-10


def test_dense_spectral_norm_oracle(benzene, benzene_commutators):
    _, _, _, basis = benzene
    o_vtv, _ = benzene_commutators
    mat = SectorOperator(o_vtv, basis).to_dense()
    want = np.abs(np.linalg.eigvalsh(mat)).max()
    got = dense_spectral_norm(o_vtv, basis)
    assert got.value == pytest.approx(want, rel=1e-12)
    assert got.kind == "dense_exact"


def test_spectral_bound_dominates_exact(benzene, benzene_commutators):
    _, _, _, basis = benzene
    v = np.random.default_rng(8).normal(size=basis.dim)
    for op in benzene_commutators:
        exact = dense_spectral_norm(op, basis).value
        bound = spectral_norm_bound(op, basis).value
        assert bound >= exact - 1e-9
        # the bound is the top eigenvalue of |O| element-wise
        sop = SectorOperator(op, basis)
        assert not sop.layout  # CSR route, not the layout kernel
        mat = np.abs(sop.to_dense())
        want = np.linalg.eigvalsh(mat)[-1]
        assert bound == pytest.approx(want, rel=1e-9)
        want_abs = mat @ v
        assert np.abs(sop.abs_matvec(v) - want_abs).max() <= 1e-12 * np.abs(want_abs).max()


@pytest.mark.parametrize("block", [None, 64])
def test_spectral_bound_block_route_matches_column_loop(benzene, benzene_commutators,
                                                        monkeypatch, block):
    """The dense route's block actions, whole or in blocks of 64 columns, give
    the column-by-column absolute matrix and bound bit for bit."""
    _, kin, pot, basis = benzene
    if block is not None:
        monkeypatch.setattr(sector, "_DENSE_BLOCK", block)
    act = HoppingCommutatorAction(kin, pot, basis)
    cases = [SimpleNamespace(abs_matvec=act.vtv_abs_matvec),
             SimpleNamespace(abs_matvec=act.vtt_abs_matvec),
             SectorOperator(benzene_commutators[0], basis),
             SectorOperator(kin + pot, basis)]
    for op in cases:
        cols = np.column_stack([op.abs_matvec(e) for e in np.eye(basis.dim)])
        assert np.array_equal(op.abs_matvec(np.eye(basis.dim)), cols)
        want = float(np.linalg.eigvalsh(cols)[-1])
        assert spectral_norm_bound(op, basis).value == want
    assert spectral_norm_bound(benzene_commutators[0], basis).value == (
        spectral_norm_bound(cases[2], basis).value)


def test_spectral_bound_lanczos_route_matches_dense(benzene, benzene_commutators,
                                                    monkeypatch):
    """Above ``DENSE_DIM_LIMIT`` the bound is a Lanczos eigenvalue; with the
    limit lowered below the benzene sector it must give the dense route's
    top eigenvalue of |O|, for the structured actions and the Pauli sums."""
    _, kin, pot, basis = benzene
    act = HoppingCommutatorAction(kin, pot, basis)
    cases = [SimpleNamespace(abs_matvec=act.vtv_abs_matvec),
             SimpleNamespace(abs_matvec=act.vtt_abs_matvec), *benzene_commutators]
    want = [spectral_norm_bound(op, basis).value for op in cases]
    monkeypatch.setattr(norms, "DENSE_DIM_LIMIT", basis.dim - 1)
    for op, value in zip(cases, want):
        est = spectral_norm_bound(op, basis)
        assert est.converged
        assert est.value == pytest.approx(value, rel=1e-9)
    zero = spectral_norm_bound(SimpleNamespace(abs_matvec=np.zeros_like), basis)
    assert zero.converged and zero.value == 0.0


def test_column_norms_squared_oracle(benzene, benzene_commutators):
    _, _, _, basis = benzene
    o_vtv, o_vtt = benzene_commutators
    for op in (o_vtv, o_vtt):
        mat = SectorOperator(op, basis).to_dense()
        want = (np.abs(mat) ** 2).sum(axis=0)
        got = column_norms_squared(op, basis, basis.states)
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("block", [133, 150])
def test_column_norms_squared_blocks_are_bit_identical(benzene, benzene_commutators,
                                                      monkeypatch, block):
    """Blocks of 133 (with a one-state tail) and 150 split benzene's 400
    states unevenly; each state's norm is the unblocked one, bit for bit."""
    _, _, _, basis = benzene
    monkeypatch.setattr(norms, "_COLUMN_BLOCK", block)
    for op in benzene_commutators:
        want = np.zeros(basis.dim)
        for group in _group_terms(op).values():
            want += np.abs(_term_values(basis.states, group).sum(axis=0)) ** 2
        assert np.array_equal(column_norms_squared(op, basis, basis.states), want)


def test_column_norms_one_state_at_a_time_match_the_batch():
    """A state's terms add in term order whatever the batch, so the first 200
    naphthalene states taken one at a time give the batch norms bit for bit
    (numpy's own sum adds a single column pairwise)."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    _, o_vtt = nested_commutators(kin, pot)
    basis = half_filling_sector(lat.n_sites)
    states = basis.states_at(np.arange(200))
    batch = column_norms_squared(o_vtt, basis, states)
    single = [column_norms_squared(o_vtt, basis, states[i:i + 1])[0] for i in range(200)]
    assert np.array_equal(single, batch)


def test_frobenius_exact_oracle(benzene, benzene_commutators):
    _, _, _, basis = benzene
    o_vtv, _ = benzene_commutators
    mat = SectorOperator(o_vtv, basis).to_dense()
    want = np.linalg.norm(mat) / np.sqrt(basis.dim)
    got = frobenius_exact(o_vtv, basis)
    assert got.value == pytest.approx(want, rel=1e-10)
    assert got.standard_error == 0.0


def test_frobenius_sampled_consistent_and_seeded(benzene, benzene_commutators):
    _, _, _, basis = benzene
    _, o_vtt = benzene_commutators
    exact = frobenius_exact(o_vtt, basis).value
    est1 = frobenius_sampled(o_vtt, basis, samples=4000, seed=3)
    est2 = frobenius_sampled(o_vtt, basis, samples=4000, seed=3)
    assert est1.value == est2.value
    assert est1.standard_error > 0
    assert abs(est1.value - exact) < 5 * est1.standard_error + 1e-9


def test_structured_action_matches_pauli_commutators(benzene, benzene_commutators):
    lat, kin, pot, basis = benzene
    o_vtv, o_vtt = benzene_commutators
    act = HoppingCommutatorAction(kin, pot, basis)
    rng = np.random.default_rng(6)
    v = rng.normal(size=basis.dim)
    vtv_mat = SectorOperator(o_vtv, basis).to_dense()
    vtt_mat = SectorOperator(o_vtt, basis).to_dense()
    assert np.allclose(act.vtv_matvec(v), vtv_mat @ v, atol=1e-9)
    assert np.allclose(act.vtt_matvec(v), vtt_mat @ v, atol=1e-9)
    assert np.allclose(
        act.vtv_column_norm_sq(basis.states),
        (np.abs(vtv_mat) ** 2).sum(axis=0),
        atol=1e-9,
    )
    assert np.allclose(
        act.vtt_column_norm_sq(basis.states),
        (np.abs(vtt_mat) ** 2).sum(axis=0),
        atol=1e-9,
    )
    for got, mat in ((act.vtv_abs_matvec(v), vtv_mat), (act.vtt_abs_matvec(v), vtt_mat)):
        want = np.abs(mat) @ v
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_structured_matvecs_take_square_blocks(benzene):
    """On a (dim, dim) block D must broadcast along the rows: D[:, None].
    Without it a square block still broadcasts, along the columns, so each
    column must equal its own matvec bit for bit."""
    _, kin, pot, basis = benzene
    act = HoppingCommutatorAction(kin, pot, basis)
    block = np.random.default_rng(9).normal(size=(basis.dim, basis.dim))
    for action in (act.vtv_matvec, act.vtt_matvec):
        cols = np.column_stack([action(v) for v in block.T])
        assert np.array_equal(action(block), cols)


@pytest.mark.parametrize("size_n, sector_key", [(1, (6, 6, 0)), (2, (10, 4, 0))])
def test_structured_dense_matches_pauli_commutators(size_n, sector_key):
    """The dense O_VTV and O_VTT from the structured block actions match the
    Pauli commutators' sector matrices, and the dense norms agree."""
    kin, pot = jordan_wigner(build_ppp(build_lattice("acene", size_n)))
    basis = enumerate_sector(*sector_key)
    act = HoppingCommutatorAction(kin, pot, basis)
    for action, op in zip((act.vtv_matvec, act.vtt_matvec), nested_commutators(kin, pot)):
        want = SectorOperator(op, basis).to_dense()
        got = sector.dense_from_action(action, basis.dim)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert dense_spectral_norm(SimpleNamespace(matvec=action), basis).value == (
            pytest.approx(dense_spectral_norm(op, basis).value, rel=1e-12))


def test_structured_action_is_lazy(monkeypatch):
    """Construction builds neither the species lifts nor any CSR matrix."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    assembled = []
    monkeypatch.setattr(SectorOperator, "to_sparse", lambda self: assembled.append(self))
    HoppingCommutatorAction(kin, pot, basis)
    assert "species" not in vars(basis)
    assert assembled == []


def test_sampled_norms_and_bound_never_list_the_sector():
    """Sampled column norms on anthracene's 11 778 624-state sector take
    their states from (up, down) index pairs, and the Lanczos |O_VTV| bound
    on naphthalene runs on the diagonal over the species grid: neither
    builds the sector's state list."""
    lat = build_lattice("acene", 3)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    act = HoppingCommutatorAction(kin, pot, basis)
    for column_norm_sq in (act.vtv_column_norm_sq, act.vtt_column_norm_sq):
        est = frobenius_sampled(SimpleNamespace(column_norm_sq=column_norm_sq), basis, 100, 1)
        assert est.value > 0 and est.standard_error > 0
    assert "states" not in vars(basis)
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    act = HoppingCommutatorAction(kin, pot, basis)
    bound = spectral_norm_bound(SimpleNamespace(abs_matvec=act.vtv_abs_matvec), basis)
    assert bound.converged and bound.value > 0
    assert "states" not in vars(basis)


def test_column_norms_match_matvecs_naphthalene():
    """Sampled column norms against |O e_b|² from the matvecs on seeded
    naphthalene states.  The column norms take each hop's amplitude from the
    occupation signs and the one-body matrix and D's change under each mask
    from the flipped bits, never D at the target; the matvecs take T from
    the lifted species matrices and D over the whole sector."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    act = HoppingCommutatorAction(kin, pot, basis)
    idx = np.random.default_rng(11).choice(basis.dim, size=200, replace=False)
    want_vtv, want_vtt = [], []
    for j in idx:
        e = np.zeros(basis.dim)
        e[j] = 1.0
        want_vtv.append(np.sum(act.vtv_matvec(e) ** 2))
        want_vtt.append(np.sum(act.vtt_matvec(e) ** 2))
    states = basis.states[idx]
    assert act.vtv_column_norm_sq(states) == pytest.approx(want_vtv, rel=1e-10)
    assert act.vtt_column_norm_sq(states) == pytest.approx(want_vtt, rel=1e-10)


@pytest.mark.parametrize("family, size_n, sector_key", [
    ("acene", 2, (10, 10, 2)), ("triangulene", 2, (13, 13, 1))])
def test_column_norms_match_pauli_commutators_off_sz0(family, size_n, sector_key):
    """Away from S_z = 0, on 200 seeded states of naphthalene's S_z = 1 sector
    and of triangulene2's odd-N sector, the structured column norms equal
    those of the Pauli commutators to 1e-12 relative."""
    kin, pot = jordan_wigner(build_ppp(build_lattice(family, size_n)))
    basis = enumerate_sector(*sector_key)
    act = HoppingCommutatorAction(kin, pot, basis)
    states = basis.states_at(np.random.default_rng(5).integers(0, basis.dim, size=200))
    for column_norm_sq, op in zip((act.vtv_column_norm_sq, act.vtt_column_norm_sq),
                                  nested_commutators(kin, pot)):
        want = column_norms_squared(op, basis, states)
        assert np.all(want > 0)
        assert np.abs(column_norm_sq(states) - want).max() <= 1e-12 * want.max()


def test_structured_column_norms_read_no_pauli_term_values(monkeypatch):
    """The structured column norms take hop amplitudes from the occupation
    signs and the one-body matrices, so with the Pauli term-value kernel
    disabled in ``norms`` both still run on naphthalene."""
    def refuse(*_):
        raise AssertionError("Pauli term values read")

    monkeypatch.setattr(norms, "_term_values", refuse)
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    act = HoppingCommutatorAction(kin, pot, basis)
    states = basis.states_at(np.arange(0, basis.dim, 997))
    assert np.all(act.vtv_column_norm_sq(states) > 0)
    assert np.all(act.vtt_column_norm_sq(states) > 0)


def test_kinetic_beyond_real_hopping_is_refused(benzene):
    """The column norms sum hop amplitudes only, as real numbers: a kinetic
    with diagonal Z terms, or with a hop of imaginary amplitude (X Y on
    qubits 0 and 1), raises ``ValueError``."""
    _, kin, pot, basis = benzene
    z_terms = PauliSum(kin.n_qubits, {(0, 0b1): 0.5, (0, 0b100): 0.25})
    imaginary_hop = PauliSum(kin.n_qubits, {(0b11, 0b10): 0.5})
    for kinetic in (kin + z_terms, kin + imaginary_hop, pot):
        with pytest.raises(ValueError, match="kinetic must be"):
            HoppingCommutatorAction(kinetic, pot, basis)


def test_heavy_potential_is_refused(benzene):
    """The actions take D and its flip differences from the potential's
    quadratic form, so V @ V, whose diagonal terms reach Z-weight 4, raises
    ``ValueError``, as does a potential with hops."""
    _, kin, pot, basis = benzene
    for potential in (pot @ pot, kin + pot):
        with pytest.raises(ValueError, match="potential must be diagonal"):
            HoppingCommutatorAction(kin, potential, basis)


def test_structured_action_shift_invariant(benzene):
    lat, kin, pot, basis = benzene
    v_shifted, _, _, _ = shifted_potential(lat)
    act = HoppingCommutatorAction(kin, pot, basis)
    act_s = HoppingCommutatorAction(kin, v_shifted, basis)
    rng = np.random.default_rng(7)
    v = rng.normal(size=basis.dim)
    assert np.allclose(act.vtv_matvec(v), act_s.vtv_matvec(v), atol=1e-8)
    assert np.allclose(act.vtt_matvec(v), act_s.vtt_matvec(v), atol=1e-8)


def test_constant_arithmetic():
    vtv = NormEstimate(24.0, 0.0, "dense_exact")
    vtt = NormEstimate(12.0, 0.0, "dense_exact")
    w = worst_case_constant(vtv, vtt)
    assert w.value == pytest.approx(2.0)
    assert w.kind == "worst" and w.scheme == "SO"
    a = average_case_constant(vtv, vtt)
    assert a.value == pytest.approx(2.0)
    assert a.kind == "average"


def test_benzene_reference_constants(benzene, benzene_commutators):
    """Smallest-molecule spectral bounds against the reference values."""
    _, _, _, basis = benzene
    o_vtv, o_vtt = benzene_commutators
    vtv = spectral_norm_bound(o_vtv, basis)
    vtt = spectral_norm_bound(o_vtt, basis)
    # worst-case constant must dominate the exact-norm combination
    exact = (
        dense_spectral_norm(o_vtv, basis).value / 24.0
        + dense_spectral_norm(o_vtt, basis).value / 12.0
    )
    assert worst_case_constant(vtv, vtt).value >= exact - 1e-9
