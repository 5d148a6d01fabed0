import numpy as np
import pytest
from scipy.linalg import eigh, expm

from trotterlab import spectral
from trotterlab.hamiltonian import build_ppp, shifted_potential
from trotterlab.lattice import build_lattice, bond_orientation_classes
from trotterlab.pauli import PauliSum, jordan_wigner, qubit_index
from trotterlab.sector import Propagator, SectorOperator, enumerate_sector, lowest_eigenpairs
from trotterlab.spectral import (
    FilterSpec,
    TrotterScheme,
    compute_time_series,
    default_filter,
    default_section_order,
    effective_hamiltonian_dense,
    effective_spectrum_dense,
    error_constants,
    extract_energy,
    filter_objective,
    hopping_pauli_sum,
    pair_eigenstates,
    scheme_unitary_dense,
    so_scheme,
    tile_scheme,
)


@pytest.fixture(scope="module")
def benzene():
    lat = build_lattice("acene", 1)
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(6, 6, 0)
    return lat, kin, pot, basis


def _synthetic_series(energies, weights, t, n_steps):
    ks = np.arange(n_steps + 1)
    vals = np.zeros(n_steps + 1, dtype=complex)
    for e, w in zip(energies, weights):
        vals += w * np.exp(-1j * e * t * ks)
    from trotterlab.spectral import TimeSeries

    return TimeSeries(vals, t)


def test_scheme_validation(benzene):
    _, kin, pot, basis = benzene
    with pytest.raises(ValueError):
        TrotterScheme("SO", 0.1, ((pot, 0.05), (kin, 0.1)))  # not palindromic
    with pytest.raises(ValueError):
        TrotterScheme("SO", 0.1, ((pot, 0.04), (kin, 0.1), (pot, 0.04)))
    with pytest.raises(ValueError):
        TrotterScheme("bad", 0.1, ((kin, 0.1),))
    s = so_scheme(kin, pot, 0.1)
    assert s.kind == "SO" and len(s.factors) == 3


def test_hopping_pauli_sum_numpy_sites_past_64_qubits():
    """numpy integer sites, as ``np.nonzero`` gives them, do not wrap."""
    plain = hopping_pauli_sum(34, [(0, 33)])
    assert hopping_pauli_sum(34, [(np.int64(0), np.int64(33))]).terms == plain.terms
    assert sorted(x for x, _ in plain.terms) == [1 | 1 << 33] * 2 + [1 << 34 | 1 << 67] * 2


def test_scheme_unitary_dense_oracle(benzene):
    _, kin, pot, basis = benzene
    t = 0.07
    scheme = so_scheme(kin, pot, t)
    got = scheme_unitary_dense(scheme, basis)
    v_mat = SectorOperator(pot, basis).to_dense()
    t_mat = SectorOperator(kin, basis).to_dense()
    want = expm(-1j * t / 2 * v_mat) @ expm(-1j * t * t_mat) @ expm(-1j * t / 2 * v_mat)
    assert np.abs(got - want).max() < 1e-11


def test_effective_hamiltonian_second_order(benzene):
    _, kin, pot, basis = benzene
    h_mat = SectorOperator(kin + pot, basis).to_dense()
    errs = []
    for t in (0.01, 0.02):
        h_eff = effective_hamiltonian_dense(so_scheme(kin, pot, t), basis)
        errs.append(np.linalg.norm(h_eff - h_mat, 2))
    assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.1)


def test_tile_scheme_unitary_oracle(benzene):
    lat, kin, pot, basis = benzene
    classes = sorted(bond_orientation_classes(lat).values(), key=len)
    sums = [hopping_pauli_sum(lat.n_sites, c) for c in classes]
    t = 0.05
    scheme = tile_scheme(sums, pot, t)
    got = scheme_unitary_dense(scheme, basis)
    mats = [SectorOperator(op, basis).to_dense() for op in sums]
    v_mat = SectorOperator(pot, basis).to_dense()
    want = expm(-1j * t / 2 * v_mat)
    for m in mats[:-1]:
        want = want @ expm(-1j * t / 2 * m)
    want = want @ expm(-1j * t * mats[-1])
    for m in mats[-2::-1]:
        want = want @ expm(-1j * t / 2 * m)
    want = want @ expm(-1j * t / 2 * v_mat)
    assert np.abs(got - want).max() < 1e-11
    # sections still sum to the full kinetic operator
    full = SectorOperator(kin, basis).to_dense()
    assert np.abs(sum(mats) - full).max() < 1e-12


def test_pair_eigenstates_recovers_permutation():
    rng = np.random.default_rng(0)
    dim = 12
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    perm = rng.permutation(dim)
    mixed = q[:, perm] + 0.05 * rng.normal(size=(dim, dim))
    mixed, _ = np.linalg.qr(mixed)
    matches = pair_eigenstates(q, mixed)
    for m, n, ov, flagged in matches:
        assert perm[n] == m
        assert ov > 0.9
        assert not flagged


def test_extract_energy_single_pole():
    t = 0.05
    e = -3.7
    series = _synthetic_series([e], [1.0], t, 200)
    filt = default_filter()
    got = extract_energy(series, filt, prior_energy=e)
    assert abs(got - e) < 1e-7


def test_extract_energy_dominant_of_two():
    t = 0.05
    e1, e2 = 6.0, -40.0
    series = _synthetic_series([e1, e2], [0.85, 0.15], t, 200)
    got = extract_energy(series, default_filter(), prior_energy=e1)
    assert abs(got - e1) < 1e-6


def test_extract_energy_branch_selection():
    t = 0.05
    e = 2.0
    period = 2 * np.pi / t
    series = _synthetic_series([e], [1.0], t, 200)
    filt = default_filter()
    assert abs(extract_energy(series, filt, e) - e) < 1e-7
    wrapped = extract_energy(series, filt, e + period)
    assert abs(wrapped - (e + period)) < 1e-7


def test_extract_energy_stable_under_last_bit_noise():
    """A 1e-15 relative change of g_k moves the energy linearly, not by ~sqrt(eps)."""
    from trotterlab.spectral import TimeSeries

    t = 0.05
    clean = _synthetic_series([-3.2, 1.7, 4.4], [0.7, 0.2, 0.1], t, 120)
    ref = extract_energy(clean, default_filter(), -3.2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        noise = rng.normal(size=121) + 1j * rng.normal(size=121)
        vals = clean.values * (1.0 + 1e-15 * noise)
        vals[0] = 1.0
        got = extract_energy(TimeSeries(vals, t), default_filter(), -3.2)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_extract_energy_flat_series_rejected():
    from trotterlab.spectral import TimeSeries

    t = 0.05
    vals = np.zeros(121, dtype=complex)
    vals[0] = 1.0
    series = TimeSeries(vals, t)
    grid, values = filter_objective(series, default_filter())
    assert values.max() - values.min() < 1e-9
    with pytest.raises(ValueError):
        extract_energy(series, default_filter(), 0.0)


def _trig_sum_objective(series, filt):
    """The filter objective as the direct sum over k of cos and sin on the
    grid (the oracle of the FFT route)."""
    points = spectral._GRID_POINTS
    order = min(filt.order, len(series.values) - 1)
    grid = -np.pi + 2 * np.pi * (np.arange(1, points + 1) / points)
    ks = np.arange(1, order + 1)
    fk = filt.coefficients[1 : order + 1]
    g = series.values[1 : order + 1]
    kx = np.outer(grid, ks)
    values = filt.coefficients[0] + 2.0 * (
        np.cos(kx) @ (fk * g.real) - np.sin(kx) @ (fk * g.imag)
    )
    return grid, values


@pytest.fixture(scope="module")
def benzene_series(benzene):
    """(exact energies, series): the two lowest states under SO and tile."""
    lat, kin, pot, basis = benzene
    vals, vecs = lowest_eigenpairs(kin + pot, basis, k=2)
    classes = default_section_order(bond_orientation_classes(lat).values())
    tile = tile_scheme([hopping_pauli_sum(lat.n_sites, c) for c in classes], pot, 0.05)
    order = default_filter().order
    return vals, [compute_time_series(scheme, basis, vecs[:, m], order)
                  for scheme in (so_scheme(kin, pot, 0.05), tile) for m in range(2)]


def test_filter_objective_matches_trig_sum(benzene_series, monkeypatch):
    vals, series = benzene_series
    filt = default_filter()
    for s in series:
        grid, got = filter_objective(s, filt)
        want_grid, want = _trig_sum_objective(s, filt)
        assert np.array_equal(grid, want_grid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.argmax(got) == np.argmax(want)
    energies = [extract_energy(s, filt, vals[m % 2]) for m, s in enumerate(series)]
    monkeypatch.setattr(spectral, "filter_objective", _trig_sum_objective)
    assert energies == [extract_energy(s, filt, vals[m % 2]) for m, s in enumerate(series)]


def test_filter_objective_folds_orders_past_the_grid(monkeypatch):
    """An order of several grid lengths folds k mod G and stays exact."""
    monkeypatch.setattr(spectral, "_GRID_POINTS", 64)
    series = _synthetic_series([-3.2, 1.7, 4.4], [0.7, 0.2, 0.1], 0.05, 200)
    filt = FilterSpec(width=0.005, order=200)
    grid, got = filter_objective(series, filt)
    want_grid, want = _trig_sum_objective(series, filt)
    assert len(grid) == 64 and np.array_equal(grid, want_grid)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_time_series_matches_dense_effective(benzene):
    _, kin, pot, basis = benzene
    h = kin + pot
    vals, vecs = lowest_eigenpairs(h, basis, k=1, tol=1e-12)
    t = 0.05
    scheme = so_scheme(kin, pot, t)
    h_eff = effective_hamiltonian_dense(scheme, basis)
    eff_vals, eff_vecs = np.linalg.eigh(h_eff)
    m = int(np.argmax(np.abs(eff_vecs.conj().T @ vecs[:, 0]) ** 2))
    filt = default_filter()
    series = compute_time_series(scheme, basis, vecs[:, 0], filt.order)
    got = extract_energy(series, filt, vals[0])
    assert abs(got - eff_vals[m]) < 1e-6


@pytest.mark.parametrize("kind", ["SO", "tile"])
def test_time_series_matches_dense_unitary_powers(kind):
    """g_k from layout-form propagation against <psi|U^k|psi> on naphthalene's
    2025-state (10, 4, 0) sector, with U applied without ``Propagator``: each
    distinct hopping factor from one eigensolve of its dense sector matrix,
    W exp(-i dur lambda) W^dagger, and the potential as exp(-i dur D)."""
    lat = build_lattice("acene", 2)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(10, 4, 0)
    t = 0.1
    if kind == "SO":
        scheme = so_scheme(kin, pot, t)
    else:
        classes = bond_orientation_classes(lat).values()
        scheme = tile_scheme([hopping_pauli_sum(10, c) for c in classes], pot, t)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    steps = 6
    got = compute_time_series(scheme, basis, psi, steps).values
    spectra = {}
    for op, _ in scheme.factors:
        if id(op) not in spectra:
            sop = SectorOperator(op, basis)
            spectra[id(op)] = ((sop.diagonal.real, None) if op.is_diagonal()
                               else eigh(sop.to_dense(), driver="evd"))
    want, current = [1.0], psi
    for _ in range(steps):
        for op, dur in scheme.factors:
            vals, vecs = spectra[id(op)]
            phases = np.exp(-1j * dur * vals)
            if vecs is None:
                current = phases * current
            else:
                current = vecs @ (phases * (vecs.conj().T @ current))
        want.append(np.vdot(psi, current))
    assert np.abs(got - np.array(want)).max() <= 1e-10


def _imaginary_hop(n_sites, i, j, amplitude):
    """amplitude (X Z..Z Y - Y Z..Z X) / 2 on bond (i, j) for each spin: a
    Hermitian hop whose sector matrix is imaginary and antisymmetric."""
    op = PauliSum(2 * n_sites)
    for spin in (0, 1):
        p, q = qubit_index(i, spin, n_sites), qubit_index(j, spin, n_sites)
        ends, chain = (1 << p) | (1 << q), (1 << q) - (1 << (p + 1))
        op.add_term(ends, chain | (1 << q), amplitude / 2)  # X Z..Z Y
        op.add_term(ends, chain | (1 << p), -amplitude / 2)  # Y Z..Z X
    return op


def test_dense_route_refuses_what_the_series_refuses(benzene):
    """Both routes take the same Trotter step, so a factor that no
    ``Propagator`` takes, a diagonal of Z-weight 4, fails each alike, and so
    does a kinetic factor with an imaginary hop, whose U is not symmetric."""
    _, kin, pot, basis = benzene
    state = np.eye(basis.dim)[0]
    for scheme, message in ((so_scheme(kin, pot @ pot, 0.05), "Propagator needs"),
                            (so_scheme(kin + _imaginary_hop(6, 0, 1, 1.0), pot, 0.05),
                             "not real")):
        with pytest.raises(ValueError, match=message) as series_error:
            compute_time_series(scheme, basis, state, 2)
        with pytest.raises(ValueError) as dense_error:
            effective_spectrum_dense(scheme, basis)
        assert str(dense_error.value) == str(series_error.value)


def _step_by_step_series(scheme, basis, psi, n_steps):
    """<psi|U^k psi> with U applied k times, factor by factor, one
    ``Propagator`` per distinct factor."""
    props = {}
    for op, _ in scheme.factors:
        props.setdefault(id(op), Propagator(op, basis))
    values, current = [1.0], psi.astype(complex)
    for _ in range(n_steps):
        for op, dur in scheme.factors:
            current = props[id(op)].apply(current, dur)
        values.append(np.vdot(psi, current))
    return np.array(values)


@pytest.fixture(scope="module", params=[(1, (6, 6, 0)), (2, (10, 4, 0))],
                ids=["benzene", "naphthalene-10-4-0"])
def series_case(request):
    """(basis, SO scheme, tile scheme, real state, complex state)."""
    size_n, sector = request.param
    lat = build_lattice("acene", size_n)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = enumerate_sector(*sector)
    classes = default_section_order(bond_orientation_classes(lat).values())
    tile = tile_scheme([hopping_pauli_sum(lat.n_sites, c) for c in classes], pot, 0.1)
    rng = np.random.default_rng(11)
    real = rng.normal(size=basis.dim)
    complex_state = real + 1j * rng.normal(size=basis.dim)
    return (basis, so_scheme(kin, pot, 0.1), tile, real / np.linalg.norm(real),
            complex_state / np.linalg.norm(complex_state))


@pytest.mark.parametrize("kind", ["SO", "tile"])
def test_doubled_series_matches_step_by_step(series_case, kind):
    """g_2k and g_2k+1 from U^k psi against k full steps per value, for real
    and complex states and every n_steps parity."""
    basis, so, tile, real, complex_state = series_case
    scheme = so if kind == "SO" else tile
    for psi in (real, complex_state):
        want = _step_by_step_series(scheme, basis, psi, 40)
        for n_steps in (0, 1, 2, 5, 6, 40):
            got = compute_time_series(scheme, basis, psi, n_steps).values
            assert got.shape == (n_steps + 1,) and got[0] == 1.0
            assert np.abs(got - want[:n_steps + 1]).max() <= 1e-12


def test_n_values_take_half_the_steps(benzene, monkeypatch):
    """n values after g_0 take ceil(n / 2) Trotter steps."""
    _, kin, pot, basis = benzene
    scheme = so_scheme(kin, pot, 0.05)
    make_step = spectral._trotter_step
    taken = []

    def counting_step(*args):
        step = make_step(*args)

        def counted(psi):
            taken.append(1)
            return step(psi)

        return counted

    monkeypatch.setattr(spectral, "_trotter_step", counting_step)
    state = np.eye(basis.dim)[3]
    for n_steps in (0, 1, 2, 5, 6, 40):
        taken.clear()
        compute_time_series(scheme, basis, state, n_steps)
        assert len(taken) == (n_steps + 1) // 2


def test_sector_trace_identity(benzene):
    _, kin, pot, basis = benzene
    h = kin + pot
    eff_vals, _ = effective_spectrum_dense(so_scheme(kin, pot, 0.05), basis)
    h_mat = SectorOperator(h, basis).to_dense()
    # Tr(H_eff - H) vanishes: every BCH correction is a commutator
    diff = eff_vals.sum() - np.trace(h_mat).real
    assert abs(diff) < 1e-8 * np.abs(np.linalg.eigvalsh(h_mat)).max()


def test_energy_error_shift_invariant(benzene):
    lat, kin, pot, basis = benzene
    v_shifted, offset, _, _ = shifted_potential(lat)
    t = 0.05
    h_eff = effective_hamiltonian_dense(so_scheme(kin, pot, t), basis)
    h_eff_s = effective_hamiltonian_dense(
        so_scheme(kin, v_shifted + PauliSum.identity(v_shifted.n_qubits, offset), t), basis
    )
    a = np.linalg.eigvalsh(h_eff)
    b = np.linalg.eigvalsh(h_eff_s)
    shifts = b - a
    assert np.ptp(shifts) < 1e-9  # pure constant shift: error constants unchanged


def test_error_constants_records():
    rep = error_constants([1.0, 3.0], [1.01, 3.002], 0.1, pairs=[(1, 0)])
    assert [s.label for s in rep.states] == ["0", "1"]
    assert rep.states[0].signed_constant == pytest.approx(1.0)
    assert rep.states[1].constant == pytest.approx(0.2)
    pair = rep.pairs[0]
    assert pair.exact_gap == pytest.approx(2.0)
    assert pair.constant == pytest.approx(abs(2.0 - 1.992) / 0.01)
