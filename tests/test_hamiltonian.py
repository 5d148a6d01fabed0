import numpy as np
import pytest

from fock_oracle import dense_matrix, number_operator
from test_pauli import _shipped_molecules
from trotterlab.hamiltonian import (
    PppParams,
    ShiftParams,
    apply_shift,
    bin_coefficients,
    build_ppp,
    choose_shift,
    shifted_potential,
)
from trotterlab.lattice import build_lattice
from trotterlab.pauli import PauliSum, jordan_wigner

TERM_COUNTS = {
    ("acene", 3): (406, 290),
    ("acene", 7): (1830, 1554),
    ("rhombene", 3): (1830, 1522),
    ("rhombene", 5): (9870, 8994),
    ("triangulene", 3): (990, 778),
    ("triangulene", 5): (4278, 3778),
}


def test_default_params():
    p = PppParams()
    assert p.tau == 2.4 and p.u == 11.13
    assert np.isclose(p.ohno(1.4), 11.13 / np.sqrt(1 + 0.6117 * 1.96))
    assert np.isclose(p.ohno(1.4), 7.506, atol=5e-4)
    with pytest.raises(ValueError):
        PppParams(tau=-1.0)


def test_build_ppp_structure():
    lat = build_lattice("acene", 3)
    fh = build_ppp(lat)
    hops = list(fh.hops())
    assert len(hops) == 2 * len(lat.bonds)
    assert all(c == -2.4 for _, _, c in hops)
    assert fh.on_site.shape == (14,)
    for i in range(14):
        for j in range(i + 1, 14):
            r = lat.distances[i, j]
            assert np.isclose(fh.v[i, j], fh.params.ohno(r), rtol=1e-12)


def test_benzene_hopping_count():
    fh = build_ppp(build_lattice("acene", 1))
    assert len(list(fh.hops())) == 12


@pytest.mark.parametrize("key", sorted(TERM_COUNTS))
def test_term_counts_all_molecules(key):
    family, n = key
    v_expect, vp_expect = TERM_COUNTS[key]
    lat = build_lattice(family, n)
    vp, _, _, v = shifted_potential(lat)
    assert v.term_count() == v_expect
    assert vp.term_count() == vp_expect


def test_benzene_shift_tie_break():
    # benzene has a 6/6 frequency tie between bonded and meta pairs; the
    # larger-coefficient (shorter-distance) class is removed
    lat = build_lattice("acene", 1)
    vp, _, shift, v = shifted_potential(lat)
    assert v.term_count() == 78
    assert vp.term_count() == 42
    p = PppParams()
    assert np.isclose(shift.c2, -p.ohno(1.4) / 2.0, rtol=1e-9)


def test_zero_shift_is_identity():
    lat = build_lattice("acene", 1)
    _, v = jordan_wigner(build_ppp(lat))
    out, offset = apply_shift(v, ShiftParams(0.0, 0.0), 6)
    assert offset == pytest.approx(complex(v.coefficient(0, 0)).real)
    body, _ = v.split_identity()
    assert (out - body).max_abs_coeff() < 1e-10


def test_shift_never_adds_terms():
    for family, n in [("acene", 1), ("acene", 3), ("triangulene", 2)]:
        lat = build_lattice(family, n)
        vp, _, _, v = shifted_potential(lat)
        assert vp.term_count() <= v.term_count()


def test_shift_removes_all_single_z():
    lat = build_lattice("acene", 3)
    vp, _, _, _ = shifted_potential(lat)
    assert all(z.bit_count() != 1 for (x, z) in vp.terms)


def test_spectral_equivalence_fixed_filling():
    """V' differs from V by a constant on each fixed-particle-number block."""
    lat = build_lattice("acene", 1)
    vp, offset, _, v = shifted_potential(lat)
    dv = np.diag(dense_matrix(v)).real
    dvp = np.diag(dense_matrix(vp)).real + offset
    for n_elec in (5, 6, 7):
        sel = [b for b in range(1 << 12) if bin(b).count("1") == n_elec]
        diff = dvp[sel] - dv[sel]
        assert diff.max() - diff.min() < 1e-10


def _apply_shift_by_algebra(v, shift, n_sites):
    """Reference V' from Pauli-sum products, V + c1 N̂ + c2 (N̂ @ N̂)."""
    n_hat = number_operator(n_sites)
    shifted = v + shift.c1 * n_hat + shift.c2 * (n_hat @ n_hat)
    shifted = shifted.require_real("shifted potential").pruned()
    body, offset = shifted.split_identity()
    return body, float(complex(offset).real)


def _assert_apply_shift_matches_algebra(v, shifts, n_sites):
    for shift in shifts:
        body, offset = apply_shift(v, shift, n_sites)
        want_body, want_offset = _apply_shift_by_algebra(v, shift, n_sites)
        # same terms in the same order, every float equal bit for bit
        assert list(body.terms.items()) == list(want_body.terms.items())
        assert all(type(c) is float for c in body.terms.values())
        assert offset == want_offset and type(offset) is float


@pytest.mark.parametrize("family,n", _shipped_molecules())
def test_apply_shift_matches_pauli_algebra(family, n):
    """At every size the CLI builds V' for, rhombene5's 140 qubits included
    (masks past bit 63)."""
    lat = build_lattice(family, n)
    _, v = jordan_wigner(build_ppp(lat))
    # the last shift cancels every single-Z term of V + c1 N̂, and N̂² brings them back
    shifts = (choose_shift(v), ShiftParams(0.0, 0.0), ShiftParams(0.3, -0.7),
              ShiftParams(2.0 * v.coefficient(0, 1), 0.3))
    _assert_apply_shift_matches_algebra(v, shifts, lat.n_sites)


@pytest.mark.parametrize("family,n", [("acene", 1), ("triangulene", 2)])
def test_apply_shift_adds_the_terms_v_lacks(family, n):
    """A V without its identity and every third term: the shift's new
    identity, single-Z and pair terms go to the end in the algebra's order."""
    lat = build_lattice(family, n)
    _, full = jordan_wigner(build_ppp(lat))
    v = PauliSum(full.n_qubits, {key: c for k, (key, c) in enumerate(full.terms.items()) if k % 3})
    shifts = (choose_shift(full), ShiftParams(0.3, 0.0), ShiftParams(0.0, -0.7),
              ShiftParams(2.0 * full.coefficient(0, 1), 0.3))
    _assert_apply_shift_matches_algebra(v, shifts, lat.n_sites)


def _benzene_potential():
    _, v = jordan_wigner(build_ppp(build_lattice("acene", 1)))
    return v


def test_apply_shift_rejects_imaginary_coefficients():
    v = _benzene_potential()
    shift = choose_shift(v)
    body, offset = apply_shift(v, shift, 6)
    scale = max(body.max_abs_coeff(), abs(offset))
    # 1e-9 of the largest |coefficient| of V', its identity included, is the
    # line; below it the imaginary part is dropped and the real parts are unchanged
    below = PauliSum(v.n_qubits, v.terms)
    below.terms[0, 3] = complex(v.terms[0, 3], 1e-10 * scale)
    (got, got_offset), (want, want_offset) = apply_shift(below, shift, 6), apply_shift(v, shift, 6)
    assert list(got.terms.items()) == list(want.terms.items()) and got_offset == want_offset
    above = PauliSum(v.n_qubits, v.terms)
    above.terms[0, 3] = complex(v.terms[0, 3], 1e-8 * scale)
    with pytest.raises(ValueError, match="non-real coefficient"):
        apply_shift(above, shift, 6)


def test_apply_shift_rejects_qubit_count_mismatch():
    v = _benzene_potential()
    with pytest.raises(ValueError, match="qubit count mismatch"):
        apply_shift(v, choose_shift(v), 7)


def test_choose_shift_rejects_inhomogeneous_single_z():
    v = _benzene_potential()
    v.terms[0, 1] += 1.0
    with pytest.raises(ValueError, match="not homogeneous"):
        choose_shift(v)


def test_bin_coefficients_empty_and_single_class():
    ids, first = bin_coefficients([], 1e-9)
    assert ids.size == 0 and first.size == 0
    ids, first = bin_coefficients([2.0, 2.0, 2.0], 1e-9)
    assert ids.tolist() == [0, 0, 0] and first.tolist() == [0]


def test_bin_coefficients_near_ties():
    tol = 1e-9 * 3.0  # rel_tol times max |value|
    values = [3.0, 1.0, 1.0 + 0.99 * tol, 1.0 + 1.01 * tol, -3.0]
    ids, first = bin_coefficients(values, 1e-9)
    # 1 + 1.01 tol is within tol of its neighbour but not of the class start
    assert ids.tolist() == [3, 1, 1, 2, 0]
    assert first.tolist() == [4, 1, 3, 0]


def test_bin_coefficients_first_seen_member():
    values = [1.0 + 1e-10, 5.0, 1.0]
    ids, first = bin_coefficients(values, 1e-9)
    assert ids.tolist() == [0, 1, 0]
    assert values[first[0]] == 1.0 + 1e-10  # not the class minimum 1.0


def test_benzene_count_tie_goes_to_larger_coefficient():
    _, v = jordan_wigner(build_ppp(build_lattice("acene", 1)))
    zz = [c for (x, z), c in v.terms.items() if x == 0 and z.bit_count() == 2]
    ids, first = bin_coefficients(zz, 1e-9)
    counts = np.bincount(ids)
    tied = np.flatnonzero(counts == counts.max())
    assert len(tied) == 2
    larger = max(zz[first[k]] for k in tied)
    assert choose_shift(v).c2 == -2.0 * larger
