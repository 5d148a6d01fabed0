import numpy as np
import pytest

from fock_oracle import dense_matrix, number_operator
from trotterlab import hamiltonian
from trotterlab.hamiltonian import PppParams, bin_coefficients, build_ppp, shifted_potential
from trotterlab.lattice import build_lattice
from trotterlab.pauli import jw_potential

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


SHIFTED_MOLECULES = ([("acene", n) for n in (*range(1, 10), 13)]
                     + [(family, n) for family in ("rhombene", "triangulene") for n in range(1, 6)])


@pytest.mark.parametrize("family,n", SHIFTED_MOLECULES)
def test_apply_shift_matches_pauli_algebra(family, n):
    """``shifted_potential``'s V' is V + c1 N̂ + c2 N̂² by Pauli algebra, at
    every size the CLI builds V' for and more, rhombene5's 140 qubits
    included (masks past bit 63)."""
    lat = build_lattice(family, n)
    body, offset, shift, v = shifted_potential(lat)
    want_body, want_offset = _apply_shift_by_algebra(v, shift, lat.n_sites)
    # same terms in the same order, every float equal bit for bit
    assert list(body.terms.items()) == list(want_body.terms.items())
    assert all(type(c) is float for c in body.terms.values())
    assert offset == want_offset and type(offset) is float
    assert list(v.terms.items()) == list(jw_potential(build_ppp(lat)).terms.items())


def test_choose_shift_rejects_inhomogeneous_single_z(monkeypatch):
    """One site with on-site u + 1 leaves V + c2 N̂² two single-Z values."""
    def uneven_ppp(lattice):
        fh = build_ppp(lattice)
        fh.on_site[0] += 1.0
        return fh

    monkeypatch.setattr(hamiltonian, "build_ppp", uneven_ppp)
    with pytest.raises(ValueError, match="not homogeneous"):
        shifted_potential(build_lattice("acene", 1))


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
    _, _, shift, v = shifted_potential(build_lattice("acene", 1))
    zz = [c for (x, z), c in v.terms.items() if x == 0 and z.bit_count() == 2]
    ids, first = bin_coefficients(zz, 1e-9)
    counts = np.bincount(ids)
    tied = np.flatnonzero(counts == counts.max())
    assert len(tied) == 2
    larger = max(zz[first[k]] for k in tied)
    assert shift.c2 == -2.0 * larger
