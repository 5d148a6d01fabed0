import numpy as np
import pytest

from trotterlab.lattice import (
    _BOND_TOL,
    BOND_LENGTH,
    Lattice,
    _hexagon_centers,
    bond_orientation_classes,
    build_lattice,
    site_count,
)

HEXAGON_COUNT = {
    "acene": lambda n: n,
    "rhombene": lambda n: n * n,
    "triangulene": lambda n: n * (n + 1) // 2,
}


def test_site_counts_closed_form():
    assert build_lattice("acene", 3).n_sites == 14
    assert build_lattice("rhombene", 5).n_sites == 70
    assert build_lattice("triangulene", 3).n_sites == 22


def test_benzene_hexagon():
    lat = build_lattice("acene", 1)
    assert lat.n_sites == 6
    assert len(lat.bonds) == 6
    assert np.all(lat.degrees() == 2)


@pytest.mark.parametrize("family", ["acene", "rhombene", "triangulene"])
@pytest.mark.parametrize("n", range(1, 9))
def test_families_n1_to_8(family, n):
    lat = build_lattice(family, n)
    assert lat.n_sites == site_count(family, n)
    # bonds = sites + hexagons - 1 for a fused-ring fragment
    assert len(lat.bonds) == lat.n_sites + HEXAGON_COUNT[family](n) - 1
    d = lat.distances
    nonzero = d[d > 0]
    assert abs(nonzero.min() - BOND_LENGTH) < 1e-9
    assert len(lat.bonds) == int(np.sum(np.abs(d - BOND_LENGTH) < 1e-6)) // 2
    deg = lat.degrees()
    assert np.all((deg == 2) | (deg == 3))


def _lattice_by_loops(family, n):
    """(sites, bonds, distances) the pair-loop way: each hexagon corner is
    kept unless a site already kept lies within half a bond, and each pair
    i < j at one bond length is a bond."""
    sites = []
    for cx, cy in _hexagon_centers(family, n):
        for k in range(6):
            ang = np.pi / 6 + k * np.pi / 3
            x, y = cx + BOND_LENGTH * np.cos(ang), cy + BOND_LENGTH * np.sin(ang)
            if all((x - sx) ** 2 + (y - sy) ** 2 >= (0.5 * BOND_LENGTH) ** 2
                   for sx, sy in sites):
                sites.append((x, y))
    coords = np.array(sorted(sites, key=lambda p: (round(p[1], 6), round(p[0], 6))))
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    bonds = tuple((i, j) for i in range(len(coords)) for j in range(i + 1, len(coords))
                  if abs(dist[i, j] - BOND_LENGTH) < _BOND_TOL)
    return coords, bonds, dist


@pytest.mark.parametrize("family,n", [("acene", n) for n in (1, 2, 3, 4, 5, 7, 9, 13)]
                         + [(family, n) for family in ("rhombene", "triangulene")
                            for n in range(1, 6)])
def test_build_lattice_matches_pair_loops(family, n):
    """Sites, bond order and distances bit for bit."""
    lat = build_lattice(family, n)
    coords, bonds, dist = _lattice_by_loops(family, n)
    assert lat.sites.tobytes() == coords.tobytes()
    assert lat.bonds == bonds and all(type(i) is int for bond in lat.bonds for i in bond)
    assert lat.distances.tobytes() == dist.tobytes()


def test_distance_matrix_benzene():
    lat = build_lattice("acene", 1)
    d = lat.distances
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    vals = sorted(set(np.round(d[d > 0], 9)))
    assert np.isclose(vals[0], 1.4)
    assert np.isclose(vals[1], 1.4 * np.sqrt(3))
    assert np.isclose(vals[2], 2.8)


def test_reflection_symmetry_distance_multiset():
    # a symmetry of the molecule permutes sites but must leave the sorted
    # distance multiset unchanged: vertical mirror for acene/triangulene,
    # point inversion about the centroid for the (centrosymmetric) rhombene
    for family, n in [("acene", 3), ("rhombene", 2), ("triangulene", 2)]:
        lat = build_lattice(family, n)
        center = lat.sites.mean(axis=0)
        mirrored = lat.sites.copy()
        if family == "rhombene":
            mirrored = 2 * center - mirrored
        else:
            mirrored[:, 0] = 2 * center[0] - mirrored[:, 0]
        perm = []
        for p in mirrored:
            dist = np.linalg.norm(lat.sites - p, axis=1)
            j = int(np.argmin(dist))
            assert dist[j] < 1e-6
            perm.append(j)
        assert sorted(perm) == list(range(lat.n_sites))
        d = lat.distances
        dp = d[np.ix_(perm, perm)]
        assert np.allclose(np.sort(d.flatten()), np.sort(dp.flatten()))


def test_orientation_classes_are_matchings():
    for family, n in [("acene", 3), ("rhombene", 3), ("triangulene", 3)]:
        lat = build_lattice(family, n)
        classes = bond_orientation_classes(lat)
        total = sum(len(v) for v in classes.values())
        assert total == len(lat.bonds)
        for bonds in classes.values():
            touched = set()
            for i, j in bonds:
                assert i not in touched and j not in touched
                touched.update((i, j))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_lattice("acene", 0)
    with pytest.raises(ValueError):
        build_lattice("pyrene", 2)
