"""Carbon-site geometry and bond graphs for acene, rhombene and triangulene
nanographenes.

All three families are fragments of the honeycomb lattice built from fused
hexagons; a molecule is generated by placing hexagon centers on a triangular
sublattice, collecting the hexagon corners, and deduplicating coincident
sites.  Only pairwise distances enter the downstream Hamiltonian, so the
absolute placement/orientation is a free convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BOND_LENGTH = 1.4  # carbon-carbon distance, Angstrom
_BOND_TOL = 1e-6

FAMILIES = ("acene", "rhombene", "triangulene")


def site_count(family: str, size_n: int) -> int:
    """Closed-form number of carbon atoms for a family and size."""
    if family == "acene":
        return 6 + 4 * (size_n - 1)
    if family == "rhombene":
        return 2 * (size_n + 1) ** 2 - 2
    if family == "triangulene":
        return size_n**2 + 4 * size_n + 1
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class Lattice:
    """Sites, bonds and pairwise distances of one nanographene."""

    family: str
    size_n: int
    sites: np.ndarray  # (N, 2) coordinates in Angstrom
    bonds: tuple[tuple[int, int], ...]  # unordered pairs, i < j
    distances: np.ndarray = field(repr=False)  # (N, N) symmetric

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_sites, dtype=int)
        for i, j in self.bonds:
            deg[i] += 1
            deg[j] += 1
        return deg


def _hexagon_centers(family: str, size_n: int) -> list[tuple[float, float]]:
    """Hexagon centers on the triangular sublattice, row by row."""
    dx = np.sqrt(3.0) * BOND_LENGTH  # horizontal center spacing
    dy = 1.5 * BOND_LENGTH  # vertical row spacing
    centers = []
    if family == "acene":
        rows = [(0, size_n)]
    elif family == "rhombene":
        rows = [(j, size_n) for j in range(size_n)]
    else:  # triangulene
        rows = [(j, size_n - j) for j in range(size_n)]
    for j, count in rows:
        for i in range(count):
            centers.append(((i + 0.5 * j) * dx, j * dy))
    return centers


def build_lattice(family: str, size_n: int) -> Lattice:
    """Generate the molecule geometry with all nearest neighbors at 1.4 A."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if size_n < 1:
        raise ValueError(f"size_n must be >= 1, got {size_n}")

    angles = [np.pi / 6 + k * np.pi / 3 for k in range(6)]
    ring = BOND_LENGTH * np.array([(np.cos(ang), np.sin(ang)) for ang in angles])
    centers = np.array(_hexagon_centers(family, size_n))
    corners = (centers[:, None, :] + ring).reshape(-1, 2)

    # Deduplicate shared corners between fused hexagons: corners closer than
    # half a bond coincide, and each cluster keeps its first corner.
    diff = corners[:, None, :] - corners[None, :, :]
    close = (diff**2).sum(axis=-1) < (0.5 * BOND_LENGTH) ** 2
    first = ~np.tril(close, -1).any(axis=1)
    sites = corners[first].tolist()
    coords = np.array(sorted(sites, key=lambda p: (round(p[1], 6), round(p[0], 6))))

    n = len(coords)
    expected = site_count(family, size_n)
    if n != expected:
        raise AssertionError(f"{family} {size_n}: generated {n} sites, expected {expected}")

    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    i, j = np.nonzero(np.triu(np.abs(dist - BOND_LENGTH) < _BOND_TOL, 1))
    bonds = tuple(zip(i.tolist(), j.tolist()))

    lat = Lattice(family=family, size_n=size_n, sites=coords, bonds=bonds, distances=dist)
    _check_invariants(lat)
    return lat


def _check_invariants(lat: Lattice) -> None:
    deg = lat.degrees()
    if not np.all((deg == 2) | (deg == 3)):
        raise AssertionError("site degree outside {2, 3}")
    # connectivity by breadth-first search
    adj: dict[int, list[int]] = {i: [] for i in range(lat.n_sites)}
    for i, j in lat.bonds:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != lat.n_sites:
        raise AssertionError("bond graph not connected")


def bond_orientation_classes(lattice: Lattice) -> dict[int, list[tuple[int, int]]]:
    """Group bonds by orientation angle mod 180 degrees.

    On a honeycomb fragment the three orientation classes are each a
    matching (no two bonds of one class share a site), which makes them
    natural kinetic sections.
    """
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, j in lattice.bonds:
        dxy = lattice.sites[j] - lattice.sites[i]
        ang = np.arctan2(dxy[1], dxy[0]) % np.pi
        # hexagon edges sit at 30, 90 and 150 degrees in this placement
        key = int(round((ang - np.pi / 6) / (np.pi / 3))) % 3
        classes.setdefault(key, []).append((i, j))
    return classes
