from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from fock_oracle import full_matrix
from kinetic_oracle import effective_kinetic
from trotterlab.freefermion import (
    KineticSections,
    average_case_kinetic,
    second_order_matrix,
    single_section,
    tile_sections,
    worst_case_kinetic,
)
from trotterlab.freefermion import tiling_path
from trotterlab.lattice import build_lattice
from trotterlab.sector import half_filling, half_filling_sz_twice

TABLE_GATE_COUNTS = {
    ("acene", 3): (52, 104),
    ("acene", 5): (84, 168),
    ("acene", 7): (116, 232),
    ("acene", 9): (148, 296),
    ("acene", 13): (212, 424),
    ("rhombene", 2): (64, 112),
    ("rhombene", 3): (124, 248),
    ("rhombene", 4): (208, 400),
    ("rhombene", 5): (308, 616),
    ("triangulene", 2): (52, 88),
    ("triangulene", 3): (92, 168),
    ("triangulene", 4): (136, 272),
    ("triangulene", 5): (192, 384),
}


def _random_hopping(rng, n):
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def _random_bipartite_hopping(rng, n):
    """Hopping only between even and odd sites, like any honeycomb fragment."""
    a = np.zeros((n, n))
    for i in range(0, n, 2):
        for j in range(1, n, 2):
            a[i, j] = a[j, i] = rng.normal()
    return a


def _fock_quadratic(a):
    """Dense Fock-space matrix of sum_ij a_ij c_i^+ c_j for n modes."""
    n = a.shape[0]
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if a[i, j] == 0.0:
                continue
            for b in range(dim):
                if not (b >> j) & 1:
                    continue
                b1 = b & ~(1 << j)
                if (b1 >> i) & 1:
                    continue
                sign = (-1) ** bin(b & ((1 << j) - 1)).count("1")
                sign *= (-1) ** bin(b1 & ((1 << i) - 1)).count("1")
                out[b1 | (1 << i), b] += a[i, j] * sign
    return out


def _sections_from_matrices(mats, n):
    return KineticSections(
        n_modes=n,
        matrices=tuple(mats),
        names=tuple(str(k) for k in range(len(mats))),
        rotations=tuple(1 for _ in mats),
        t_gates=tuple(2 for _ in mats),
    )


def test_lemma1_norm_correspondence():
    rng = np.random.default_rng(0)
    for n in (4, 6):
        a = _random_hopping(rng, n)
        fock = _fock_quadratic(a)
        fock_norm = np.abs(np.linalg.eigvalsh(fock)).max()
        trace_norm = np.abs(np.linalg.svd(a, compute_uv=False)).sum()
        assert abs(fock_norm - trace_norm / 2) < 1e-10


def test_lemma2_exponential_structure():
    rng = np.random.default_rng(1)
    n = 5
    a1, a2 = _random_hopping(rng, n), _random_hopping(rng, n)
    t = 0.3
    prod = expm(-1j * a1 * t / 2) @ expm(-1j * a2 * t / 2)
    vals, vecs = np.linalg.eig(prod)
    a_tilde = (vecs * (1j * np.log(vals) / t)) @ np.linalg.inv(vecs)
    fock_prod = expm(-1j * _fock_quadratic(a1) * t / 2) @ expm(
        -1j * _fock_quadratic(a2) * t / 2
    )
    lifted = expm(-1j * _fock_quadratic(a_tilde) * t)
    assert np.abs(fock_prod - lifted).max() < 1e-10


def test_single_section_is_exact():
    lat = build_lattice("acene", 1)
    secs = single_section(lat)
    assert secs.n_sections == 1
    full = full_matrix(secs)
    assert np.allclose(np.abs(full[full != 0]), 2.4)
    eff = effective_kinetic(secs, 0.05)
    assert np.abs(eff.matrix).max() == 0.0
    assert worst_case_kinetic(secs).value == 0.0
    assert average_case_kinetic(secs).value == 0.0


def test_second_order_scaling():
    rng = np.random.default_rng(2)
    n = 6
    mats = [_random_bipartite_hopping(rng, n), _random_bipartite_hopping(rng, n)]
    secs = _sections_from_matrices(mats, n)
    small = np.abs(effective_kinetic(secs, 0.01).eigenmodes).max()
    large = np.abs(effective_kinetic(secs, 0.02).eigenmodes).max()
    assert large / small == pytest.approx(4.0, rel=0.05)


def test_fock_eigenphases_match_occupation_sums():
    rng = np.random.default_rng(3)
    n = 6
    mats = [_random_bipartite_hopping(rng, n), _random_bipartite_hopping(rng, n)]
    secs = _sections_from_matrices(mats, n)
    t = 0.2
    eff = effective_kinetic(secs, t)
    exact = expm(1j * _fock_quadratic(full_matrix(secs)) * t)
    for mat in mats:
        exact = exact @ expm(-1j * _fock_quadratic(mat) * t / 2)
    for mat in reversed(mats):
        exact = exact @ expm(-1j * _fock_quadratic(mat) * t / 2)
    phases = np.sort(np.angle(np.linalg.eigvals(exact)))
    # Fock eigenvalues are exp(-i t lambda.x) over all occupation subsets
    modes = eff.eigenmodes
    subset_sums = [
        sum(modes[q] for q in range(n) if (b >> q) & 1) for b in range(1 << n)
    ]
    expected = np.sort(np.angle(np.exp(-1j * t * np.array(subset_sums))))
    assert np.allclose(phases, expected, atol=1e-8)


def test_halffilling_norm_equals_half_trace_norm():
    rng = np.random.default_rng(4)
    n = 6
    mats = [_random_bipartite_hopping(rng, n), _random_bipartite_hopping(rng, n)]
    secs = _sections_from_matrices(mats, n)
    eff = effective_kinetic(secs, 0.1)
    per_spin = float(eff.eigenmodes[: n // 2].sum())
    trace_half = float(np.abs(eff.eigenmodes).sum()) / 2
    assert abs(per_spin - trace_half) < 1e-10


def test_partition_validation():
    lat = build_lattice("acene", 1)
    bonds = [sorted(b) for b in lat.bonds]
    base = {"family": "acene", "size_n": 1}
    missing = dict(base, sections=[
        {"name": "a", "bonds": bonds[:-1], "rotations": 5, "t_gates": 10}])
    with pytest.raises(ValueError):
        tile_sections(lat, missing)
    doubled = dict(base, sections=[
        {"name": "a", "bonds": bonds, "rotations": 6, "t_gates": 12},
        {"name": "b", "bonds": bonds[:1], "rotations": 1, "t_gates": 2}])
    with pytest.raises(ValueError):
        tile_sections(lat, doubled)
    alien = dict(base, sections=[
        {"name": "a", "bonds": bonds[:-1] + [[0, 3]], "rotations": 6, "t_gates": 12}])
    with pytest.raises(ValueError):
        tile_sections(lat, alien)


def test_tile_sections_accepts_a_path_object():
    lat = build_lattice("acene", 3)
    path = tiling_path("acene", 3)
    got, want = tile_sections(lat, Path(path)), tile_sections(lat, path)
    assert (got.n_modes, got.names, got.rotations, got.t_gates) == (
        want.n_modes, want.names, want.rotations, want.t_gates)
    assert len(got.matrices) == len(want.matrices)
    assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices))


@pytest.mark.parametrize("family,n", sorted(TABLE_GATE_COUNTS))
def test_shipped_tilings_match_table_counts(family, n):
    lat = build_lattice(family, n)
    secs = tile_sections(lat, tiling_path(family, n))
    assert secs.gate_counts() == TABLE_GATE_COUNTS[(family, n)]
    # the sections partition the hopping matrix exactly
    full = full_matrix(single_section(lat))
    assert np.abs(full_matrix(secs) - full).max() < 1e-12


def test_worst_case_tile_ratio_3acene():
    lat = build_lattice("acene", 3)
    secs = tile_sections(lat, tiling_path("acene", 3))
    w = worst_case_kinetic(secs)
    assert w.value > 0
    # ratio of tile to split-operator worst case stays close to one
    w_so = 2665.0 / 24 + 2684.0 / 12
    assert 1.0 <= 1.0 + w.value / w_so <= 1.3


def test_average_below_worst_and_seeded():
    lat = build_lattice("acene", 3)
    secs = tile_sections(lat, tiling_path("acene", 3))
    assert average_case_kinetic(secs) == average_case_kinetic(secs)
    for family, n in sorted(TABLE_GATE_COUNTS):
        secs = tile_sections(build_lattice(family, n), tiling_path(family, n))
        assert average_case_kinetic(secs).value <= worst_case_kinetic(secs).value


def _exhaustive_mean_square(modes, filling):
    """Mean of (sum_{S_up} modes + sum_{S_down} modes)^2 over every joint
    occupation (S_up, S_down) at the given per-spin filling."""
    up, down = (
        np.array([modes[list(occ)].sum() for occ in combinations(range(len(modes)), k)])
        for k in filling
    )
    total = sum(
        float(((block[:, None] + down[None, :]) ** 2).sum())
        for block in np.array_split(up, -(-len(up) // 256))
    )
    return total / (len(up) * len(down))


def test_average_case_matches_exhaustive_mean():
    """A_T^2 = <T_2^2> equals the mean over every joint occupation."""
    lat = build_lattice("acene", 1)
    full = full_matrix(single_section(lat))
    m1 = np.zeros_like(full)
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        m1[i, j] = m1[j, i] = full[i, j]
    cases = [_sections_from_matrices([m1, full - m1], 6)]
    for family, n in (("acene", 3), ("triangulene", 2)):
        cases.append(tile_sections(build_lattice(family, n), tiling_path(family, n)))
    for secs in cases:
        modes = np.linalg.eigvalsh(second_order_matrix(secs))
        want = _exhaustive_mean_square(modes, half_filling(secs.n_modes))
        assert want > 0
        assert average_case_kinetic(secs).value ** 2 == pytest.approx(want, rel=1e-12, abs=0)


def _shipped_sections():
    return [tile_sections(build_lattice(family, n), tiling_path(family, n))
            for family, n in sorted(TABLE_GATE_COUNTS)]


def test_second_order_matrix_is_the_small_t_limit():
    """The spectrum of A_delta(t)/t^2 tends to that of A_2 at O(t^2).

    The matrices differ at O(t), by a rotation (it/2)[A, A_2], so only
    the spectra are compared.
    """
    for secs in _shipped_sections():
        limit = np.linalg.eigvalsh(second_order_matrix(secs))
        scale = np.abs(limit).max()
        gaps = [np.abs(np.sort(effective_kinetic(secs, t).eigenmodes) / t**2 - limit).max()
                / scale for t in (0.01, 0.005)]
        assert gaps[1] <= 1e-4
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


def test_second_order_matrix_is_traceless_with_symmetric_spectrum():
    for secs in _shipped_sections():
        a2 = second_order_matrix(secs)
        modes = np.linalg.eigvalsh(a2)
        assert np.abs(modes + modes[::-1]).max() <= 1e-12 * np.abs(modes).max()
        assert np.trace(a2) == 0.0


def test_branch_guard_rejects_large_t():
    rng = np.random.default_rng(5)
    n = 4
    mats = [10 * _random_hopping(rng, n), 10 * _random_hopping(rng, n)]
    secs = _sections_from_matrices(mats, n)
    with pytest.raises(ValueError):
        effective_kinetic(secs, 5.0)


def test_default_filling():
    """The one half-filling rule: n electrons on n sites, the odd one up."""
    assert half_filling(14) == (7, 7) and half_filling_sz_twice(14) == 0
    assert half_filling(13) == (7, 6) and half_filling_sz_twice(13) == 1
