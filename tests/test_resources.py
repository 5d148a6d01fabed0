from math import ceil, pi, sqrt

import numpy as np
import pytest

from trotterlab.hamiltonian import shifted_potential
from trotterlab.lattice import build_lattice
from trotterlab.resources import (
    CostParams,
    PerStepGates,
    extrapolated_energy_constant,
    hwp_estimate,
    hwp_kinetic_rotations,
    hwp_potential_rotations,
    implied_timestep,
    rotation_groups,
    rotation_t_cost,
    steps_fixed_error,
    steps_fixed_timestep,
    t_gates_per_step,
    total_cost,
)

TABLE_PER_STEP = {
    ("acene", 3): (290, 52, 104),
    ("acene", 5): (794, 84, 168),
    ("acene", 7): (1554, 116, 232),
    ("acene", 9): (2570, 148, 296),
    ("acene", 13): (5370, 212, 424),
    ("rhombene", 2): (384, 64, 112),
    ("rhombene", 3): (1522, 124, 248),
    ("rhombene", 4): (4128, 208, 400),
    ("rhombene", 5): (8994, 308, 616),
    ("triangulene", 2): (241, 52, 88),
    ("triangulene", 3): (778, 92, 168),
    ("triangulene", 4): (1869, 136, 272),
    ("triangulene", 5): (3778, 192, 384),
}


def test_steps_fixed_error_formula():
    g, eps, x = 334.71, 0.04354, 0.02
    raw = 6.203 * sqrt(g) / ((1 - x) ** 1.5 * eps**1.5)
    assert steps_fixed_error(g, eps, x) == ceil(raw) == 12876
    assert steps_fixed_error(0.0) == 1
    # sqrt law: quadrupling G doubles the count (within ceil)
    assert abs(steps_fixed_error(4 * g, eps, x) - 2 * steps_fixed_error(g, eps, x)) <= 1


def test_steps_fixed_timestep_formula():
    assert steps_fixed_timestep(0.1) == 840
    raw = 2.28 * pi / (2 * 0.98 * 0.04354 * 0.1)
    assert steps_fixed_timestep(0.1) == ceil(raw)
    assert abs(steps_fixed_timestep(0.2) - 420) <= 1


def test_mode_consistency():
    g = 334.71
    t = implied_timestep(g)
    assert abs(steps_fixed_timestep(t) - steps_fixed_error(g)) <= 1


def test_params_validation():
    ps = PerStepGates(10, 4)
    with pytest.raises(ValueError):
        CostParams(per_step=ps, n_sites=6, x=0.0, mode="fixed_timestep", time_step=0.1)
    with pytest.raises(ValueError):
        CostParams(per_step=ps, n_sites=6, mode="fixed_error", time_step=0.1)
    with pytest.raises(ValueError):
        CostParams(per_step=ps, n_sites=6, mode="fixed_error", constant=0.0)
    with pytest.raises(ValueError):
        CostParams(per_step=ps, n_sites=6, mode="fixed_timestep", constant=1.0)
    with pytest.raises(ValueError):
        CostParams(per_step=ps, n_sites=6, mode="bad", time_step=0.1)
    with pytest.raises(ValueError):
        PerStepGates(-1, 0)


def test_t_gates_per_step_gap_mode():
    p = CostParams(per_step=PerStepGates(342, 104), n_sites=14,
                   mode="fixed_timestep", time_step=0.1)
    n_r = 342
    arg = n_r / (0.02 * 0.04354 * 0.1)
    want = ceil(n_r * rotation_t_cost(arg) + 104)
    assert t_gates_per_step(p) == want
    assert 1.1e4 < want < 1.3e4
    zero = CostParams(per_step=PerStepGates(0, 104), n_sites=14,
                      mode="fixed_timestep", time_step=0.1)
    assert t_gates_per_step(zero) == 104


def test_total_cost_identities():
    p = CostParams(per_step=PerStepGates(342, 104), n_sites=14,
                   mode="fixed_timestep", time_step=0.1)
    single = total_cost(p)
    gap = total_cost(p, gap=True)
    assert single.total_t == single.n_steps * single.t_per_step_gates
    assert gap.total_t == 2 * single.total_t
    assert single.total_toffoli == ceil(single.total_t / 2)
    assert single.logical_qubits == 2 * 14 + 2
    assert abs(single.total_t - 1.0e7) / 1.0e7 < 0.01


def test_monotonicity():
    def cost(eps=0.04354, t=0.1, nr=342):
        p = CostParams(per_step=PerStepGates(nr, 104), n_sites=14,
                       epsilon=eps, mode="fixed_timestep", time_step=t)
        return total_cost(p).total_t

    assert cost(eps=0.02) >= cost(eps=0.04354)
    assert cost(t=0.05) >= cost(t=0.1)
    assert cost(nr=400) >= cost(nr=342)


def test_worst_case_mode_much_costlier():
    gap = CostParams(per_step=PerStepGates(342, 104), n_sites=14,
                     mode="fixed_timestep", time_step=0.1)
    worst = CostParams(per_step=PerStepGates(342, 104), n_sites=14,
                       mode="fixed_error", constant=334.71)
    assert total_cost(worst).total_t >= 5 * total_cost(gap).total_t


@pytest.mark.parametrize("family,n", sorted(TABLE_PER_STEP))
def test_shifted_potential_rotation_counts(family, n):
    if (family, n) in (("acene", 13), ("rhombene", 5), ("rhombene", 4),
                       ("triangulene", 5)):
        pytest.skip("covered by the acceptance table test; avoid double cost")
    lat = build_lattice(family, n)
    v_shifted, _, _, _ = shifted_potential(lat)
    n_terms = sum(1 for (x, z), c in v_shifted.terms.items() if z != 0)
    assert n_terms == TABLE_PER_STEP[(family, n)][0]


def test_rotation_groups_benzene():
    lat = build_lattice("acene", 1)
    v_shifted, _, _, _ = shifted_potential(lat)
    groups = rotation_groups(v_shifted)
    assert sum(size for size, _ in groups) == sum(
        1 for (x, z), c in v_shifted.terms.items() if z != 0
    )
    for size, max_occ in groups:
        assert 1 <= max_occ <= size


def test_hwp_reduces_rotations_never_below_batches():
    lat = build_lattice("triangulene", 2)
    v_shifted, _, _, _ = shifted_potential(lat)
    rot, tof = hwp_potential_rotations(v_shifted)
    full = sum(1 for (x, z), c in v_shifted.terms.items() if z != 0)
    assert rot < full
    assert rot + tof == full  # each folded rotation costs one Toffoli


def _rotation_groups_by_loop(potential, rel_tol):
    """Reference: greedy binning of the sorted coefficients, one group at a time."""
    entries = sorted((float(np.real(complex(c))), z)
                     for (x, z), c in potential.terms.items() if z != 0)
    scale = max(abs(c) for c, _ in entries)
    reps, groups = [], {}
    for c, z in entries:
        for r in reps:
            if abs(c - r) <= rel_tol * scale:
                groups[r].append(z)
                break
        else:
            reps.append(c)
            groups[c] = [z]
    out = []
    for zs in groups.values():
        occ = {}
        for z in zs:
            for q in range(z.bit_length()):
                if z >> q & 1:
                    occ[q] = occ.get(q, 0) + 1
        out.append((len(zs), max(occ.values())))
    return out


@pytest.mark.parametrize("family,n", [("acene", 1), ("triangulene", 2),
                                      ("rhombene", 3), ("acene", 7)])
def test_rotation_groups_match_loop(family, n):
    lat = build_lattice(family, n)
    v_shifted, _, _, v = shifted_potential(lat)
    for op in (v_shifted, v):
        for rel_tol in (1e-9, 1e-2):
            assert rotation_groups(op, rel_tol) == _rotation_groups_by_loop(op, rel_tol)


def test_hwp_kinetic_one_rotation_per_section():
    from trotterlab.freefermion import tile_sections, tiling_path

    lat = build_lattice("acene", 3)
    secs = tile_sections(lat, tiling_path("acene", 3))
    rot, tof = hwp_kinetic_rotations(secs)
    assert rot == 2 * (2 * (secs.n_sections - 1) + 1)
    assert rot + tof == secs.gate_counts()[0]


def test_hwp_estimate_report():
    lat = build_lattice("triangulene", 2)
    v_shifted, _, _, _ = shifted_potential(lat)
    n_v = sum(1 for (x, z), c in v_shifted.terms.items() if z != 0)
    p = CostParams(per_step=PerStepGates(n_v + 52, 88), n_sites=lat.n_sites,
                   mode="fixed_timestep", time_step=0.1)
    base = total_cost(p, gap=True)
    from trotterlab.freefermion import tile_sections, tiling_path

    secs = tile_sections(lat, tiling_path("triangulene", 2))
    rep = hwp_estimate(p, v_shifted, secs, gap=True)
    assert rep.hwp["rotations_per_step"] < p.per_step.n_rotations
    assert rep.total_toffoli < base.total_toffoli
    assert rep.logical_qubits == 2 * lat.n_sites + 1 + (lat.n_sites - 1) + 1
    assert rep.n_steps == base.n_steps


def test_extrapolated_energy_constant():
    assert extrapolated_energy_constant("SO", 10) == pytest.approx(1.34 * 10**1.008)
    assert extrapolated_energy_constant("tile", 10) == pytest.approx(1.49 * 10**1.066)
    with pytest.raises(ValueError):
        extrapolated_energy_constant("other", 10)
