"""Per-step gate counts and phase-estimation cost totals as CSV.

Builds the shifted potential and shipped kinetic tiling of every
supported molecule, then prints gap-mode cost estimates with and without
Hamming weight phasing.
"""

import argparse

from trotterlab import (
    CHEMICAL_ACCURACY,
    CostParams,
    PerStepGates,
    build_lattice,
    hwp_estimate,
    shifted_potential,
    tile_sections,
    tiling_path,
    total_cost,
)

MOLECULES = [
    ("acene", 3), ("acene", 5), ("acene", 7), ("acene", 9), ("acene", 13),
    ("rhombene", 2), ("rhombene", 3), ("rhombene", 4), ("rhombene", 5),
    ("triangulene", 2), ("triangulene", 3), ("triangulene", 4),
    ("triangulene", 5),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=0.1, help="time step, 1/eV")
    parser.add_argument("--epsilon", type=float, default=CHEMICAL_ACCURACY)
    args = parser.parse_args()

    print("molecule,sites,n_r_v,n_r_t,n_t_t,n_steps,total_toffoli,hwp_toffoli,hwp_qubits")
    for family, n in MOLECULES:
        lat = build_lattice(family, n)
        v_shifted, _, _, _ = shifted_potential(lat)
        n_r_v = v_shifted.term_count()
        secs = tile_sections(lat, tiling_path(family, n))
        rot, tg = secs.gate_counts()
        params = CostParams(
            per_step=PerStepGates(n_r_v + rot, tg),
            n_sites=lat.n_sites,
            epsilon=args.epsilon,
            mode="fixed_timestep",
            time_step=args.t,
        )
        base = total_cost(params, gap=True)
        hwp = hwp_estimate(params, v_shifted, secs, gap=True)
        print("%s%d,%d,%d,%d,%d,%d,%d,%d,%d" % (
            family, n, lat.n_sites, n_r_v, rot, tg, base.n_steps,
            base.total_toffoli, hwp.total_toffoli, hwp.logical_qubits))


if __name__ == "__main__":
    main()
