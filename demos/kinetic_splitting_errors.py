"""Worst- and average-case splitting errors of the tiled kinetic operator.

Uses the single-particle reduction: the exact splitting error of the
sectioned hopping propagator lives on an n x n matrix, so even large
molecules cost only small dense linear algebra.  Both constants are the
exact t -> 0 limits, taken from the t^2 term of that matrix.
"""

import argparse

from trotterlab import (
    average_case_kinetic,
    build_lattice,
    tile_sections,
    tiling_path,
    worst_case_kinetic,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="acene",
                        choices=("acene", "rhombene", "triangulene"))
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args()

    lat = build_lattice(args.family, args.n)
    secs = tile_sections(lat, tiling_path(args.family, args.n))
    rot, tg = secs.gate_counts()
    print("%s-%d: %d sites, %d sections, %d rotations + %d T gates per step"
          % (args.family, args.n, lat.n_sites, secs.n_sections, rot, tg))

    print("worst case W_T = %.4f eV^3" % worst_case_kinetic(secs).value)
    print("average case A_T = %.4f eV^3" % average_case_kinetic(secs).value)


if __name__ == "__main__":
    main()
