"""Energy-error correlation study on benzene.

Diagonalizes the exact and effective Hamiltonians on the half-filling
S_z = 0 sector, pairs eigenstates by overlap, and prints the signed
per-state error constants together with their correlation against energy.
"""

import argparse

import numpy as np

from trotterlab import (
    SectorOperator,
    build_lattice,
    build_ppp,
    effective_spectrum_dense,
    half_filling_sector,
    jordan_wigner,
    pair_eigenstates,
    so_scheme,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=0.01, help="time step, 1/eV")
    parser.add_argument("--show", type=int, default=10, help="states to print")
    args = parser.parse_args()

    lat = build_lattice("acene", 1)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis = half_filling_sector(lat.n_sites)
    h_mat = SectorOperator(kin + pot, basis).to_dense()
    vals, vecs = np.linalg.eigh(h_mat)
    eff_vals, eff_vecs = effective_spectrum_dense(so_scheme(kin, pot, args.t), basis)
    matches = pair_eigenstates(vecs, eff_vecs)
    consts = np.array(
        [(eff_vals[n] - vals[m]) / args.t**2 for m, n, _, _ in matches]
    )

    print("m, E_m (eV), signed constant (eV^3)")
    for m in range(args.show):
        print("%d, %.6f, %.4f" % (m, vals[m], consts[m]))
    r = np.corrcoef(vals, consts)[0, 1]
    print("states: %d" % basis.dim)
    print("Pearson r(E_m, constant): %.4f" % r)
    print("sector trace difference: %.3e" % (eff_vals.sum() - vals.sum()))


if __name__ == "__main__":
    main()
