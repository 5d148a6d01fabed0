"""Kinetic-operator splitting errors via the single-particle reduction.

The hopping operator T conserves spin, so everything here works on the
n x n single-particle matrix A per spin species (T = sum_ij A_ij a_i^+ a_j
with zero diagonal).  The second-order sectioned propagator

    U_T = prod_s exp(-i T_s t/2) prod_rev exp(-i T_s t/2)

differs from exp(-i T t) by exp(-i T_delta t); the effective matrix
A_delta = (i/t) log(exp(iAt) prod exp(-iA_s t/2) prod_rev exp(-iA_s t/2))
gives the exact splitting error on the Fock space, because the map from
matrices to quadratic operators preserves commutators and therefore the
whole BCH series.  A_delta = t^2 A_2 + O(t^3), and the constants are the
exact t -> 0 limits taken from A_2 (``second_order_matrix``), a few nested
commutators of the section matrices: the worst-case W_T is the largest
fixed-filling eigenvalue sum of A_2, the average-case A_T the root mean
square of T_2 over the normalised fixed-filling trace, a closed form in
||A_2||_F.
"""

import json
from dataclasses import dataclass

import numpy as np

from .hamiltonian import hopping_matrix
from .norms import ErrorConstant
from .sector import half_filling


@dataclass(frozen=True)
class KineticSections:
    """Partition of the hopping matrix into section matrices A_s.

    The last section sits at the center of the symmetric product and is
    applied once per Trotter step; every other section is applied twice.
    Gate counts are per application of one spin species.
    """

    n_modes: int
    matrices: tuple
    names: tuple
    rotations: tuple
    t_gates: tuple

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValueError("at least one section is required")
        for name, mat in zip(self.names, self.matrices):
            if mat.shape != (self.n_modes, self.n_modes):
                raise ValueError("section %r has wrong shape" % name)
            if np.abs(np.diag(mat)).max(initial=0.0) > 0:
                raise ValueError("section %r has nonzero diagonal" % name)
            if np.abs(mat - mat.T).max() > 1e-12:
                raise ValueError("section %r is not symmetric" % name)

    @property
    def n_sections(self):
        return len(self.matrices)

    def gate_counts(self):
        """(rotations, T gates) per Trotter step of U_T, both spins."""
        n_rot = 0
        n_t = 0
        for s in range(self.n_sections):
            mult = 1 if s == self.n_sections - 1 else 2
            n_rot += mult * self.rotations[s]
            n_t += mult * self.t_gates[s]
        return 2 * n_rot, 2 * n_t


def single_section(lattice):
    """The trivial S=1 sectioning: one section holding all of T."""
    n_bonds = len(lattice.bonds)
    return KineticSections(
        n_modes=lattice.n_sites,
        matrices=(hopping_matrix(lattice.n_sites, lattice.bonds),),
        names=("all",),
        rotations=(n_bonds,),
        t_gates=(2 * n_bonds,),
    )


def tiling_path(family, size_n):
    """Path to the shipped tiling file for a supported molecule."""
    from importlib.resources import files

    resource = files("trotterlab") / "tilings" / ("%s%d.json" % (family, size_n))
    if not resource.is_file():
        raise ValueError("no shipped tiling for %s-%d" % (family, size_n))
    return str(resource)


def load_tiling(path):
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("tiling spec must be a JSON object")
    for key in ("family", "size_n", "sections"):
        if key not in spec:
            raise ValueError("tiling spec missing field %r" % key)
    return spec


def _integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_section(section):
    """``ValueError`` unless a tiling section has a string name, bonds that
    are a list of integer pairs, and non-negative integer gate counts."""
    if not isinstance(section, dict) or not isinstance(section.get("name"), str):
        raise ValueError("tiling section %r has no string name" % (section,))
    bonds = section.get("bonds")
    if not (isinstance(bonds, list) and all(isinstance(b, (list, tuple)) and len(b) == 2
                                            and all(map(_integer, b)) for b in bonds)):
        raise ValueError("tiling section %r: bonds must be a list of integer pairs"
                         % section["name"])
    for key in ("rotations", "t_gates"):
        if not (_integer(section.get(key)) and section[key] >= 0):
            raise ValueError("tiling section %r: %s must be a non-negative integer"
                             % (section["name"], key))


def tile_sections(lattice, tiling_spec):
    """Build KineticSections from a tiling spec: a dict, or the path of a JSON
    file (``str``, ``bytes`` or ``os.PathLike``) read by ``load_tiling``."""
    if not isinstance(tiling_spec, dict):
        tiling_spec = load_tiling(tiling_spec)
    if tiling_spec["family"] != lattice.family or tiling_spec["size_n"] != lattice.size_n:
        raise ValueError(
            "tiling spec is for %s-%d, lattice is %s-%d"
            % (tiling_spec["family"], tiling_spec["size_n"], lattice.family, lattice.size_n)
        )
    bond_set = {tuple(sorted(b)) for b in lattice.bonds}
    seen = set()
    matrices, names, rotations, t_gates = [], [], [], []
    if not isinstance(tiling_spec["sections"], list):
        raise ValueError("tiling sections must be a list")
    for section in tiling_spec["sections"]:
        _check_section(section)
        for raw in section["bonds"]:
            bond = tuple(sorted(raw))
            if bond not in bond_set:
                raise ValueError("tiling bond %s is not a lattice bond" % (bond,))
            if bond in seen:
                raise ValueError("tiling bond %s assigned twice" % (bond,))
            seen.add(bond)
        matrices.append(hopping_matrix(lattice.n_sites, section["bonds"]))
        names.append(section["name"])
        rotations.append(section["rotations"])
        t_gates.append(section["t_gates"])
    missing = bond_set - seen
    if missing:
        raise ValueError("tiling leaves %d bonds uncovered" % len(missing))
    return KineticSections(
        n_modes=lattice.n_sites,
        matrices=tuple(matrices),
        names=tuple(names),
        rotations=tuple(rotations),
        t_gates=tuple(t_gates),
    )


def second_order_matrix(sections):
    """The n x n matrix A_2 of the t^2 term: A_delta(t) = t^2 A_2 + O(t^3).

    The symmetric product nests each outer section a around the block b of
    every section inside it, innermost first, starting from the centre; each
    nesting adds [a,[a,b]]/24 + [b,[a,b]]/12 (Childs, Su, Tran, Wiebe & Zhu,
    PRX 11, 011020 (2021)).  The section matrices are real symmetric, so A_2
    is too.
    """
    b = sections.matrices[-1].copy()
    a2 = np.zeros_like(b)
    for a in reversed(sections.matrices[:-1]):
        ab = a @ b - b @ a
        a2 += (a @ ab - ab @ a) / 24 + (b @ ab - ab @ b) / 12
        b += a
    return a2


# Both limits below rest on two exact properties of A_2.  tr A_2 = 0, as for
# any sum of commutators, so T_2 has zero mean at every filling.  Every
# section hops between the two sublattices of a bipartite lattice, so the
# sublattice sign flip S gives S A_s S = -A_s and, three matrices per term,
# S A_2 S = -A_2: the spectrum is symmetric about zero, and the sum of the k
# largest eigenvalues is the largest |eigenvalue sum| at filling k, the norm.


def worst_case_kinetic(sections):
    """W_T at half filling: the largest fixed-filling eigenvalue sum of A_2,
    summed over the spin species (the t -> 0 limit of
    |1 - exp(-i ||T_delta|| t)| / t^3)."""
    modes = np.sort(np.linalg.eigvalsh(second_order_matrix(sections)))[::-1]
    value = sum(float(modes[:k].sum()) for k in half_filling(sections.n_modes))
    return ErrorConstant(kind="worst", scheme="kinetic", value=value,
                         provenance={"method": "top-filling eigenmode sum of A_2"})


def average_case_kinetic(sections):
    """A_T at half filling: sqrt<T_2^2> over the normalised fixed-filling
    trace, with T_2 the one-body operator of A_2 on both spin species.

    Over the k-subsets of n modes, <n_m> = k/n and <n_m n_m'> = k(k-1)/(n(n-1))
    for m != m'; with tr A_2 = 0 this leaves ||A_2||_F^2 k(n-k)/(n(n-1)) per
    species, and the species are independent with zero mean each.
    """
    n = sections.n_modes
    share = sum(k * (n - k) for k in half_filling(n)) / (n * (n - 1))
    value = float(np.linalg.norm(second_order_matrix(sections)) * np.sqrt(share))
    return ErrorConstant(kind="average", scheme="kinetic", value=value,
                         provenance={"method": "fixed-filling trace of T_2^2"})
