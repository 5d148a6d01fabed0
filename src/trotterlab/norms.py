"""Worst-case and average-case Trotter error constants.

Second-order split-operator constants come from the two nested commutators

    O_VTV = [[V, T], V],      O_VTT = [[V, T], T],

via W_SO = |O_VTV|/24 + |O_VTT|/12 with the spectral norm, and A_SO with
normalized sector Frobenius norms instead.

The spectral norm is upper-bounded by the largest eigenvalue of the
element-wise absolute matrix |O| (Childs et al., PRX 11, 011020 (2021)):
dense below ``DENSE_DIM_LIMIT``, by Lanczos above.  For a Pauli
sum, |O| comes from ``SectorOperator.abs_matvec``.  The Frobenius norm over
the sector (divided by sqrt(dim)) is estimated by sampling uniform basis
states i and averaging |O |i>|²; a sampled index gives its state from its
(up, down) pair (``SectorBasis.states_at``), so sampling never lists the
sector and runs where the sector is too large to list (2.4e9 states at
4-acene).

Because V is diagonal (matrix D) and T is a hopping operator, the
commutators have closed-form matrix elements,

    O_VTV[r, c] = -(D_r - D_c)² T[r, c],
    O_VTT[r, c] = sum_k T[r, k] T[k, c] (D_r - 2 D_k + D_c),

which ``HoppingCommutatorAction`` uses for molecules whose Pauli-level
commutators would be too large.  Three of its four actions are products of
T (a ``SectorOperator``, matrix-free at any size) or |T| with D:

    O_VTV  = -(D² T - 2 D T D + T D²),
    |O_VTV| = D² |T| - 2 D |T| D + |T| D²,
    O_VTT  = D T² - 2 T D T + T² D.

|O_VTT| has no such form, since paths through different intermediates k
cancel before the absolute value is taken; it is the one operator assembled
as a CSR matrix, once, from T's.  Sampled column norms work per basis state
from the hop groups and never touch a sector-size matrix.  They need only
the differences D(b ^ x) - D(b) between each sampled state b and the states
a hop, or a pair of hops, reaches from it.  D is a quadratic form in the
occupation signs s_q = 1 - 2 b_q (``sector._DiagonalForm``), so such a
difference follows from the flipped bits of x alone:
``_DiagonalForm.flip_differences`` takes s and the gradient of the form once
per batch of states, then each mask costs O(|x|²) per state, and D itself is
never formed.  A hop's amplitude at a midpoint b ^ x2 comes from the values
of its terms at b (``sector._term_values``), each negated when the term
overlaps x2 in an odd number of bits.

Pauli-level column norms (``column_norms_squared``) sum the same term values
per X-mask group of ``sector._group_terms``, whose coefficient dtype already
says whether the group is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .pauli import PauliSum, commutator
from .sector import (
    DENSE_DIM_LIMIT,
    SectorBasis,
    SectorOperator,
    _COLUMN_BLOCK,
    _DiagonalForm,
    _column_sums,
    _group_terms,
    _NO_TERMS,
    _popcount,
    _term_values,
)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    standard_error: float
    kind: str  # spectral_bound | frobenius_sampled | frobenius_exact | dense_exact
    sample_count: int = 0
    rng_seed: int | None = None
    converged: bool = True

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")


@dataclass(frozen=True)
class ErrorConstant:
    kind: str  # "worst" | "average"
    scheme: str  # "SO" | "tile" | "kinetic"
    value: float
    provenance: dict = field(default_factory=dict)


def nested_commutators(t_op: PauliSum, v_op: PauliSum) -> tuple[PauliSum, PauliSum]:
    """(O_VTV, O_VTT) as Hermitian Pauli sums."""
    if t_op.n_qubits != v_op.n_qubits:
        raise ValueError("qubit count mismatch")
    b = commutator(v_op, t_op)
    o_vtv = commutator(b, v_op).require_real("O_VTV")
    o_vtt = commutator(b, t_op).require_real("O_VTT")
    return o_vtv, o_vtt


# -- column machinery ---------------------------------------------------------


def column_norms_squared(op: PauliSum, basis: SectorBasis, states: np.ndarray) -> np.ndarray:
    """|O |b>|² for each packed state b, vectorized over states.

    Terms sharing an X-mask scatter to the same target, and different
    X-masks scatter to orthogonal targets, so the norm splits per group.
    States go in blocks of ``_COLUMN_BLOCK``, so one group's (terms x states)
    values stay block-sized; each state adds its terms in term order
    (``sector._column_sums``), so its norm is the same in any block or batch.
    """
    groups = _group_terms(op).values()
    out = np.zeros(len(states))
    for start in range(0, len(states), _COLUMN_BLOCK):
        block = states[start:start + _COLUMN_BLOCK]
        for group in groups:
            out[start:start + len(block)] += np.abs(_column_sums(_term_values(block, group))) ** 2
    return out


# identity columns per ``abs_matvec`` call on the dense route of
# ``spectral_norm_bound``: a block of (dim x 512) floats, 20 MB at
# DENSE_DIM_LIMIT, bounds the temporaries of one block action
_BOUND_BLOCK = 512


# relative tolerance of the Lanczos top eigenvalue of an absolute matrix
_BOUND_RTOL = 1e-6


def _largest_eigenvalue(matvec, dim: int):
    """(largest eigenvalue, converged) of a symmetric nonnegative matrix given
    by its action: Lanczos (``eigsh``) with 8 basis vectors from a fixed
    start, to ``_BOUND_RTOL``.

    Not the power method: the top of an absolute commutator's spectrum
    clusters (at 3-acene |O_VTV| has 2665.18 twice and 2663.98 twice), and
    below such a cluster the power method stops, at a 1e-4 rule, anywhere
    from 2589 to 2656 depending on its start vector.  Lanczos reaches
    2665.17 there in 25 matvecs.  With 4 basis vectors ARPACK misses the
    top of benzene's |O_VTV| in 3000 restarts.
    """
    v0 = np.random.default_rng(12345).random(dim) + 0.1
    if not np.any(matvec(v0)):  # a nonnegative matrix that kills v0 > 0 is 0
        return 0.0, True
    lo = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    try:
        vals = eigsh(lo, k=1, which="LA", tol=_BOUND_RTOL, ncv=8, v0=v0, maxiter=3000,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        found = exc.eigenvalues
        return (float(found.max()) if found.size else float("nan")), False
    return float(vals[0]), True


def spectral_norm_bound(op, basis: SectorBasis) -> NormEstimate:
    """|O| <= |abs(O)| via the largest eigenvalue of the absolute matrix.

    ``op`` is a PauliSum, a SectorOperator, or any object with an
    ``abs_matvec`` method that takes a vector or a (dim, m) block of columns.
    Up to ``DENSE_DIM_LIMIT`` the absolute matrix is built densely from the
    action on the identity's columns, ``_BOUND_BLOCK`` columns per call, and
    its top eigenvalue taken exactly; above it, by Lanczos.
    """
    if isinstance(op, PauliSum):
        op = SectorOperator(op, basis)
    action = op.abs_matvec
    dim = basis.dim
    if dim <= DENSE_DIM_LIMIT:
        mat = np.empty((dim, dim))
        for start in range(0, dim, _BOUND_BLOCK):
            width = min(_BOUND_BLOCK, dim - start)
            mat[:, start:start + width] = action(np.eye(dim, width, -start))
        val = float(np.linalg.eigvalsh(mat)[-1])
        return NormEstimate(val, 0.0, "spectral_bound")
    val, ok = _largest_eigenvalue(action, basis.dim)
    return NormEstimate(float(val), 0.0, "spectral_bound", converged=ok)


def dense_spectral_norm(op: PauliSum, basis: SectorBasis) -> NormEstimate:
    basis.require_whole_sector("dense_spectral_norm")
    mat = SectorOperator(op, basis).to_dense()
    val = float(np.abs(np.linalg.eigvalsh(mat)).max())
    return NormEstimate(val, 0.0, "dense_exact")


def frobenius_sampled(op, basis: SectorBasis, samples: int = 10_000,
                      seed: int = 0) -> NormEstimate:
    """|O|_F / sqrt(d) over the sector, by uniform basis-state sampling.

    ``op`` is a PauliSum or any object with ``column_norm_sq(states)``.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, basis.dim, size=samples)
    states = basis.states_at(idx)
    if isinstance(op, PauliSum):
        sq = column_norms_squared(op, basis, states)
    else:
        sq = op.column_norm_sq(states)
    mean = float(np.mean(sq))
    var = float(np.var(sq, ddof=1))
    se_mean = np.sqrt(var / samples)
    value = np.sqrt(mean)
    se = 0.0 if value == 0 else se_mean / (2.0 * value)  # delta method
    return NormEstimate(float(value), float(se), "frobenius_sampled",
                        sample_count=samples, rng_seed=seed)


def frobenius_exact(op, basis: SectorBasis) -> NormEstimate:
    """Exact |O|_F / sqrt(d) by full enumeration (small sectors)."""
    if isinstance(op, PauliSum):
        sq = column_norms_squared(op, basis, basis.states)
    else:
        sq = op.column_norm_sq(basis.states)
    return NormEstimate(float(np.sqrt(np.mean(sq))), 0.0, "frobenius_exact",
                        sample_count=basis.dim)


# -- error constants ----------------------------------------------------------


def worst_case_constant(norm_vtv: NormEstimate, norm_vtt: NormEstimate) -> ErrorConstant:
    value = norm_vtv.value / 24.0 + norm_vtt.value / 12.0
    return ErrorConstant("worst", "SO", value,
                         {"vtv": norm_vtv, "vtt": norm_vtt})


def average_case_constant(frob_vtv: NormEstimate, frob_vtt: NormEstimate) -> ErrorConstant:
    value = frob_vtv.value / 24.0 + frob_vtt.value / 12.0
    return ErrorConstant("average", "SO", value,
                         {"vtv": frob_vtv, "vtt": frob_vtt})


def tile_constant(so: ErrorConstant, kinetic: ErrorConstant) -> ErrorConstant:
    """Upper bound for the tile formula: SO constant plus the kinetic part."""
    if so.kind != kinetic.kind:
        raise ValueError(f"kind mismatch: {so.kind} vs {kinetic.kind}")
    return ErrorConstant(so.kind, "tile", so.value + kinetic.value,
                         {"so": so, "kinetic": kinetic})


# -- fast structured path -----------------------------------------------------


class HoppingCommutatorAction:
    """Nested-commutator actions using the diagonal-V structure.

    Needs the kinetic Pauli sum (pure hopping) and any diagonal potential
    whose sector diagonal differs from V's by a constant (the shifted V'
    qualifies, since the commutators are shift-invariant).  Nothing
    sector-sized is built on construction: T's spin layout on the first
    matvec, the |O_VTT| matrix on the first ``vtt_abs_matvec``.
    """

    def __init__(self, kinetic: PauliSum, potential: PauliSum, basis: SectorBasis):
        if not potential.is_diagonal():
            raise ValueError("potential must be diagonal")
        basis.require_whole_sector("HoppingCommutatorAction")
        self.basis = basis
        self._potential = _DiagonalForm(_group_terms(potential).get(0, _NO_TERMS))
        self.kinetic = SectorOperator(kinetic, basis)
        # hop groups: (x-mask, (zs, cs))
        self.hops = [(x, group) for x, group in self.kinetic.groups.items() if x != 0]

    @cached_property
    def diag(self) -> np.ndarray:
        return self._potential.diagonal(self.basis)

    def _hop_terms(self, states: np.ndarray) -> dict[int, np.ndarray]:
        """Per hop mask x, the values c_z (-1)^{popcount(z & b)} of its terms,
        (terms x states); their column sums are the amplitudes amp_x(b)."""
        return {x: _term_values(states, group) for x, group in self.hops}

    @cached_property
    def _hop_pairs(self) -> dict[int, list]:
        """Hop pairs (x1, x2) by target mask x1 ^ x2, each with the signs
        (-1)^{popcount(z & x2)} of x1's terms, so that
        amp_x1(b ^ x2) = signs @ (x1's term values at b)."""
        pairs: dict[int, list] = {}
        for x1, (zs1, _) in self.hops:
            for x2, _ in self.hops:
                signs = 1.0 - 2.0 * (_popcount(zs1 & np.int64(x2)) & 1)
                pairs.setdefault(x1 ^ x2, []).append((x1, x2, signs))
        return pairs

    # O_VTV = [[V,T],V]: elements -(D_r - D_c)^2 T_rc

    def vtv_matvec(self, v: np.ndarray) -> np.ndarray:
        t, d = self.kinetic.matvec, self.diag
        return -(d * d * t(v) - 2.0 * d * t(d * v) + t(d * d * v))

    def vtv_abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O_VTV| v for a vector or a (dim, m) block of columns."""
        t = self.kinetic.abs_matvec
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        return d * d * t(v) - 2.0 * d * t(d * v) + t(d * d * v)

    def vtv_column_norm_sq(self, states: np.ndarray) -> np.ndarray:
        """|O_VTV |b>|² per sampled state (targets orthogonal across hops)."""
        delta = self._potential.flip_differences(states)
        out = np.zeros(len(states))
        for x, terms in self._hop_terms(states).items():
            out += (delta(x) ** 2 * _column_sums(terms)) ** 2
        return out

    # O_VTT = [[V,T],T]: elements sum_k T_rk T_kc (D_r - 2 D_k + D_c)

    def vtt_column_norm_sq(self, states: np.ndarray) -> np.ndarray:
        """|O_VTT |b>|² per sampled state.

        A hop pair (x1, x2) reaches r = b ^ x1 ^ x2 through m = b ^ x2, with
        weight D_r - 2 D_m + D_b = delta(x1 ^ x2) - 2 delta(x2) for the flip
        differences delta(x) = D(b ^ x) - D(b).  Pairs with the same target
        mask add up before squaring and different masks reach orthogonal
        targets, so one mask's sum is held at a time.
        """
        delta = self._potential.flip_differences(states)
        terms = self._hop_terms(states)
        # per midpoint hop x2: T[m, b] and T[m, b] delta(x2)
        first = {}
        for x2, terms2 in terms.items():
            amp2 = _column_sums(terms2)
            first[x2] = (amp2, amp2 * delta(x2))
        out = np.zeros(len(states))
        for xor, pairs in self._hop_pairs.items():
            delta_r = delta(xor)
            amp = np.zeros(len(states))
            for x1, x2, signs in pairs:
                amp2, amp2_delta = first[x2]
                amp += (signs @ terms[x1]) * (amp2 * delta_r - 2.0 * amp2_delta)
            out += amp**2
        return out

    def vtt_matvec(self, v: np.ndarray) -> np.ndarray:
        t, d = self.kinetic.matvec, self.diag
        tv = t(v)
        return d * t(tv) - 2.0 * t(d * tv) + t(t(d * v))

    def vtt_abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O_VTT| v for a vector or a (dim, m) block of columns."""
        return self._vtt_abs @ v

    @cached_property
    def _vtt_abs(self):
        """|O_VTT| as CSR, from O_VTT = D T² - 2 T D T + T² D."""
        t = self.kinetic.to_sparse()
        d = diags(self.diag)
        t2 = t @ t
        return abs(d @ t2 - 2.0 * (t @ d @ t) + t2 @ d).tocsr()
