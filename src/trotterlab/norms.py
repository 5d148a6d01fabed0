"""Worst-case and average-case Trotter error constants.

Second-order split-operator constants come from the two nested commutators

    O_VTV = [[V, T], V],      O_VTT = [[V, T], T],

via W_SO = |O_VTV|/24 + |O_VTT|/12 with the spectral norm, and A_SO with
normalized sector Frobenius norms instead.

The spectral norm is upper-bounded by the largest eigenvalue of the
element-wise absolute matrix |O| (Childs et al., PRX 11, 011020 (2021)):
dense below ``DENSE_DIM_LIMIT``, above it as the lowest eigenvalue of -|O|
by the package's one Lanczos (``sector.thick_restart_lanczos``).  For a
Pauli sum, |O| comes from ``SectorOperator.abs_matvec``.  The dense |O|, and
the dense O of ``dense_spectral_norm``, come from
``sector.dense_from_action``.  The Frobenius norm over the sector (divided
by sqrt(dim)) is estimated by sampling uniform basis states i and averaging
|O |i>|²; a sampled index gives its state from its (up, down) pair
(``SectorBasis.states_at``), so sampling never lists the sector and runs
where the sector is too large to list (2.4e9 states at 4-acene).

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
as a CSR matrix, once, from T = K_up (x) I + I (x) K_down.  Sampled column
norms work per basis state from the batch's occupation signs
s_q = 1 - 2 b_q and never touch a sector-size matrix.  D is a quadratic
form in s, so its change D(b ^ x) - D(b) under a hop or a pair of hops x
follows from the flipped bits alone (``sector._DiagonalForm``), O(|x|²) per
state.  A hop on qubits a < b with element k of the kinetic's n x n
``one_body_matrices`` has amplitude k prod_{a<r<b} s_r (1 - s_a s_b)/2 at
b, exactly +-k or 0, its chain product from one ``cumprod`` of s.  At a
midpoint b ^ x2 the chain product gains (-1)^{|chain & x2|}, and an x2
sharing one qubit with the hop flips s_a s_b.

Pauli-level column norms (``column_norms_squared``) sum term values
(``sector._term_values``) per X-mask group of ``sector._group_terms``, whose
coefficient dtype already says whether the group is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import diags, identity, kron

from .pauli import PauliSum, commutator
from .sector import (
    DENSE_DIM_LIMIT,
    SectorBasis,
    SectorOperator,
    _COLUMN_BLOCK,
    _column_sums,
    _group_terms,
    _term_values,
    dense_from_action,
    thick_restart_lanczos,
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
    scheme: str  # "SO" | "kinetic"
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


# relative tolerance of the Lanczos top eigenvalue of an absolute matrix
_BOUND_RTOL = 1e-6


def _largest_eigenvalue(matvec, dim: int):
    """(largest eigenvalue, converged) of a symmetric nonnegative matrix given
    by its action: the lowest eigenvalue of its negative by
    ``sector.thick_restart_lanczos`` with 8 basis vectors from a fixed start,
    to ``_BOUND_RTOL``.  A solve that has not converged within the Lanczos
    matvec budget gives its best Ritz value with converged False.

    Not the power method: the top of an absolute commutator's spectrum
    clusters (at 3-acene |O_VTV| has 2665.18 twice and 2663.98 twice), and
    below such a cluster the power method stops, at a 1e-4 rule, anywhere
    from 2589 to 2656 depending on its start vector.  Lanczos reaches
    2665.17 there in 50 matvecs.  Fewer basis vectors cost more: the top of
    benzene's |O_VTV| takes 42 matvecs with 8, 531 with 6, 8409 with 4, and
    with 3 it is not reached within the budget.
    """
    v0 = np.random.default_rng(12345).random(dim) + 0.1
    if not np.any(matvec(v0)):  # a nonnegative matrix that kills v0 > 0 is 0
        return 0.0, True

    def negated(v):
        out = matvec(v)
        return np.negative(out, out=out)

    vals, _, converged = thick_restart_lanczos(negated, v0, 1, 8, _BOUND_RTOL)
    return -float(vals[0]), converged


def spectral_norm_bound(op, basis: SectorBasis) -> NormEstimate:
    """|O| <= |abs(O)| via the largest eigenvalue of the absolute matrix.

    ``op`` is a PauliSum, a SectorOperator, or any object with an
    ``abs_matvec`` method that takes a vector or a (dim, m) block of columns.
    Up to ``DENSE_DIM_LIMIT`` the absolute matrix is built densely from the
    action (``sector.dense_from_action``) and its top eigenvalue taken
    exactly; above it, by Lanczos.
    """
    if isinstance(op, PauliSum):
        op = SectorOperator(op, basis)
    if basis.dim <= DENSE_DIM_LIMIT:
        val = float(np.linalg.eigvalsh(dense_from_action(op.abs_matvec, basis.dim))[-1])
        return NormEstimate(val, 0.0, "spectral_bound")
    val, ok = _largest_eigenvalue(op.abs_matvec, basis.dim)
    return NormEstimate(float(val), 0.0, "spectral_bound", converged=ok)


def dense_spectral_norm(op, basis: SectorBasis) -> NormEstimate:
    """|O| of a Hermitian O on a whole sector from its dense matrix; ``op`` is
    a PauliSum, a SectorOperator or any object whose ``matvec`` takes blocks."""
    basis.require_whole_sector("dense_spectral_norm")
    if isinstance(op, PauliSum):
        op = SectorOperator(op, basis)
    val = float(np.abs(np.linalg.eigvalsh(dense_from_action(op.matvec, basis.dim))).max())
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


# -- fast structured path -----------------------------------------------------


class HoppingCommutatorAction:
    """Nested-commutator actions using the diagonal-V structure.

    Needs a kinetic of real one-species hops only and a potential of Z-weight
    <= 2 whose diagonal D differs from V's by a constant (the shifted V'
    qualifies, since the commutators are shift-invariant).  Nothing
    sector-sized is built on construction: T's species matrices on the first
    matvec, the |O_VTT| matrix on the first ``vtt_abs_matvec``.  Every
    matvec takes a vector or a (dim, m) block of columns.
    """

    def __init__(self, kinetic: PauliSum, potential: PauliSum, basis: SectorBasis):
        basis.require_whole_sector("HoppingCommutatorAction")
        self.potential = SectorOperator(potential, basis)
        if self.potential.hops or not self.potential.layout:
            raise ValueError("potential must be diagonal, with terms of Z-weight <= 2")
        self.kinetic = SectorOperator(kinetic, basis)
        if not (self.kinetic.layout and self.kinetic.hops and 0 not in self.kinetic.groups
                and self.kinetic.is_real):
            raise ValueError("kinetic must be real one-species hops only")

    @property
    def diag(self) -> np.ndarray:
        return self.potential.diagonal

    @cached_property
    def _hops(self) -> list[tuple[int, int, int, float]]:
        """(mask x, qubits a < b, one-body element k) per hop, in group order."""
        n, k = self.kinetic.basis.n_sites, self.kinetic.one_body_matrices
        bits = [(x, (x & -x).bit_length() - 1, x.bit_length() - 1) for x in self.kinetic.groups]
        return [(x, a, b, k[a // n][b % n, a % n]) for x, a, b in bits]

    def _flips(self, states: np.ndarray):
        """(s, x -> D(b ^ x) - D(b)) for the signs s_q = 1 - 2 bit_q(b), qubits x states."""
        s = 1.0 - 2.0 * ((states[None, :] >> np.arange(self.potential.basis.n_qubits)[:, None]) & 1)
        return s, self.potential._form.flip_differences(s)

    @cached_property
    def _hop_pairs(self) -> dict[int, list]:
        """Hop pairs (x1, x2) by target mask x1 ^ x2: ``_hops`` indices, 1 if they
        share one qubit, and np.subtract if x2 meets x1's chain oddly, else np.add."""
        pairs: dict[int, list] = {}
        for i1, (x1, a, b, _) in enumerate(self._hops):
            chain = (1 << b) - (1 << (a + 1))
            for i2, (x2, _, _, _) in enumerate(self._hops):
                sign = np.subtract if (chain & x2).bit_count() % 2 else np.add
                pairs.setdefault(x1 ^ x2, []).append((i1, i2, (x1 & x2).bit_count() % 2, sign))
        return pairs

    # O_VTV = [[V,T],V]: elements -(D_r - D_c)^2 T_rc

    def vtv_matvec(self, v: np.ndarray) -> np.ndarray:
        """O_VTV v = -(D² T - 2 D T D + T D²) v for a vector or a (dim, m)
        block of columns."""
        t = self.kinetic.matvec
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        return -(d * d * t(v) - 2.0 * d * t(d * v) + t(d * d * v))

    def vtv_abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O_VTV| v for a vector or a (dim, m) block of columns."""
        t = self.kinetic.abs_matvec
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        return d * d * t(v) - 2.0 * d * t(d * v) + t(d * d * v)

    def vtv_column_norm_sq(self, states: np.ndarray) -> np.ndarray:
        """|O_VTV |b>|² = sum_x (k_x delta(x)²)² (1 - s_a s_b)/2 per sampled
        state: targets are orthogonal across hops, so no sign enters."""
        s, delta = self._flips(states)
        out = np.zeros(len(states))
        for x, a, b, k in self._hops:
            out += (delta(x) ** 2 * k) ** 2 * (0.5 - 0.5 * (s[a] * s[b]))
        return out

    # O_VTT = [[V,T],T]: elements sum_k T_rk T_kc (D_r - 2 D_k + D_c)

    def vtt_column_norm_sq(self, states: np.ndarray) -> np.ndarray:
        """|O_VTT |b>|² per sampled state.

        A hop pair (x1, x2) reaches r = b ^ x1 ^ x2 through m = b ^ x2, with
        weight D_r - 2 D_m + D_b = delta(x1 ^ x2) - 2 delta(x2) for the flip
        differences delta(x) = D(b ^ x) - D(b).  Pairs with the same target
        mask add up before squaring and different masks reach orthogonal
        targets, so one mask's sum is held at a time.  x1's amplitude at m
        is +- its amplitude at b, with s_a s_b flipped if x2 shares one qubit.
        """
        s, delta = self._flips(states)
        prefix = np.cumprod(s, axis=0)
        forms, first = [], []  # per hop: (at b, s_a s_b flipped), (T[m, b], T[m, b] delta)
        for x, a, b, k in self._hops:
            signed = k * (prefix[b - 1] * prefix[a])
            at_b = signed * (0.5 - 0.5 * (s[a] * s[b]))
            forms.append((at_b, signed - at_b))
            first.append((at_b, at_b * delta(x)))
        out = np.zeros(len(states))
        for xor, pairs in self._hop_pairs.items():
            delta_r = delta(xor)
            amp = np.zeros(len(states))
            for i1, i2, shared, sign in pairs:
                amp2, amp2_delta = first[i2]
                sign(amp, forms[i1][shared] * (amp2 * delta_r - 2.0 * amp2_delta), out=amp)
            out += amp**2
        return out

    def vtt_matvec(self, v: np.ndarray) -> np.ndarray:
        """O_VTT v = (D T² - 2 T D T + T² D) v for a vector or a (dim, m)
        block of columns."""
        t = self.kinetic.matvec
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        tv = t(v)
        return d * t(tv) - 2.0 * t(d * tv) + t(t(d * v))

    def vtt_abs_matvec(self, v: np.ndarray) -> np.ndarray:
        """|O_VTT| v for a vector or a (dim, m) block of columns."""
        return self._vtt_abs @ v

    @cached_property
    def _vtt_abs(self):
        """|O_VTT| as CSR, from O_VTT = D T² - 2 T D T + T² D."""
        k_up, k_down = self.kinetic.species_matrices
        t = (kron(k_up, identity(k_down.shape[0])) + kron(identity(k_up.shape[0]), k_down)).tocsr()
        d = diags(self.diag)
        t2 = t @ t
        return abs(d @ t2 - 2.0 * (t @ d @ t) + t2 @ d).tocsr()
