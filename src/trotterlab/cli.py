"""Command-line front end: per-module runs and table reproduction.

Every subcommand emits a JSON document embedding the resolved
configuration and package version, so artifacts are self-describing and
reruns with the same configuration are byte-identical.  Configuration can
come from flags or from a JSON file via --config; flags win.  Each field has
one rule (``_FIELDS``), which its flag's string and its file value pass
alike, and a file's keys must be fields of the subcommand (``_COMMANDS``),
hwp and slow included.  A value that fails its rule, a JSON null, a number
that is not finite and a key the subcommand does not take exit with code 2
and an error record naming the offending field.  freefermion's seed is the
one field with no effect.  The environment variable TROTTERLAB_CACHE names
a directory for eigenvector checkpoints reused across runs.
"""

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .freefermion import (
    average_case_kinetic,
    single_section,
    tile_sections,
    tiling_path,
    worst_case_kinetic,
)
from .hamiltonian import build_ppp, shifted_potential
from .lattice import FAMILIES, bond_orientation_classes, build_lattice
from .norms import (
    HoppingCommutatorAction,
    average_case_constant,
    dense_spectral_norm,
    frobenius_sampled,
    spectral_norm_bound,
    worst_case_constant,
)
from .pauli import jordan_wigner
from .resources import (
    CHEMICAL_ACCURACY,
    CostParams,
    PerStepGates,
    hwp_estimate,
    total_cost,
)
from .sector import (
    DENSE_DIM_LIMIT,
    MAX_SECTOR_SITES,
    SectorOperator,
    enumerate_sector,
    half_filling_sector,
    lowest_eigenpairs,
    total_spin_expectation,
)
from .spectral import (
    compute_time_series,
    default_filter,
    default_section_order,
    effective_spectrum_dense,
    error_constants,
    extract_energy,
    hopping_pauli_sum,
    pair_eigenstates,
    so_scheme,
    tile_scheme,
)


def _fail_config(field, message):
    record = {"error": "invalid configuration", "field": field, "message": message}
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(2)


def _real(value):
    """``value`` as a float; NaN for a JSON boolean or anything that is no number."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _integer(key, value, least):
    """``value`` as an int >= ``least``: 2, 2.0, "2" and "2.0" pass, an integer
    string exactly; 2.9, "2.5", "two", null and a JSON boolean exit 2."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            value = _real(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < least:
        _fail_config(key, "%s must be an integer of at least %d" % (key, least))
    return value


def _number(key, value, below=math.inf):
    """``value`` as a float in the open interval (0, ``below``)."""
    number = _real(value)
    if not 0 < number < below:
        _fail_config(key, "%s must be a number in (0, %g)" % (key, below))
    return number


def _choice(key, value, options):
    if value not in options:
        _fail_config(key, "%s must be one of %s" % (key, ", ".join(options)))
    return value


def _path_or_name(key, value):
    if not isinstance(value, str) or not value:
        _fail_config(key, "%s must be a non-empty string" % key)
    return value


def _boolean(key, value):
    if not isinstance(value, bool):
        _fail_config(key, "%s must be true or false" % key)
    return value


# every configuration field: (flag, check, help).  A flag's string and a
# --config value pass the same check; null fails every check
_FIELDS = {
    "family": ("--family", partial(_choice, options=FAMILIES), ", ".join(FAMILIES)),
    "size_n": ("--n", partial(_integer, least=1), "molecule size"),
    "method": ("--method", partial(_choice, options=("frobenius", "bound", "dense")),
               "frobenius (default), bound or dense"),
    "samples": ("--samples", partial(_integer, least=2), "sampled states per norm"),
    "seed": ("--seed", partial(_integer, least=0), "no effect on freefermion: A_T is exact"),
    "tiling": ("--tiling", _path_or_name, "tiling JSON path (default: shipped)"),
    "scheme": ("--scheme", partial(_choice, options=("SO", "tile")), "SO (default) or tile"),
    "t": ("--t", _number, "Trotter time step"),
    "states": ("--states", partial(_integer, least=1), "lowest states (default 2)"),
    "per_step": ("--per-step", _path_or_name, "JSON with n_rotations, n_t_gates, n_sites"),
    "mode": ("--mode", partial(_choice, options=("gap", "error")), "gap (default) or error"),
    "epsilon": ("--epsilon", _number, "accuracy budget in eV"),
    "x": ("--x", partial(_number, below=1.0), "share of epsilon for rotation synthesis"),
    "constant": ("--constant", _number, "error constant of error mode"),
    "hwp": ("--hwp", _boolean, "cost with Hamming-weight phasing"),
    "molecule": ("--molecule", _path_or_name, "restrict table4 to one molecule"),
    "slow": ("--slow", _boolean, "include slow rows"),
}


def _json_object(field, path):
    """The JSON object in the file at ``path``; anything else exits 2 naming ``field``."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail_config(field, str(exc))
    if not isinstance(loaded, dict):
        _fail_config(field, "the %s file must hold a JSON object" % field)
    return loaded


def _resolve_config(args):
    """The subcommand's fields from --config JSON and flags (flags win), each
    through its one check; a key the subcommand does not take exits 2."""
    _, required, optional = _COMMANDS[args.command]
    merged = _json_object("config", args.config) if args.config else {}
    for key in merged:
        if key not in required + optional:
            _fail_config(key, "%s takes no field %s" % (args.command, key))
    merged.update({key: getattr(args, key) for key in required + optional
                   if getattr(args, key) is not None})
    for key in required:
        if key not in merged:
            _fail_config(key, "required field is missing")
    return {key: _FIELDS[key][1](key, value) for key, value in merged.items()}


def _emit(payload, config, out=None):
    doc = {"version": __version__, "config": config}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonable)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    raise TypeError("cannot serialize %r" % type(obj))


def _cache_dir():
    return os.environ.get("TROTTERLAB_CACHE")


def _ground_states(lat, hamiltonian, k, sz_twice=None, tol=1e-10, parity=0):
    """Lowest-k eigenpairs at half filling of ``hamiltonian``, the PPP model
    of the lattice ``lat`` as a Pauli sum, checkpointed via TROTTERLAB_CACHE.

    ``parity`` +1 or -1 solves the even or the odd spin-flip half of the
    S_z = 0 sector (``enumerate_sector``), whose eigenvectors are the half's
    vectors.  Returns (basis, energies, eigenvectors, residuals), with the
    residual ||H v - E v|| of each pair taken by one basis-order matvec, for
    a checkpoint as well as for a fresh solve.
    """
    n = lat.n_sites
    if sz_twice is None:
        sz_twice = n % 2
    cache = _cache_dir()
    # the PPP parameters are fixed per release, so the version stands for
    # them; "blocked" names the spin-blocked qubit order the eigenvectors are
    # stored in (an older order's vectors have the same shape, other signs).
    # A half is marked right after its S_z ("0even", "0odd"), so the key of
    # one sector is never a prefix of another's file name
    half = {0: "", 1: "even", -1: "odd"}[parity]
    key = "eig_%s%d_%d_%d%s_k%d_tol%r_" % (lat.family, lat.size_n, n, sz_twice, half, k, tol)
    name = key + "blocked_v%s.npz" % __version__
    path = os.path.join(cache, name) if cache else None
    basis = enumerate_sector(n, n, sz_twice, parity)
    h = SectorOperator(hamiltonian, basis)
    vals = vecs = None
    if path and os.path.exists(path):
        with np.load(path) as data:
            vals, vecs = data["vals"], data["vecs"]
        if vals.shape != (k,) or vecs.shape != (basis.dim, k):
            vals = vecs = None
    if vals is None:
        vals, vecs = lowest_eigenpairs(h, basis, k=k, tol=tol)
        if path:
            os.makedirs(cache, exist_ok=True)
            np.savez(path, vals=vals, vecs=vecs)
            # the same solve written under another order marker or version
            for stale in os.listdir(cache):
                if stale.startswith(key) and stale != name:
                    os.remove(os.path.join(cache, stale))
    residuals = [float(np.linalg.norm(h.matvec(vecs[:, m]) - vals[m] * vecs[:, m]))
                 for m in range(k)]
    return basis, vals, vecs, residuals


def _half_filled_dim(n_sites):
    """The dimension of the half-filled sector (``half_filling_sector``)
    without building it: C(n, n // 2) configurations per species, for even
    and odd n alike.  Above ``MAX_SECTOR_SITES`` sites it exits 2 naming
    ``size_n``, before anything is built."""
    if n_sites > MAX_SECTOR_SITES:
        _fail_config("size_n", "the molecule has %d sites; a sector has at most %d"
                     % (n_sites, MAX_SECTOR_SITES))
    return math.comb(n_sites, n_sites // 2) ** 2


def _reference_data():
    from importlib.resources import files

    with (files("trotterlab") / "data" / "reference_data.json").open() as fh:
        return json.load(fh)


# -- subcommands --------------------------------------------------------------


def cmd_lattice(args):
    cfg = _resolve_config(args)
    lat = build_lattice(cfg["family"], cfg["size_n"])
    classes = bond_orientation_classes(lat)
    _emit(
        {
            "n_sites": lat.n_sites,
            "n_bonds": len(lat.bonds),
            "bonds": [list(b) for b in lat.bonds],
            "sites": np.asarray(lat.sites).tolist(),
            "orientation_classes": {
                str(k): [list(b) for b in v] for k, v in classes.items()
            },
        },
        cfg,
        args.out,
    )
    return 0


def cmd_hamiltonian(args):
    cfg = _resolve_config(args)
    lat = build_lattice(cfg["family"], cfg["size_n"])
    kin = hopping_pauli_sum(lat.n_sites, lat.bonds)
    v_shifted, offset, shift, pot = shifted_potential(lat)
    _emit(
        {
            "n_sites": lat.n_sites,
            "kinetic_terms": len(kin.terms),
            "potential_terms": pot.term_count(),
            "shifted_potential_terms": v_shifted.term_count(),
            "shift": {"c1": shift.c1, "c2": shift.c2, "offset": offset},
        },
        cfg,
        args.out,
    )
    return 0


def cmd_norms(args):
    cfg = _resolve_config(args)
    method = cfg.get("method", "frobenius")
    if method != "frobenius":
        for key in ("samples", "seed"):
            if key in cfg:
                _fail_config(key, "%s has no effect with method %s" % (key, method))
    lat = build_lattice(cfg["family"], cfg["size_n"])
    dim = _half_filled_dim(lat.n_sites)
    if method == "dense" and dim > DENSE_DIM_LIMIT:
        _fail_config("method", "method dense takes at most %d states; this sector has %d"
                     % (DENSE_DIM_LIMIT, dim))
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = half_filling_sector(lat.n_sites)
    report = {"sector": [lat.n_sites, lat.n_sites, basis.sz_twice], "dim": basis.dim}
    act = HoppingCommutatorAction(kin, pot, basis)
    o_vtv = SimpleNamespace(matvec=act.vtv_matvec, abs_matvec=act.vtv_abs_matvec,
                            column_norm_sq=act.vtv_column_norm_sq)
    o_vtt = SimpleNamespace(matvec=act.vtt_matvec, abs_matvec=act.vtt_abs_matvec,
                            column_norm_sq=act.vtt_column_norm_sq)
    if method == "frobenius":
        samples, seed = cfg.get("samples", 10000), cfg.get("seed", 0)
        vtv = frobenius_sampled(o_vtv, basis, samples, seed)
        vtt = frobenius_sampled(o_vtt, basis, samples, seed + 1)
        report["constant"] = average_case_constant(vtv, vtt).value
    else:
        norm = dense_spectral_norm if method == "dense" else spectral_norm_bound
        vtv, vtt = norm(o_vtv, basis), norm(o_vtt, basis)
        report["constant"] = worst_case_constant(vtv, vtt).value
    for name, est in (("vtv", vtv), ("vtt", vtt)):
        report[name] = {
            "value": est.value,
            "standard_error": est.standard_error,
            "kind": est.kind,
            "samples": est.sample_count,
            "seed": est.rng_seed,
            "converged": est.converged,
        }
    _emit(report, cfg, args.out)
    return 0


def cmd_freefermion(args):
    cfg = _resolve_config(args)
    lat = build_lattice(cfg["family"], cfg["size_n"])
    tiling = cfg.get("tiling")
    if tiling is None:
        try:
            tiling = tiling_path(cfg["family"], cfg["size_n"])
        except ValueError:
            _fail_config("tiling", "no shipped tiling; pass --tiling explicitly")
    try:
        secs = tile_sections(lat, tiling)
    except (OSError, ValueError) as exc:
        _fail_config("tiling", str(exc))
    rot, tg = secs.gate_counts()
    _emit(
        {
            "sections": list(secs.names),
            "gate_counts": {"rotations": rot, "t_gates": tg},
            "worst_case": {"constant": worst_case_kinetic(secs).value},
            "average_case": {"constant": average_case_kinetic(secs).value},
        },
        cfg,
        args.out,
    )
    return 0


def _build_scheme(lat, kin, pot, scheme_kind, t):
    if scheme_kind == "SO":
        return so_scheme(kin, pot, t)
    classes = default_section_order(bond_orientation_classes(lat).values())
    return tile_scheme([hopping_pauli_sum(lat.n_sites, c) for c in classes], pot, t)


def cmd_spectral(args):
    cfg = _resolve_config(args)
    scheme_kind = cfg.get("scheme", "SO")
    k = cfg.get("states", 2)
    lat = build_lattice(cfg["family"], cfg["size_n"])
    dim = _half_filled_dim(lat.n_sites)
    if k > dim:
        _fail_config("states", "states must be at most the sector dimension, %d" % dim)
    kin, pot = jordan_wigner(build_ppp(lat))
    basis, vals, vecs, residuals = _ground_states(lat, kin + pot, k)
    scheme = _build_scheme(lat, kin, pot, scheme_kind, cfg["t"])
    filt = default_filter()
    effective = []
    for m in range(k):
        series = compute_time_series(scheme, basis, vecs[:, m], filt.order)
        effective.append(extract_energy(series, filt, vals[m]))
    pairs = [(m, 0) for m in range(1, k)]
    report = error_constants(vals[:k], effective, cfg["t"], pairs)
    _emit(
        {
            "scheme": scheme_kind,
            "t": cfg["t"],
            "states": [
                {
                    "label": s.label,
                    "exact_energy": s.exact_energy,
                    "effective_energy": s.effective_energy,
                    "energy_constant": s.constant,
                    "residual": residuals[m],
                    "spin_squared": float(
                        total_spin_expectation(vecs[:, m], basis)
                    ),
                }
                for m, s in enumerate(report.states)
            ],
            "pairs": [
                {
                    "labels": list(p.labels),
                    "exact_gap": p.exact_gap,
                    "effective_gap": p.effective_gap,
                    "gap_constant": p.constant,
                }
                for p in report.pairs
            ],
        },
        cfg,
        args.out,
    )
    return 0


def cmd_resources(args):
    cfg = _resolve_config(args)
    mode = cfg.get("mode", "gap")
    # the time step of gap mode, the error constant of error mode
    unused = "constant" if mode == "gap" else "t"
    if cfg.get(unused) is not None:
        _fail_config(unused, "%s has no effect in %s mode" % (unused, mode))
    epsilon = cfg.get("epsilon", CHEMICAL_ACCURACY)
    x = cfg.get("x", 0.02)
    secs = None
    potential = None
    if cfg.get("per_step"):
        ps = _json_object("per_step", cfg["per_step"])
        per = PerStepGates(_integer("n_rotations", ps.get("n_rotations"), 0),
                           _integer("n_t_gates", ps.get("n_t_gates"), 0))
        n_sites = _integer("n_sites", ps.get("n_sites"), 1)
        if cfg.get("family") or cfg.get("size_n"):
            _fail_config("per_step", "pass --per-step or --family/--n, not both")
    elif cfg.get("family") and cfg.get("size_n"):
        lat = build_lattice(cfg["family"], cfg["size_n"])
        potential, _, _, _ = shifted_potential(lat)
        n_r_v = potential.term_count()
        try:
            secs = tile_sections(lat, tiling_path(cfg["family"], cfg["size_n"]))
        except ValueError:
            secs = single_section(lat)
        rot_t, t_t = secs.gate_counts()
        per = PerStepGates(n_r_v + rot_t, t_t)
        n_sites = lat.n_sites
    else:
        _fail_config("per_step", "pass --per-step or --family/--n")
    if mode == "gap":
        params = CostParams(per_step=per, n_sites=n_sites, epsilon=epsilon, x=x,
                            mode="fixed_timestep", time_step=cfg.get("t", 0.1))
        gap = True
    else:
        if cfg.get("constant") is None:
            _fail_config("constant", "error mode needs --constant")
        params = CostParams(per_step=per, n_sites=n_sites, epsilon=epsilon, x=x,
                            mode="fixed_error", constant=cfg["constant"])
        gap = False
    if cfg.get("hwp"):
        if potential is None:
            _fail_config("hwp", "hwp needs --family/--n to build the potential")
        report = hwp_estimate(params, potential, secs, gap=gap)
    else:
        report = total_cost(params, gap=gap)
    _emit(
        {
            "mode": report.mode,
            "n_steps": report.n_steps,
            "t_implied": report.t_implied,
            "t_per_step_gates": report.t_per_step_gates,
            "total_T": report.total_t,
            "total_Toffoli": report.total_toffoli,
            "logical_qubits": report.logical_qubits,
            "n_runs": report.n_runs,
            "hwp": report.hwp,
            "inputs": report.inputs,
        },
        cfg,
        args.out,
    )
    return 0


# -- reproduction -------------------------------------------------------------


def _reference_lattice(name):
    """The lattice of a reference molecule name such as "acene3"."""
    family = name.rstrip("0123456789")
    return build_lattice(family, int(name[len(family):]))


def _rep_table1():
    ref = _reference_data()["potential_term_counts"]
    rows = []
    for name, want in sorted(ref.items()):
        lat = _reference_lattice(name)
        v_shifted, _, _, v_jw = shifted_potential(lat)
        got_v = v_jw.term_count()
        got_vs = v_shifted.term_count()
        rows.append({
            "molecule": name,
            "v_terms": {"computed": got_v, "reference": want["v_terms"]},
            "v_shifted_terms": {"computed": got_vs,
                                "reference": want["v_shifted_terms"]},
            "status": "pass" if (got_v == want["v_terms"]
                                 and got_vs == want["v_shifted_terms"]) else "fail",
        })
    return rows


def _rep_table2(slow):
    ref = _reference_data()["commutator_norms"]["acene3"]
    lat = build_lattice("acene", 3)
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(14, 14, 0)
    act = HoppingCommutatorAction(kin, pot, basis)
    samples = 10000
    rows = []
    for name, column_norm_sq in (
        ("frobenius_vtv", act.vtv_column_norm_sq),
        ("frobenius_vtt", act.vtt_column_norm_sq),
    ):
        est = frobenius_sampled(SimpleNamespace(column_norm_sq=column_norm_sq), basis,
                                samples, seed=0)
        tol = 3.0 * (ref[name + "_se"] + est.standard_error)
        rows.append({
            "quantity": "acene3 " + name,
            "computed": est.value,
            "standard_error": est.standard_error,
            "reference": ref[name],
            "tolerance": tol,
            "status": "pass" if abs(est.value - ref[name]) <= tol else "fail",
        })
    if slow:
        bound = spectral_norm_bound(SimpleNamespace(abs_matvec=act.vtv_abs_matvec), basis)
        rel = abs(bound.value - ref["spectral_vtv"]) / ref["spectral_vtv"]
        rows.append({
            "quantity": "acene3 spectral_vtv",
            "computed": bound.value,
            "reference": ref["spectral_vtv"],
            "tolerance": "1% relative",
            "status": "pass" if rel <= 0.01 else "fail",
        })
    else:
        rows.append({"quantity": "acene3 spectral_vtv", "status": "skipped",
                     "reason": "needs --slow"})
    return rows


def _rep_table3():
    ref = _reference_data()["per_step_gates"]
    rows = []
    for name, want in sorted(ref.items()):
        lat = _reference_lattice(name)
        v_shifted, _, _, _ = shifted_potential(lat)
        n_r_v = v_shifted.term_count()
        secs = tile_sections(lat, tiling_path(lat.family, lat.size_n))
        rot, tg = secs.gate_counts()
        ok = (n_r_v == want["n_r_v"] and rot == want["n_r_t"]
              and tg == want["n_t_t"] and want["n_t_v"] == 0)
        rows.append({
            "molecule": name,
            "n_r_v": {"computed": n_r_v, "reference": want["n_r_v"]},
            "n_r_t": {"computed": rot, "reference": want["n_r_t"]},
            "n_t_t": {"computed": tg, "reference": want["n_t_t"]},
            "status": "pass" if ok else "fail",
        })
    return rows


# how far <S^2> of a gap's upper state may be from its S(S + 1)
_SPIN_TOLERANCE = 0.1


def _rep_table4(slow, molecule=None):
    ref = _reference_data()["energy_gaps"]
    targets = [molecule] if molecule else ["acene2"] + (["acene3"] if slow else [])
    rows = []
    for name in targets:
        if name not in ref:
            _fail_config("molecule", "no reference gaps for %r" % name)
        lat = _reference_lattice(name)
        kin, pot = jordan_wigner(build_ppp(lat))
        h = kin + pot
        # ground: the solve whose lowest state is S0;
        # upper: gap -> (solve, index of the upper state, its S(S + 1))
        if lat.n_sites % 2:
            # odd electron count: S0 is the lowest doublet (S_z = 1/2) and the
            # upper state of s0_t1 the lowest quartet, the ground state of S_z = 3/2
            ground = _ground_states(lat, h, 1, tol=1e-9)
            quartet = _ground_states(lat, h, 1, sz_twice=3, tol=1e-9)
            upper = {"s0_t1": (quartet, 0, 3.75)}
        else:
            # even count: S0 and S1 are the two lowest states of the even
            # spin-flip half (S = 0, 2, ...), T1 the lowest of the odd one
            ground = _ground_states(lat, h, 2, tol=1e-9, parity=1)
            odd = _ground_states(lat, h, 1, tol=1e-9, parity=-1)
            upper = {"s0_t1": (odd, 0, 2.0), "s0_s1": (ground, 1, 0.0)}
        _, ground_vals, _, ground_residuals = ground
        for key in ("s0_t1", "s0_s1"):
            want = ref[name].get(key)
            if want is None:
                continue
            (basis, vals, vecs, residuals), m, spin = upper[key]
            got = float(vals[m] - ground_vals[0])
            spin_squared = float(total_spin_expectation(vecs[:, m], basis))
            ok = abs(got - want) <= 1e-3 and abs(spin_squared - spin) <= _SPIN_TOLERANCE
            rows.append({"molecule": name, "gap": key, "computed": got,
                         "reference": want, "tolerance": 1e-3,
                         # the larger residual ||H v - E v|| of the two eigenpairs
                         "residual": max(ground_residuals[0], residuals[m]),
                         # <S^2> of the upper state
                         "spin_squared": spin_squared,
                         "status": "pass" if ok else "fail"})
    return rows


def _rep_fig5():
    ref = _reference_data()["error_correlation"]
    lat = build_lattice("acene", 1)
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = enumerate_sector(6, 6, 0)
    h = kin + pot
    h_mat = SectorOperator(h, basis).to_dense()
    vals, vecs = np.linalg.eigh(h_mat)
    t = ref["time_step"]
    eff_vals, eff_vecs = effective_spectrum_dense(so_scheme(kin, pot, t), basis)
    matches = pair_eigenstates(vecs, eff_vecs)
    # signed energy-shift constants: the correlation is between the energy
    # and the direction/size of its Trotter shift, not its magnitude
    consts = np.array(
        [(eff_vals[nn] - vals[m]) / t**2 for m, nn, _, _ in matches]
    )
    r = float(np.corrcoef(vals, consts)[0, 1])
    trace = float(eff_vals.sum() - np.trace(h_mat).real)
    ok = abs(r - ref["pearson_r"]) <= ref["tolerance"]
    return [{
        "quantity": "benzene Pearson r(E_m, C_m)",
        "computed": r,
        "reference": ref["pearson_r"],
        "tolerance": ref["tolerance"],
        "trace_difference": trace,
        "status": "pass" if ok and abs(trace) < 1e-6 else "fail",
    }]


def _rep_fig7():
    fits = _reference_data()["energy_constant_fits"]
    rows = []
    for scheme, fit in sorted(fits.items()):
        a, b = fit["prefactor"], fit["exponent"]
        rows.append({
            "quantity": "energy constant fit " + scheme,
            "prefactor": a,
            "exponent": b,
            "extrapolated_acene13": a * 54**b,
            "status": "pass",
        })
    return rows


def cmd_reproduce(args):
    cfg = _resolve_config(args)
    # every reproduce artifact records its target and whether slow rows ran
    cfg.update(target=args.target, slow=cfg.get("slow", False))
    target, slow, molecule = cfg["target"], cfg["slow"], cfg.get("molecule")
    if molecule is not None and target != "table4":
        _fail_config("molecule", "molecule has no effect on %s" % target)
    # the slow rows: table2's spectral bound and table4's acene3 gaps
    if slow and not (target == "table2" or (target == "table4" and molecule is None)):
        _fail_config("slow", "slow has no effect on %s%s"
                     % (target, " with a molecule" if molecule is not None else ""))
    rows = {"table1": _rep_table1, "table2": lambda: _rep_table2(slow),
            "table3": _rep_table3, "table4": lambda: _rep_table4(slow, molecule),
            "fig5": _rep_fig5, "fig7": _rep_fig7}[target]()
    statuses = {row["status"] for row in rows}
    overall = "pass"
    if "fail" in statuses:
        overall = "fail"
    elif statuses == {"skipped"}:
        overall = "skipped"
    _emit({"rows": rows, "overall": overall}, cfg, args.out)
    return 0 if overall != "fail" else 1


# -- entry point --------------------------------------------------------------


# every subcommand: (help, required fields, optional fields); ``main`` runs
# the module's function cmd_<subcommand>
_MOLECULE = ("family", "size_n")
_COMMANDS = {
    "lattice": ("emit lattice geometry and bond classes", _MOLECULE, ()),
    "hamiltonian": ("emit operator term counts and shift", _MOLECULE, ()),
    "norms": ("commutator norms and error constants", _MOLECULE,
              ("method", "samples", "seed")),
    "freefermion": ("kinetic splitting error constants", _MOLECULE, ("tiling", "seed")),
    "spectral": ("effective energies and gap errors", _MOLECULE + ("t",),
                 ("scheme", "states")),
    "resources": ("phase-estimation gate costs", (),
                  _MOLECULE + ("per_step", "mode", "t", "epsilon", "x", "constant", "hwp")),
    "reproduce": ("reference-table comparison reports", (), ("molecule", "slow")),
}


@cache
def _parser():
    """Every subcommand's flags: --config, --out and one per field, whose value
    argparse passes on unconverted for ``_resolve_config`` to check.  Built
    once per process: it holds no state between parses."""
    parser = argparse.ArgumentParser(
        prog="trotterlab", description="PPP nanographene Trotter error and gate-cost toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, required, optional) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if command == "reproduce":
            sp.add_argument("target",
                            choices=("table1", "table2", "table3", "table4", "fig5", "fig7"))
        sp.add_argument("--config", help="JSON configuration file; flags override it")
        sp.add_argument("--out", help="output JSON path (default stdout)")
        for key in required + optional:
            flag, check, text = _FIELDS[key]
            # a flag left out is None, so the --config file's value stands
            sp.add_argument(flag, dest=key, default=None, help=text,
                            action="store_true" if check is _boolean else "store")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up at each call, so a rebound cmd_<subcommand> is the one that runs
    return globals()["cmd_" + args.command](args)


if __name__ == "__main__":
    sys.exit(main())
