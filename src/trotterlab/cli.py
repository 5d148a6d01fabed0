"""Command-line front end: per-module runs and table reproduction.

Every subcommand emits a JSON document embedding the resolved
configuration and package version, so artifacts are self-describing and
reruns with the same configuration are byte-identical.  Configuration can
come from flags or from a JSON file via --config; flags win.  Malformed or
out-of-range configuration exits with code 2 and an error record naming
the offending field.  The environment variable TROTTERLAB_CACHE names a
directory for eigenvector checkpoints reused across runs.
"""

import argparse
import json
import os
import sys
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
from .hamiltonian import apply_shift, build_ppp, choose_shift, shifted_potential
from .lattice import FAMILIES, bond_orientation_classes, build_lattice
from .norms import (
    HoppingCommutatorAction,
    average_case_constant,
    dense_spectral_norm,
    frobenius_sampled,
    nested_commutators,
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


def _integer(key, value):
    """``value`` as an int: 2, 2.0 and "2" pass; 2.9, "2.5" and "two" exit 2."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not number.is_integer():
        _fail_config(key, "%s must be an integer" % key)
    return int(value) if isinstance(value, int) else int(number)


def _resolve_config(args, required=(), optional=()):
    """Merge --config JSON with CLI flags (flags win) and validate fields."""
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail_config("config", str(exc))
        if not isinstance(loaded, dict):
            _fail_config("config", "configuration file must hold a JSON object")
        merged.update(loaded)
    for key in required + optional:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in required:
        if merged.get(key) is None:
            _fail_config(key, "required field is missing")
    if "family" in merged and merged["family"] not in FAMILIES:
        _fail_config("family", "family must be one of %s" % (FAMILIES,))
    if "size_n" in merged:
        merged["size_n"] = _integer("size_n", merged["size_n"])
        if merged["size_n"] < 1:
            _fail_config("size_n", "size_n must be at least 1")
    for key in ("t", "epsilon", "x", "constant"):
        if key in merged and merged[key] is not None:
            try:
                merged[key] = float(merged[key])
            except (TypeError, ValueError):
                _fail_config(key, "%s must be a number" % key)
            if merged[key] <= 0:
                _fail_config(key, "%s must be positive" % key)
    if merged.get("x") is not None and merged["x"] >= 1:
        _fail_config("x", "x must be below 1")
    for key, least in (("samples", 2), ("seed", 0), ("states", 1)):
        if key in merged and merged[key] is not None:
            merged[key] = _integer(key, merged[key])
            if merged[key] < least:
                _fail_config(key, "%s must be at least %d" % (key, least))
    return merged


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


def _reference_data():
    from importlib.resources import files

    with (files("trotterlab") / "data" / "reference_data.json").open() as fh:
        return json.load(fh)


# -- subcommands --------------------------------------------------------------


def cmd_lattice(args):
    cfg = _resolve_config(args, required=("family", "size_n"))
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
    cfg = _resolve_config(args, required=("family", "size_n"))
    lat = build_lattice(cfg["family"], cfg["size_n"])
    kin, pot = jordan_wigner(build_ppp(lat))
    shift = choose_shift(pot)
    v_shifted, offset = apply_shift(pot, shift, lat.n_sites)
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
    cfg = _resolve_config(
        args, required=("family", "size_n"), optional=("samples", "seed", "method")
    )
    method = cfg.get("method", "frobenius")
    if method not in ("frobenius", "bound", "dense"):
        _fail_config("method", "method must be frobenius, bound, or dense")
    samples = cfg.get("samples", 10000)
    seed = cfg.get("seed", 0)
    lat = build_lattice(cfg["family"], cfg["size_n"])
    fh = build_ppp(lat)
    kin, pot = jordan_wigner(fh)
    basis = half_filling_sector(lat.n_sites)
    report = {"sector": [lat.n_sites, lat.n_sites, basis.sz_twice], "dim": basis.dim}
    if method == "dense":
        o_vtv, o_vtt = nested_commutators(kin, pot)
        vtv = dense_spectral_norm(o_vtv, basis)
        vtt = dense_spectral_norm(o_vtt, basis)
        report["constant"] = worst_case_constant(vtv, vtt).value
    else:
        act = HoppingCommutatorAction(kin, pot, basis)
        if method == "bound":
            vtv = spectral_norm_bound(SimpleNamespace(abs_matvec=act.vtv_abs_matvec), basis)
            vtt = spectral_norm_bound(SimpleNamespace(abs_matvec=act.vtt_abs_matvec), basis)
            report["constant"] = worst_case_constant(vtv, vtt).value
        else:
            vtv = frobenius_sampled(SimpleNamespace(column_norm_sq=act.vtv_column_norm_sq),
                                    basis, samples, seed)
            vtt = frobenius_sampled(SimpleNamespace(column_norm_sq=act.vtt_column_norm_sq),
                                    basis, samples, seed + 1)
            report["constant"] = average_case_constant(vtv, vtt).value
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
    cfg = _resolve_config(
        args, required=("family", "size_n"), optional=("seed", "tiling")
    )
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
    cfg = _resolve_config(
        args,
        required=("family", "size_n", "t"),
        optional=("scheme", "states"),
    )
    scheme_kind = cfg.get("scheme", "SO")
    if scheme_kind not in ("SO", "tile"):
        _fail_config("scheme", "scheme must be SO or tile")
    k = cfg.get("states", 2)
    lat = build_lattice(cfg["family"], cfg["size_n"])
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
    cfg = _resolve_config(
        args,
        optional=("family", "size_n", "per_step", "mode", "t", "epsilon",
                  "x", "constant"),
    )
    mode = cfg.get("mode", "gap")
    if mode not in ("gap", "error"):
        _fail_config("mode", "mode must be gap or error")
    epsilon = cfg.get("epsilon", CHEMICAL_ACCURACY)
    x = cfg.get("x", 0.02)
    secs = None
    potential = None
    if cfg.get("per_step"):
        try:
            with open(cfg["per_step"]) as fh:
                ps = json.load(fh)
            per = PerStepGates(int(ps["n_rotations"]), int(ps["n_t_gates"]))
            n_sites = int(ps["n_sites"])
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            _fail_config("per_step", str(exc))
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
    if args.hwp:
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


def _rep_table1():
    ref = _reference_data()["potential_term_counts"]
    rows = []
    for name, want in sorted(ref.items()):
        family = name.rstrip("0123456789")
        n = int(name[len(family):])
        lat = build_lattice(family, n)
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
        family = name.rstrip("0123456789")
        n = int(name[len(family):])
        lat = build_lattice(family, n)
        v_shifted, _, _, _ = shifted_potential(lat)
        n_r_v = v_shifted.term_count()
        secs = tile_sections(lat, tiling_path(family, n))
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
        family = name.rstrip("0123456789")
        lat = build_lattice(family, int(name[len(family):]))
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
    cfg = _resolve_config(args, optional=("molecule",))
    target = args.target
    slow = bool(args.slow)
    if target == "table1":
        rows = _rep_table1()
    elif target == "table2":
        rows = _rep_table2(slow)
    elif target == "table3":
        rows = _rep_table3()
    elif target == "table4":
        rows = _rep_table4(slow, cfg.get("molecule"))
    elif target == "fig5":
        rows = _rep_fig5()
    elif target == "fig7":
        rows = _rep_fig7()
    else:
        _fail_config("target", "unknown reproduction target %r" % target)
    statuses = {row["status"] for row in rows}
    overall = "pass"
    if "fail" in statuses:
        overall = "fail"
    elif statuses == {"skipped"}:
        overall = "skipped"
    cfg["target"] = target
    cfg["slow"] = slow
    _emit({"rows": rows, "overall": overall}, cfg, args.out)
    return 0 if overall != "fail" else 1


# -- entry point --------------------------------------------------------------


def _add_common(sp, molecule=True):
    sp.add_argument("--config", help="JSON configuration file; flags override it")
    sp.add_argument("--out", help="output JSON path (default stdout)")
    if molecule:
        sp.add_argument("--family", choices=FAMILIES)
        sp.add_argument("--n", dest="size_n", type=int)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description="PPP nanographene Trotter error and gate-cost toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice", help="emit lattice geometry and bond classes")
    _add_common(sp)
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("hamiltonian", help="emit operator term counts and shift")
    _add_common(sp)
    sp.set_defaults(func=cmd_hamiltonian)

    sp = sub.add_parser("norms", help="commutator norms and error constants")
    _add_common(sp)
    sp.add_argument("--method", choices=("frobenius", "bound", "dense"))
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("freefermion", help="kinetic splitting error constants")
    _add_common(sp)
    sp.add_argument("--tiling", help="tiling JSON path (default: shipped)")
    sp.add_argument("--seed", type=int, help="ignored: A_T is exact")
    sp.set_defaults(func=cmd_freefermion)

    sp = sub.add_parser("spectral", help="effective energies and gap errors")
    _add_common(sp)
    sp.add_argument("--scheme", choices=("SO", "tile"))
    sp.add_argument("--t", type=float)
    sp.add_argument("--states", type=int)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("resources", help="phase-estimation gate costs")
    _add_common(sp)
    sp.add_argument("--per-step", dest="per_step",
                    help="JSON with n_rotations, n_t_gates, n_sites")
    sp.add_argument("--mode", choices=("gap", "error"))
    sp.add_argument("--t", type=float)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--x", type=float)
    sp.add_argument("--constant", type=float)
    sp.add_argument("--hwp", action="store_true")
    sp.set_defaults(func=cmd_resources)

    sp = sub.add_parser("reproduce", help="reference-table comparison reports")
    sp.add_argument("target",
                    choices=("table1", "table2", "table3", "table4", "fig5", "fig7"))
    _add_common(sp, molecule=False)
    sp.add_argument("--molecule", help="restrict table4 to one molecule")
    sp.add_argument("--slow", action="store_true", help="include slow rows")
    sp.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
