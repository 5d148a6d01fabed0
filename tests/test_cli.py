import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trotterlab import cli
from trotterlab.cli import _ground_states, main
from trotterlab.freefermion import tiling_path
from trotterlab.hamiltonian import build_ppp
from trotterlab.lattice import build_lattice
from trotterlab.pauli import jordan_wigner


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _benzene():
    """(lattice, PPP Hamiltonian as a Pauli sum) of benzene, the arguments
    of ``_ground_states``."""
    lat = build_lattice("acene", 1)
    kin, pot = jordan_wigner(build_ppp(lat))
    return lat, kin + pot


def test_lattice_output_and_idempotence(capsys, tmp_path):
    rc, doc = _run(capsys, ["lattice", "--family", "acene", "--n", "1"])
    assert rc == 0
    assert doc["n_sites"] == 6
    assert doc["n_bonds"] == 6
    assert doc["version"]
    assert doc["config"]["family"] == "acene"
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    main(["lattice", "--family", "acene", "--n", "1", "--out", str(p1)])
    main(["lattice", "--family", "acene", "--n", "1", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "acene", "size_n": 1}))
    rc, doc = _run(capsys, ["lattice", "--config", str(cfg), "--n", "2"])
    assert rc == 0
    assert doc["n_sites"] == 10  # flag wins over the file


def test_integral_config_values_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "acene", "size_n": 2.0}))
    rc, doc = _run(capsys, ["lattice", "--config", str(cfg)])
    assert rc == 0
    assert doc["n_sites"] == 10
    rc, doc = _run(capsys, ["lattice", "--family", "acene", "--n", "2.0"])
    assert rc == 0 and doc["n_sites"] == 10  # a flag passes the same check
    # an integer string converts exactly, not through a float (2**53 + 1)
    cfg.write_text(json.dumps({"family": "acene", "size_n": "1", "samples": 500.0,
                               "seed": "9007199254740993"}))
    rc, doc = _run(capsys, ["norms", "--config", str(cfg)])
    assert rc == 0
    assert doc["vtv"]["seed"] == doc["config"]["seed"] == 9007199254740993
    assert doc["config"]["samples"] == 500


def test_malformed_config_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--family", "acene"])  # size_n missing
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "size_n"

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "grahpene", "size_n": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--config", str(cfg)])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "family"


@pytest.mark.parametrize("argv,field", [
    (["norms", "--samples", "1"], "samples"),
    (["norms", "--seed", "-1"], "seed"),
    (["spectral", "--t", "0.05", "--states", "0"], "states"),
    (["spectral", "--t", "0.05", "--states", "-1"], "states"),
    (["resources", "--x", "1.5"], "x"),
    (["resources", "--mode", "error", "--constant", "-1"], "constant"),
    (["resources", "--mode", "error", "--constant", "0"], "constant"),
    # a dict closes the argument list: fields of a --config file, where a
    # value that is not integral must not be truncated
    (["lattice", {"size_n": 2.9}], "size_n"),
    (["lattice", {"size_n": "2.5"}], "size_n"),
    (["norms", {"samples": 500.5}], "samples"),
    (["norms", {"seed": "7.5"}], "seed"),
    (["spectral", "--t", "0.05", {"states": 1.5}], "states"),
    (["spectral", "--t", "0.05", {"states": "two"}], "states"),
    # sampling settings under a method that samples nothing
    (["norms", "--method", "dense", "--samples", "500"], "samples"),
    (["norms", "--method", "bound", "--seed", "3"], "seed"),
    (["norms", {"method": "dense", "seed": 3}], "seed"),
    (["norms", "--method", "bound", {"samples": 500}], "samples"),
    # benzene's half-filled sector has 400 states
    (["spectral", "--t", "0.05", "--states", "401"], "states"),
    # a --per-step file's contents, written next to the config
    (["resources", {"per_step": [342, 104, 14]}], "per_step"),
    (["resources", {"per_step": {"n_rotations": 342, "n_t_gates": 104, "n_sites": -3}}],
     "n_sites"),
    (["resources", {"per_step": {"n_rotations": 2.9, "n_t_gates": 104, "n_sites": 14}}],
     "n_rotations"),
    # JSON booleans are neither integers nor numbers
    (["lattice", {"size_n": True}], "size_n"),
    (["spectral", {"t": True}], "t"),
    (["norms", {"seed": False}], "seed"),
    (["resources", {"per_step": {"n_rotations": 342, "n_t_gates": 104, "n_sites": True}}],
     "n_sites"),
    # values that change nothing: a per-step file beside the config's
    # family/n, a constant in gap mode, a time step in error mode
    (["resources", {"per_step": {"n_rotations": 342, "n_t_gates": 104, "n_sites": 14}}],
     "per_step"),
    (["resources", "--constant", "5"], "constant"),
    (["resources", "--mode", "error", "--constant", "5", "--t", "0.1"], "t"),
    # a molecule for a target other than table4; --slow where no row is slow
    (["reproduce", "table1", "--molecule", "acene3"], "molecule"),
    (["reproduce", "table1", "--slow"], "slow"),
    (["reproduce", "table4", "--molecule", "acene2", "--slow"], "slow"),
    # naphthalene's half-filled sector has 63 504 states, above DENSE_DIM_LIMIT
    (["norms", "--method", "dense", {"size_n": 2}], "method"),
    # a key the subcommand does not take
    (["norms", {"samlpes": 5}], "samlpes"),
    (["reproduce", "table1", {"slow": True}], "slow"),
    # null, and numbers that are not finite
    (["resources", {"t": None}], "t"),
    (["spectral", "--t", "nan"], "t"),
    (["resources", "--t", "inf"], "t"),
    (["resources", "--x", "inf"], "x"),
    (["resources", {"hwp": "yes"}], "hwp"),
    # flag values pass the field's check, not argparse's
    (["lattice", "--family", "grahpene"], "family"),
    (["norms", "--method", "exact"], "method"),
    (["lattice", "--n", "two"], "size_n"),
])
def test_out_of_range_values_exit_2(capsys, tmp_path, argv, field):
    # every subcommand but reproduce takes a molecule
    config = {} if argv[0] == "reproduce" else {"family": "acene", "size_n": 1}
    if isinstance(argv[-1], dict):
        config.update(argv[-1])
        argv = argv[:-1]
    if "per_step" in config:
        per_step = tmp_path / "per_step.json"
        per_step.write_text(json.dumps(config["per_step"]))
        config["per_step"] = str(per_step)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(path)] + argv[1:])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == field


def test_every_flag_is_one_field_of_the_table():
    """Each subcommand's flags are --config, --out and exactly its fields, and
    argparse converts and restricts none of them, so every value reaches its
    field's one check."""
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(cli._COMMANDS)
    for command, (_, required, optional) in cli._COMMANDS.items():
        options = [a for a in sub.choices[command]._actions if a.option_strings]
        flags = {a.dest: a.option_strings for a in options
                 if a.dest not in ("help", "config", "out")}
        assert flags == {key: [cli._FIELDS[key][0]] for key in required + optional}
        assert all(a.type is None and a.choices is None for a in options)


@pytest.mark.parametrize("code", [
    "from trotterlab.sector import enumerate_sector\n"
    "try:\n    enumerate_sector(32, 32, 0)\nexcept ValueError:\n    sys.exit(2)",
    "from trotterlab.cli import main\nmain(['norms', '--family', 'acene', '--n', '8'])",
    "from trotterlab.cli import main\n"
    "main(['spectral', '--family', 'triangulene', '--n', '4', '--t', '0.1'])",
], ids=["enumerate_sector", "norms_acene8", "spectral_triangulene4"])
def test_sectors_above_31_sites_are_refused_before_allocating(code):
    """At 32 sites the down-spin masks would need int64's sign bit, and the
    first species list of acene8 (34 sites) alone is 18.7 GB.  Both are
    refused before anything is allocated: under a 3 GB address-space limit
    the call exits 2 (the CLI naming size_n), not with MemoryError."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    limit = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
    proc = subprocess.run([sys.executable, "-c", limit + code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    if "cli" in code:
        assert json.loads(proc.stderr)["field"] == "size_n"


def test_hamiltonian_counts(capsys):
    rc, doc = _run(capsys, ["hamiltonian", "--family", "acene", "--n", "3"])
    assert rc == 0
    assert doc["potential_terms"] == 406
    assert doc["shifted_potential_terms"] == 290


def test_norms_seeded_repeatable(capsys):
    argv = ["norms", "--family", "acene", "--n", "1", "--samples", "500",
            "--seed", "7"]
    rc1, d1 = _run(capsys, argv)
    rc2, d2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert d1["vtv"]["value"] == d2["vtv"]["value"]
    assert d1["vtv"]["seed"] == 7
    assert d1["vtv"]["standard_error"] > 0
    assert d1["vtv"]["converged"] is d1["vtt"]["converged"] is True


def test_norms_sampled_at_4acene(capsys):
    """4-acene's half-filled sector has 2 363 904 400 states, too many to
    list; sampled norms take their states from (up, down) index pairs."""
    rc, doc = _run(capsys, ["norms", "--family", "acene", "--n", "4", "--method", "frobenius",
                            "--samples", "2000"])
    assert rc == 0
    assert doc["dim"] == 2_363_904_400
    for name in ("vtv", "vtt"):
        assert doc[name]["kind"] == "frobenius_sampled" and doc[name]["standard_error"] > 0


def test_freefermion_subcommand(capsys):
    argv = ["freefermion", "--family", "acene", "--n", "3"]
    rc, doc = _run(capsys, argv + ["--seed", "1"])
    assert rc == 0
    assert doc["gate_counts"] == {"rotations": 52, "t_gates": 104}
    assert doc["worst_case"]["constant"] > 0
    assert doc["config"]["seed"] == 1
    rc2, doc2 = _run(capsys, argv + ["--seed", "2"])
    assert rc2 == 0
    assert json.dumps(doc2["average_case"]) == json.dumps(doc["average_case"])
    del doc["config"], doc2["config"]
    assert doc2 == doc


@pytest.mark.parametrize("argv", [
    ["reproduce", "table4", "--family", "acene", "--n", "3"],
    ["freefermion", "--family", "acene", "--n", "3", "--samples", "5"],
])
def test_flags_without_effect_exit_2(capsys, argv):
    """``reproduce`` takes its molecule from --molecule and A_T is exact, so
    neither a molecule for reproduce nor a sample count for freefermion is
    an argument: both are refused, not ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_freefermion_missing_tiling(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["freefermion", "--family", "acene", "--n", "2"])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "tiling"


def _spoil_name(spec):
    del spec["sections"][0]["name"]


def _spoil_rotations(spec):
    del spec["sections"][0]["rotations"]


def _spoil_bond(spec):
    spec["sections"][0]["bonds"][0] = 3


def _spoil_sections(spec):
    spec["sections"] = {"red": spec["sections"][0]}


def _spoil_count(spec):
    spec["sections"][0]["rotations"] = -4


@pytest.mark.parametrize("spoil", [_spoil_name, _spoil_rotations, _spoil_bond,
                                   _spoil_sections, _spoil_count])
def test_freefermion_malformed_tiling_exits_2(capsys, tmp_path, spoil):
    """A tiling file whose section lacks a name or its rotations, has a bond
    that is not a pair, whose sections are no list, or whose gate count is
    negative is a configuration error naming ``tiling``, with no artifact."""
    spec = json.loads(Path(tiling_path("acene", 3)).read_text())
    spoil(spec)
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["freefermion", "--family", "acene", "--n", "3", "--tiling", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["field"] == "tiling"
    assert captured.out == ""


def test_spectral_subcommand_with_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    argv = ["spectral", "--family", "acene", "--n", "1", "--scheme", "SO",
            "--t", "0.01", "--states", "2"]
    rc, doc = _run(capsys, argv)
    assert rc == 0
    cached = list(tmp_path.glob("eig_*.npz"))
    assert len(cached) == 1
    rc2, doc2 = _run(capsys, argv)  # second run hits the checkpoint
    assert doc2["states"] == doc["states"]
    assert all(s["residual"] < 1e-10 for s in doc["states"])
    gap = doc["pairs"][0]
    assert abs(gap["exact_gap"] - gap["effective_gap"]) < 1e-3


def test_checkpoint_keyed_on_tol_and_shape_checked(tmp_path, monkeypatch):
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    benzene = _benzene()
    basis, vals, vecs, residuals = _ground_states(*benzene, 2, tol=1e-10)
    assert max(residuals) < 1e-10
    (path,) = tmp_path.glob("eig_*.npz")
    # a planted checkpoint is served back only for the configuration it names,
    # and its residuals ||H v - E v|| show that its energies are off by 1
    np.savez(path, vals=vals + 1.0, vecs=vecs)
    _, planted, _, planted_residuals = _ground_states(*benzene, 2, tol=1e-10)
    assert np.array_equal(planted, vals + 1.0)
    assert np.allclose(planted_residuals, 1.0, atol=1e-10)
    assert np.array_equal(_ground_states(*benzene, 2, tol=1e-9)[1], vals)
    # a checkpoint whose arrays do not fit the sector is recomputed
    np.savez(path, vals=vals, vecs=vecs[:-1])
    _, got_vals, got_vecs, _ = _ground_states(*benzene, 2, tol=1e-10)
    assert got_vecs.shape == (basis.dim, 2)
    assert np.array_equal(got_vals, vals)
    # ... and for the package version that wrote it
    np.savez(path, vals=vals + 1.0, vecs=vecs)
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    assert np.array_equal(_ground_states(*benzene, 2, tol=1e-10)[1], vals)
    # ... and for the order it was written in: checkpoints from before the
    # (up x down) basis order and from the interleaved qubit order have the
    # same shape but file names without the blocked-order marker, so they
    # are recomputed, not served, and the new checkpoint replaces them
    for stale in tmp_path.glob("eig_*.npz"):
        stale.unlink()
    old_tags = ["eig_acene1_6_0_k2_tol1e-10_v%s" % cli.__version__,
                "eig_acene1_6_0_k2_tol1e-10_updown_v%s" % cli.__version__]
    for tag, old_vecs in zip(old_tags, (vecs[::-1], -vecs)):
        np.savez(tmp_path / (tag + ".npz"), vals=vals + 1.0, vecs=old_vecs)
    # checkpoints of other solves stay
    others = {"eig_acene1_6_0_k1_tol1e-10_blocked_v%s.npz" % cli.__version__,
              "eig_acene1_6_0_k2_tol1e-09_blocked_v%s.npz" % cli.__version__}
    for other in others:
        np.savez(tmp_path / other, vals=vals, vecs=vecs)
    _, got_vals, got_vecs, residuals = _ground_states(*benzene, 2, tol=1e-10)
    assert np.array_equal(got_vals, vals) and np.array_equal(got_vecs, vecs)
    assert max(residuals) < 1e-10
    fresh = "eig_acene1_6_0_k2_tol1e-10_blocked_v%s.npz" % cli.__version__
    assert len(list(tmp_path.glob("eig_acene1_6_0_k2_tol1e-10_*.npz"))) == 1
    assert {p.name for p in tmp_path.glob("eig_*.npz")} == others | {fresh}


def test_checkpoint_keyed_on_the_spin_flip_half(tmp_path, monkeypatch):
    """A whole-sector solve and an even-half solve with the same k and tol
    are other solves to the odd half: neither is served back for it, and
    writing its checkpoint leaves both in place."""
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    benzene = _benzene()
    basis, vals, vecs, residuals = _ground_states(*benzene, 1, tol=1e-10, parity=-1)
    assert basis.parity == -1 and max(residuals) < 1e-10
    (odd,) = tmp_path.glob("eig_*.npz")
    odd.unlink()
    planted = {"eig_acene1_6_0_k1_tol1e-10_blocked_v%s.npz" % cli.__version__,
               "eig_acene1_6_0even_k1_tol1e-10_blocked_v%s.npz" % cli.__version__}
    for name in planted:  # arrays of the odd half's shape, energies off by 1
        np.savez(tmp_path / name, vals=vals + 1.0, vecs=vecs)
    _, got_vals, got_vecs, _ = _ground_states(*benzene, 1, tol=1e-10, parity=-1)
    assert np.array_equal(got_vals, vals) and np.array_equal(got_vecs, vecs)
    assert {p.name for p in tmp_path.glob("eig_*.npz")} == planted | {odd.name}
    assert odd.name == "eig_acene1_6_0odd_k1_tol1e-10_blocked_v%s.npz" % cli.__version__


def test_reproduce_table4_checks_the_upper_spin(capsys, monkeypatch):
    """Each table4 row reports <S^2> of its upper state, S1 a singlet and T1
    a triplet; a row whose upper state has another spin fails even when its
    gap is right."""
    monkeypatch.delenv("TROTTERLAB_CACHE", raising=False)
    rc, doc = _run(capsys, ["reproduce", "table4"])
    assert rc == 0
    spins = {r["gap"]: r["spin_squared"] for r in doc["rows"]}
    assert abs(spins["s0_t1"] - 2.0) < 1e-8 and abs(spins["s0_s1"]) < 1e-8
    monkeypatch.setattr(cli, "total_spin_expectation", lambda state, basis: 6.0)  # quintets
    rc, doc = _run(capsys, ["reproduce", "table4"])
    assert rc == 1
    assert [r["status"] for r in doc["rows"]] == ["fail", "fail"]


def test_artifacts_repeat_byte_for_byte(tmp_path, monkeypatch):
    """Calls whose post-processing runs per state (Fourier extraction, <S²>,
    the dense bound) write the same bytes when run twice in one process."""
    monkeypatch.delenv("TROTTERLAB_CACHE", raising=False)
    benzene = ["--family", "acene", "--n", "1"]
    calls = [["spectral", *benzene, "--scheme", "SO", "--t", "0.05"],
             ["spectral", *benzene, "--scheme", "tile", "--t", "0.05"],
             ["reproduce", "table4"],
             ["norms", *benzene, "--method", "bound"]]
    for m, argv in enumerate(calls):
        paths = [tmp_path / ("%d_%d.json" % (m, run)) for run in range(2)]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_resources_per_step_file(capsys, tmp_path):
    ps = tmp_path / "per_step.json"
    ps.write_text(json.dumps({"n_rotations": 342, "n_t_gates": 104,
                              "n_sites": 14}))
    rc, doc = _run(capsys, ["resources", "--per-step", str(ps), "--mode", "gap",
                            "--t", "0.1"])
    assert rc == 0
    assert doc["n_steps"] == 840
    assert doc["n_runs"] == 2
    assert abs(doc["total_T"] / 2 - 1.0e7) / 1.0e7 < 0.01
    with pytest.raises(SystemExit) as exc:
        main(["resources", "--per-step", str(ps), "--mode", "error"])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "constant"


def test_resources_hwp_from_molecule(capsys, tmp_path):
    rc, doc = _run(capsys, ["resources", "--family", "triangulene", "--n", "2",
                            "--hwp"])
    assert rc == 0
    assert doc["hwp"]["rotations_per_step"] < doc["inputs"]["n_rotations"]
    n = 13  # 2-triangulene sites
    assert doc["logical_qubits"] == 2 * n + 1 + (n - 1) + 1
    # "hwp": true in a --config file is the flag, to the byte
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "triangulene", "size_n": 2, "hwp": True}))
    flag, config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(["resources", "--family", "triangulene", "--n", "2", "--hwp",
                 "--out", str(flag)]) == 0
    assert main(["resources", "--config", str(cfg), "--out", str(config)]) == 0
    assert flag.read_bytes() == config.read_bytes()


def test_parser_reuse_leaks_no_state(tmp_path):
    """main parses with one parser per process: a call without --hwp and
    --config after one with both writes the bytes of a fresh process."""
    assert cli._parser() is cli._parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "triangulene", "size_n": 2}))
    first, second, fresh = (tmp_path / name for name in ("first.json", "second.json",
                                                          "fresh.json"))
    molecule = ["--family", "triangulene", "--n", "2"]
    assert main(["resources", "--config", str(cfg), "--hwp", "--out", str(first)]) == 0
    assert main(["resources", *molecule, "--out", str(second)]) == 0
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "trotterlab.cli", "resources", *molecule,
                    "--out", str(fresh)], env=env, check=True, timeout=120)
    assert second.read_bytes() == fresh.read_bytes()
    assert json.loads(first.read_text())["hwp"] and not json.loads(second.read_text())["hwp"]


def test_main_runs_the_module_attribute(monkeypatch):
    """A rebound cmd_<subcommand> is what main runs, as a tracer rebinds it."""
    monkeypatch.setattr(cli, "cmd_lattice", lambda args: ("rebound", args.size_n))
    assert main(["lattice", "--family", "acene", "--n", "1"]) == ("rebound", "1")


def test_reproduce_table1(capsys):
    rc, doc = _run(capsys, ["reproduce", "table1"])
    assert rc == 0
    assert doc["overall"] == "pass"
    assert len(doc["rows"]) == 6


def test_reproduce_fig7(capsys):
    rc, doc = _run(capsys, ["reproduce", "fig7"])
    assert rc == 0
    assert doc["overall"] == "pass"


def test_reproduce_fig5(capsys):
    rc, doc = _run(capsys, ["reproduce", "fig5"])
    assert rc == 0
    row = doc["rows"][0]
    assert abs(row["computed"] - row["reference"]) <= row["tolerance"]


def test_reproduce_table4_desk(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    rc, doc = _run(capsys, ["reproduce", "table4"])
    assert rc == 0
    assert doc["overall"] == "pass"
    assert {r["molecule"] for r in doc["rows"]} == {"acene2"}
    assert all(r["residual"] < 1e-6 for r in doc["rows"])


@pytest.mark.slow
def test_reproduce_table4_triangulene2_slow(capsys, tmp_path, monkeypatch):
    """13 electrons: s0_t1 runs from the S_z = 1/2 ground state (2.9 M states)
    to the S_z = 3/2 one, the lowest quartet (1.7 M states)."""
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    rc, doc = _run(capsys, ["reproduce", "table4", "--molecule", "triangulene2"])
    assert rc == 0
    (row,) = doc["rows"]
    assert row["gap"] == "s0_t1"
    assert abs(row["computed"] - row["reference"]) <= 1e-3
    assert row["residual"] < 1e-6
    assert abs(row["spin_squared"] - 3.75) < 0.1


@pytest.mark.slow
def test_reproduce_table4_acene3_slow(capsys, tmp_path, monkeypatch):
    """14 electrons: S0 and S1 are the two lowest states of the even
    spin-flip half (5.9 M entries) and T1 the lowest of the odd one, where S1
    is the fourth state of the whole S_z = 0 sector, behind T1 and T2."""
    monkeypatch.setenv("TROTTERLAB_CACHE", str(tmp_path))
    rc, doc = _run(capsys, ["reproduce", "table4", "--molecule", "acene3"])
    assert rc == 0
    assert [r["gap"] for r in doc["rows"]] == ["s0_t1", "s0_s1"]
    for row in doc["rows"]:
        assert abs(row["computed"] - row["reference"]) <= 1e-3
        assert row["residual"] < 1e-6
