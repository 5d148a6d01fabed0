import json

import numpy as np
import pytest

from trotterlab import cli
from trotterlab.cli import _ground_states, main
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
    cfg.write_text(json.dumps({"family": "acene", "size_n": "1", "samples": 500.0,
                               "seed": "7"}))
    rc, doc = _run(capsys, ["norms", "--config", str(cfg)])
    assert rc == 0
    assert doc["vtv"]["seed"] == 7 and doc["config"]["samples"] == 500


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
])
def test_out_of_range_values_exit_2(capsys, tmp_path, argv, field):
    config = {"family": "acene", "size_n": 1}
    if isinstance(argv[-1], dict):
        config.update(argv[-1])
        argv = argv[:-1]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(path)] + argv[1:])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == field


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


def test_resources_hwp_from_molecule(capsys):
    rc, doc = _run(capsys, ["resources", "--family", "triangulene", "--n", "2",
                            "--hwp"])
    assert rc == 0
    assert doc["hwp"]["rotations_per_step"] < doc["inputs"]["n_rotations"]
    n = 13  # 2-triangulene sites
    assert doc["logical_qubits"] == 2 * n + 1 + (n - 1) + 1


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
