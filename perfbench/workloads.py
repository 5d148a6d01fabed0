"""The benchmark's three workloads and the checks on their outputs.

Every workload calls trotterlab's public API only.  ``setup`` builds what a
user would build before asking a question (lattices, Jordan-Wigner operators,
sector bases); ``run`` answers it once and returns one (name, ok, value) row
per checked operation.

gap-2acene-tile
    Naphthalene tile formula at t = 0.1 (the paper's gap-cancellation result,
    criterion 7): exact S0 (S_z = 0, 63 504 states) and T1 (S_z = 1, 44 100
    states) eigensolves, both Trotter time series, extract_energy.  Krylov
    propagation dominates, so a faster sector propagator shows here.
    ``SERIES_STEPS`` keeps one pass near 6 s; a 6-step series already gives
    the criterion-7 verdict (gap error 0.0045 eV, energy error 0.23 eV,
    budget 0.0145 eV), as does the 120-step series of the test suite.  The
    seed has no effect: every input is fixed by criterion 7.
norms-acene
    A_SO of anthracene from seeded basis-state samples of the 11 778 624-state
    sector (``FROBENIUS_SAMPLES`` per norm), and the worst-case VTV bound of
    benzene against its dense exact norm.  All work is in the norms layer and
    nothing propagates, so it is the control for propagator changes and the
    target for exact norms and a single sparse operator engine.  The
    anthracene basis makes it the workload with the largest memory footprint.
    The VTT half of the benzene bound is left out (see ``LEFT_OUT``).
desk-cli
    One in-process pass over the cheap command-line path: reproduce targets,
    spectral, norms, freefermion and resources on small, dense sectors.  Many
    short calls, so a change that adds per-call set-up or slows the dense
    routes shows here.
"""

import json
import math
import shutil
import sys
import traceback
from importlib.resources import files
from types import SimpleNamespace

import numpy as np

from trotterlab import cli
from trotterlab.hamiltonian import build_ppp
from trotterlab.lattice import bond_orientation_classes, build_lattice, site_count
from trotterlab.norms import (
    HoppingCommutatorAction,
    average_case_constant,
    dense_spectral_norm,
    frobenius_sampled,
    nested_commutators,
    spectral_norm_bound,
)
from trotterlab.pauli import jordan_wigner
from trotterlab.resources import extrapolated_energy_constant
from trotterlab.sector import enumerate_sector, half_filling_sector, lowest_eigenpairs
from trotterlab.spectral import (
    CHEMICAL_ACCURACY,
    compute_time_series,
    default_filter,
    default_section_order,
    extract_energy,
    hopping_pauli_sum,
    tile_scheme,
)

SERIES_STEPS = 6
# Per norm.  The VTT column norms cost a fixed ~4 s of small-array Python work
# per call plus ~1.6 ms per sample; with 6000 samples the vectorised part
# dominates, which keeps pass times steadier on a shared host, and two passes
# fit in one run.
FROBENIUS_SAMPLES = 6000
# Exact |O_VTV|_F / sqrt(d) of anthracene by full enumeration of the S_z = 0
# sector.  The 298.6 in the reference data is a known deviation (strict xfail).
EXACT_VTV_ANTHRACENE = 287.664
# Sampled norms are checked at 4 standard errors: a 3-SE window rejects 0.27 %
# of seeds per check, too many for a benchmark run on ~100 seeds per change.
SE_WINDOW = 4.0
# The table4 artifact stores ARPACK eigenvalues, whose last bits follow
# eigsh's random start vector, so two passes differ by about 1e-14 relative.
# These artifacts are compared as JSON with numbers within ARTIFACT_RTOL and
# everything else exact; a byte difference is reported as a known deviation.
NONDETERMINISTIC_ARTIFACTS = ("reproduce table4",)
ARTIFACT_RTOL = 1e-9

# Jobs the benchmark leaves out because they cannot finish within a run today.
LEFT_OUT = {
    "3-acene time series": "hours per run with Krylov propagation; waits for the "
                           "spin-factorised propagator (ROADMAP item 2)",
    "2-acene W bound": "one VTT abs-matvec on the 63 504-state sector takes 33.6 s; "
                       "waits for one sparse operator engine (ROADMAP item 4)",
    "benzene W_SO VTT bound (trotterlab norms --method bound)":
        "400 VTT abs-matvecs at 0.18 s each, about 71 s, longer than a whole run; "
        "norms-acene runs the VTV half only; waits for ROADMAP item 4",
}


def reference_data():
    return json.loads((files("trotterlab") / "data" / "reference_data.json").read_text())


def sampling_seeds(seed, count):
    """Sampler seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


# -- checks: pure functions of the outputs, so the self-test can feed them --


def gap_checks(exact_s0, exact_t1, effective_s0, effective_t1, reference_gap):
    budget = CHEMICAL_ACCURACY / 3.0
    exact_gap = exact_t1 - exact_s0
    gap_error = abs((effective_t1 - effective_s0) - exact_gap)
    energy_error = abs(effective_s0 - exact_s0)
    return [
        ("exact S0-T1 gap within 1e-3 eV of %.3f" % reference_gap,
         abs(exact_gap - reference_gap) <= 1e-3, exact_gap),
        ("criterion 7: gap error below eps/3", gap_error < budget, gap_error),
        ("criterion 7: S0 energy error above eps/3", energy_error > budget, energy_error),
    ]


def anthracene_checks(vtv, vtt, reference):
    vtt_window = SE_WINDOW * (reference["frobenius_vtt_se"] + vtt.standard_error)
    return [
        ("anthracene VTV within %g SE of %.3f" % (SE_WINDOW, EXACT_VTV_ANTHRACENE),
         abs(vtv.value - EXACT_VTV_ANTHRACENE) <= SE_WINDOW * vtv.standard_error, vtv.value),
        ("anthracene VTT within %g (SE_ref + SE) of %.1f" % (SE_WINDOW, reference["frobenius_vtt"]),
         abs(vtt.value - reference["frobenius_vtt"]) <= vtt_window, vtt.value),
    ]


def bound_checks(bound, exact):
    return [("benzene VTV bound at least the dense exact norm",
             bound.value >= exact.value * (1.0 - 1e-9), bound.value - exact.value)]


def json_close(a, b, rtol):
    """Equal JSON values, with floats within ``rtol`` relative."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_close(x, y, rtol) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def artifacts_close(artifact, first_artifact, rtol):
    try:
        return json_close(json.loads(artifact), json.loads(first_artifact), rtol)
    except (TypeError, ValueError):
        return False


def cli_checks(label, rc, overall, artifact, first_artifact):
    rows = [(label + ": exit code 0", rc == 0, rc)]
    if label.startswith("reproduce"):
        rows.append((label + ": overall pass", overall == "pass", overall))
    if first_artifact is None:
        return rows
    if label in NONDETERMINISTIC_ARTIFACTS:
        rows.append((label + ": artifact equal to the first pass within rtol %g" % ARTIFACT_RTOL,
                     artifacts_close(artifact, first_artifact, ARTIFACT_RTOL),
                     len(artifact or b"")))
    else:
        rows.append((label + ": artifact byte-identical to the first pass",
                     artifact == first_artifact, len(artifact or b"")))
    return rows


# -- workloads ----------------------------------------------------------------


class GapTile:
    checks_per_pass = 3
    min_passes = 1

    def __init__(self, seed, workdir):
        self.deviations = set()

    def setup(self):
        lat = build_lattice("acene", 2)
        kin, pot = jordan_wigner(build_ppp(lat))
        self.hamiltonian = kin + pot
        classes = default_section_order(bond_orientation_classes(lat).values())
        sums = [hopping_pauli_sum(lat.n_sites, c) for c in classes]
        self.scheme = tile_scheme(sums, pot, 0.1)
        self.s0 = enumerate_sector(lat.n_sites, lat.n_sites, 0)
        self.t1 = enumerate_sector(lat.n_sites, lat.n_sites, 2)
        self.reference_gap = reference_data()["energy_gaps"]["acene2"]["s0_t1"]

    def run(self, index):
        filt = default_filter()
        energies = []
        for label, basis in (("S0", self.s0), ("T1", self.t1)):
            vals, vecs = lowest_eigenpairs(self.hamiltonian, basis, k=1, tol=1e-10)
            series = compute_time_series(self.scheme, basis, vecs[:, 0], SERIES_STEPS, label)
            energies.append((vals[0], extract_energy(series, filt, vals[0])))
        (e_s0, f_s0), (e_t1, f_t1) = energies
        return gap_checks(e_s0, e_t1, f_s0, f_t1, self.reference_gap)


class NormsAcene:
    checks_per_pass = 3
    min_passes = 2  # a pass takes about half a run; every run times two

    def __init__(self, seed, workdir):
        self.seeds = sampling_seeds(seed, 2)
        self.deviations = set()

    def setup(self):
        self.reference = reference_data()["commutator_norms"]["acene3"]
        anthracene = build_lattice("acene", 3)
        kin, pot = jordan_wigner(build_ppp(anthracene))
        self.anthracene = half_filling_sector(anthracene.n_sites)
        self.act_anthracene = HoppingCommutatorAction(kin, pot, self.anthracene)
        benzene = build_lattice("acene", 1)
        self.kin_benzene, self.pot_benzene = jordan_wigner(build_ppp(benzene))
        self.benzene = half_filling_sector(benzene.n_sites)
        self.act_benzene = HoppingCommutatorAction(
            self.kin_benzene, self.pot_benzene, self.benzene)

    def run(self, index):
        act = self.act_anthracene
        vtv = frobenius_sampled(SimpleNamespace(column_norm_sq=act.vtv_column_norm_sq),
                                self.anthracene, FROBENIUS_SAMPLES, self.seeds[0])
        vtt = frobenius_sampled(SimpleNamespace(column_norm_sq=act.vtt_column_norm_sq),
                                self.anthracene, FROBENIUS_SAMPLES, self.seeds[1])
        average_case_constant(vtv, vtt)
        bound = spectral_norm_bound(
            SimpleNamespace(abs_matvec=self.act_benzene.vtv_abs_matvec), self.benzene)
        o_vtv, _ = nested_commutators(self.kin_benzene, self.pot_benzene)
        exact = dense_spectral_norm(o_vtv, self.benzene)
        return anthracene_checks(vtv, vtt, self.reference) + bound_checks(bound, exact)


def shipped_tilings():
    """(family, size) of every tiling shipped with the package, sorted."""
    out = []
    for entry in (files("trotterlab") / "tilings").iterdir():
        stem = entry.name.removesuffix(".json")
        family = stem.rstrip("0123456789")
        out.append((family, int(stem[len(family):])))
    return sorted(out)


class DeskCli:
    min_passes = 2  # the second pass checks its artifacts against the first

    def __init__(self, seed, workdir):
        self.seeds = sampling_seeds(seed, 2)
        self.workdir = workdir
        self.deviations = set()
        self.first = None

    def setup(self):
        benzene = ["--family", "acene", "--n", "1"]
        calls = [("reproduce " + t, ["reproduce", t])
                 for t in ("table1", "table3", "table4", "fig5", "fig7")]
        calls += [("spectral benzene " + s, ["spectral", *benzene, "--scheme", s, "--t", "0.05"])
                  for s in ("SO", "tile")]
        calls.append(("norms benzene dense", ["norms", *benzene, "--method", "dense"]))
        calls.append(("norms benzene frobenius", ["norms", *benzene, "--method", "frobenius",
                                                  "--seed", str(self.seeds[0])]))
        for family, n in shipped_tilings():
            molecule = ["--family", family, "--n", str(n)]
            calls.append(("freefermion %s%d" % (family, n),
                          ["freefermion", *molecule, "--seed", str(self.seeds[1])]))
            calls.append(("resources hwp %s%d" % (family, n), ["resources", *molecule, "--hwp"]))
        constant = extrapolated_energy_constant("tile", site_count("acene", 3))
        calls.append(("resources error acene3", ["resources", "--family", "acene", "--n", "3",
                                                 "--mode", "error", "--constant", repr(constant)]))
        self.calls = calls
        self.checks_per_pass = len(calls)

    def run(self, index):
        outdir = self.workdir / ("pass-%d" % index)
        outdir.mkdir(parents=True)
        artifacts, rows = {}, []
        try:
            for label, argv in self.calls:
                path = outdir / (label.replace(" ", "_") + ".json")
                try:
                    rc = cli.main(argv + ["--out", str(path)])
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    rc = "raised"
                artifact = path.read_bytes() if path.exists() else None
                overall = None
                if artifact and label.startswith("reproduce"):
                    overall = json.loads(artifact).get("overall")
                artifacts[label] = artifact
                first = self.first[label] if self.first else None
                if label in NONDETERMINISTIC_ARTIFACTS and first is not None and artifact != first:
                    self.deviations.add(label + ": artifact bytes differ between passes")
                checks = cli_checks(label, rc, overall, artifact, first)
                rows.append((label, all(ok for _, ok, _ in checks),
                             [name for name, ok, _ in checks if not ok]))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if self.first is None:
            self.first = artifacts
        return rows


WORKLOADS = {
    "gap-2acene-tile": GapTile,
    "norms-acene": NormsAcene,
    "desk-cli": DeskCli,
}
