"""Self-test of the benchmark's output checks: each check passes on a correct
output and fails on a wrong one, and no other check fails with it.

    python3 perfbench/selftest.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def estimate(value, standard_error=0.0):
    return SimpleNamespace(value=value, standard_error=standard_error)


def cases():
    """(check, good arguments, {row index: arguments that fail only that row})."""
    gap = 2.5286
    ref_gap = workloads.reference_data()["energy_gaps"]["acene2"]["s0_t1"]
    yield workloads.gap_checks, (0.0, gap, 0.2324, gap + 0.2279, ref_gap), {
        0: (0.0, gap + 0.003, 0.2324, gap + 0.003 + 0.2279, ref_gap),
        1: (0.0, gap, 0.2324, gap + 0.2524, ref_gap),
        2: (0.0, gap, 0.001, gap - 0.0035, ref_gap),
    }
    ref = workloads.reference_data()["commutator_norms"]["acene3"]
    vtv_far = workloads.EXACT_VTV_ANTHRACENE + 4.5 * 2.9
    vtt_far = ref["frobenius_vtt"] - workloads.SE_WINDOW * (ref["frobenius_vtt_se"] + 2.4) - 1.0
    yield workloads.anthracene_checks, (estimate(287.9, 2.9), estimate(360.0, 2.4), ref), {
        0: (estimate(vtv_far, 2.9), estimate(360.0, 2.4), ref),
        1: (estimate(287.9, 2.9), estimate(vtt_far, 2.4), ref),
    }
    yield workloads.bound_checks, (estimate(535.5), estimate(535.48)), {
        0: (estimate(500.0), estimate(535.48)),
    }
    label = "reproduce table1"
    yield workloads.cli_checks, (label, 0, "pass", b"{}", b"{}"), {
        0: (label, 1, "pass", b"{}", b"{}"),
        1: (label, 0, "fail", b"{}", b"{}"),
        2: (label, 0, "pass", b"{ }", b"{}"),
    }
    label = workloads.NONDETERMINISTIC_ARTIFACTS[0]
    first = b'{"rows": [{"computed": 2.5286228687915298, "status": "pass"}]}'
    last_bits = b'{"rows": [{"computed": 2.528622868791526, "status": "pass"}]}'
    moved = b'{"rows": [{"computed": 2.5286228787915298, "status": "pass"}]}'
    yield workloads.cli_checks, (label, 0, "pass", last_bits, first), {
        0: (label, 2, "pass", last_bits, first),
        1: (label, 0, "fail", last_bits, first),
        2: (label, 0, "pass", moved, first),
    }


def main():
    problems = []
    for check, good, bad in cases():
        rows = check(*good)
        if not all(ok for _, ok, _ in rows):
            problems.append("%s fails on a correct output" % check.__name__)
        for index in range(len(rows)):
            if index not in bad:
                problems.append("%s: no failing case for %r" % (check.__name__, rows[index][0]))
                continue
            failing = [i for i, (_, ok, _) in enumerate(check(*bad[index])) if not ok]
            verdict = "can fail" if failing == [index] else "WRONG: rows %s failed" % failing
            if failing != [index]:
                problems.append("%s: %r %s" % (check.__name__, rows[index][0], verdict))
            print("%-18s %-62s %s" % (check.__name__, rows[index][0], verdict))
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
