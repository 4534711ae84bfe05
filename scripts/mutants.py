"""Planted-defect (mutation) check: each recorded defect must fail its tests.

Every row of ``MUTANTS`` plants one defect, an exact text replacement in one
file, in a fresh copy of ``src/``, ``tests/`` and ``pyproject.toml``.  Then
each test it names runs on that copy with ``pytest -x``, and each must fail:
a test that passes lets the defect survive, and the claim the row quotes
(a CHANGES.md entry or a ROADMAP item) no longer holds.

    python scripts/mutants.py

Exits 1 if a mutant survives, if a row's old text does not occur exactly
once in its file (a refactor moved it: update the row), or if pytest cannot
run a named test.  Each row prints its result and wall time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    claim: str


MUTANTS = [
    Mutant("dephasing-rate", "src/cavqed/polariton.py",
           "0.5 * (self.gamma_x_GHz - self.gamma_b_GHz)",
           "(self.gamma_x_GHz - self.gamma_b_GHz)",
           ("tests/test_dynamics.py::test_coherence_block_holds_the_closed_form_eigenvalues",),
           "ROADMAP item 4: dephasing rate (γ_x − γ_b)/2 → (γ_x − γ_b)"),
    Mutant("capture-without-blocked-term", "src/cavqed/trajectories.py",
           " + engine.sandwich(blocked)", "",
           ("tests/test_trajectories.py::test_dark_detected_channel_keeps_its_label",),
           "ROADMAP item 4: capture map without its Pauli-blocked term"),
    Mutant("click-weights-swapped", "src/cavqed/trajectories.py",
           "itertools.accumulate(weights)", "itertools.accumulate(weights[::-1])",
           ("tests/test_trajectories.py::test_engine_matches_reference",),
           "ROADMAP item 4: click channel drawn with swapped weights"),
    Mutant("start-stop-no-tie-correction", "src/cavqed/hbt.py",
           "first = below - tied if tied.any() else below", "first = below",
           ("tests/test_hbt.py::TestStartStopHistogram::test_both_estimators_match_matrix_reference",
            "tests/test_hbt.py::TestStartStopHistogram::test_block_boundaries"),
           "CHANGES.md, one start-stop search per block: tie correction removed"),
    Mutant("start-stop-zero-on-negative-side", "src/cavqed/hbt.py",
           "before[(before < 0) & (before >= -reach)]",
           "before[(before <= 0) & (before >= -reach)]",
           ("tests/test_hbt.py::TestStartStopHistogram::test_both_estimators_match_matrix_reference",
            "tests/test_hbt.py::TestStartStopHistogram::test_block_boundaries"),
           "CHANGES.md, one start-stop search per block: zero delays kept on the negative side"),
    Mutant("start-stop-block-edge", "src/cavqed/hbt.py",
           "for j0 in range(done, end, _BLOCK):",
           "for j0 in range(done + (b > 0), end, _BLOCK):",
           ("tests/test_hbt.py::TestStartStopHistogram::test_both_estimators_match_matrix_reference",
            "tests/test_hbt.py::TestStartStopHistogram::test_block_boundaries"),
           "CHANGES.md, one start-stop search per block: stop range one too far at a block edge"),
    Mutant("all-pairs-no-widening", "src/cavqed/hbt.py",
           "reach = edges[-1] + 4 * np.spacing(scale)", "reach = edges[-1]",
           ("tests/test_hbt.py::TestStartStopHistogram::test_all_pairs_matches_reference",),
           "CHANGES.md, bounded-memory all-pairs: search bounds widened by 4 ulps"),
    Mutant("resolvent-without-cluster", "src/cavqed/dynamics.py",
           "total[rows] += (cz * r[g]).sum(axis=1)", "pass",
           ("tests/test_dynamics.py::TestEmissionSpectrum::test_forced_fallback_on_field_block",),
           "CHANGES.md, one block form: the resolvent's cluster term"),
    Mutant("stretch-ignores-cluster", "src/cavqed/trajectories.py",
           "y[g] = scipy.linalg.expm(t * s) @ c[g]", "pass",
           ("tests/test_trajectories.py::test_ill_conditioned_drift_matches_expm",
            "tests/test_trajectories.py::test_engine_matches_reference"),
           "CHANGES.md, one block form: the engine's stretch on the cluster"),
    Mutant("null-mode-in-cluster", "src/cavqed/dynamics.py",
           "floor = _null_floor(evals)", "floor = 0.0",
           ("tests/test_dynamics.py::TestG2::test_modal_sum_matches_full_propagation",
            "tests/test_dynamics.py::test_row_slices_leave_sums_unchanged"),
           "CHANGES.md, one block form: the null mode stays an eigenvector"),
    Mutant("triangular-cluster-unmixed", "src/cavqed/dynamics.py",
           "if not np.tril(vinv[g] @ gen @ vecs[:, g], -1).any():", "if False:",
           ("tests/test_dynamics.py::TestEvolve::test_triangular_cluster_matches_expm",),
           "CHANGES.md, one block form: a triangular T is mixed off expm's triangular path"),
    Mutant("unsliced-cluster-stack", "src/cavqed/dynamics.py",
           "for rows in _row_slices(tau_grid.size, g.size):", "for rows in [slice(None)]:",
           ("tests/test_dynamics.py::test_cluster_memory_bounded",),
           "CHANGES.md, one block form: cluster terms sliced by _ROWS // m rows"),
    Mutant("detuning-offset", "src/cavqed/hilbert.py",
           "-detuning_GHz(detuning) * (sig_d @ sig)",
           "-(detuning_GHz(detuning) + 1.0) * (sig_d @ sig)",
           ("tests/test_identities.py::test_rate_time_scaling",
            "tests/test_identities.py::test_detuning_mirror"),
           "ROADMAP item 5: a fixed 1 GHz added to the detuning breaks both identities"),
    Mutant("stale-jacobian", "src/cavqed/fitkit.py",
           "x, r, cost, jacobian = x_new, r_new, cost_new, jac_new",
           "x, r, cost = x_new, r_new, cost_new",
           ("tests/test_fitkit.py::TestEngine::test_jacobian_asked_for_only_at_the_last_residual_point",),
           "CHANGES.md, one callable per fit model: an accepted step keeps the old Jacobian"),
    Mutant("deviance-expansion-sign", "src/cavqed/fitkit.py",
           "-(1.0 - x / 6.0)", "-(1.0 + x / 6.0)",
           ("tests/test_fitkit.py::TestDecay::test_analytic_jacobian_matches_central_differences",),
           "CHANGES.md, one callable per fit model: the deviance slope's expansion near c = mu"),
    Mutant("emg-without-gauss-term", "src/cavqed/fitkit.py",
           " + sigma**2 * gauss / tau**2", "",
           ("tests/test_fitkit.py::TestDecay::test_analytic_jacobian_matches_central_differences",),
           "CHANGES.md, one callable per fit model: dK/dtau of the IRF-blurred kernel"),
    Mutant("voigt-derivative-unscaled", "src/cavqed/fitkit.py",
           "2j / (math.pi * scale)", "2j / math.pi",
           ("tests/test_fitkit.py::TestLorentzians::test_analytic_jacobian_matches_central_differences",),
           "CHANGES.md, one callable per fit model: the Faddeeva derivative's constant in F'"),
    Mutant("floored-mean-keeps-slope", "src/cavqed/fitkit.py",
           "slope = np.where(mu_raw > floor, slope, 0.0)", "pass",
           ("tests/test_fitkit.py::TestDecay::test_analytic_jacobian_matches_central_differences",),
           "CHANGES.md, one callable per fit model: deviance rows flat below the mean floor"),
]


def run(mutant: Mutant, scratch: Path) -> list[str]:
    """Problems with one row: surviving tests or a stale row; empty when killed."""
    text = (ROOT / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        return [f"old text occurs {text.count(mutant.old)} times in {mutant.path}"]
    copy = scratch / mutant.name
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(ROOT / "tests", copy / "tests")
    shutil.copy(ROOT / "pyproject.toml", copy)
    (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    problems = []
    for test in mutant.tests:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             test],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        # pytest exits 1 when a test failed; 0 lets the mutant survive, and
        # any other code means the test could not run.
        if code == 0:
            problems.append(f"survived {test}")
        elif code != 1:
            problems.append(f"pytest exit {code} on {test}")
    return problems


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in MUTANTS:
            start = time.perf_counter()
            problems = run(mutant, Path(tmp))
            took = time.perf_counter() - start
            print(f"{'killed' if not problems else 'FAILED'} {mutant.name} in {took:.1f} s"
                  f" ({mutant.claim})", flush=True)
            for problem in problems:
                print(f"    {problem}")
            failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
