"""Each output check of the benchmark accepts a real biham3 output and
rejects the same output with one thing made wrong.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from fractions import Fraction

import pytest

from biham3 import catalog, cli, verify
from perfbench import checks, workloads


def test_flipped_report_claiming_to_pass_is_rejected():
    texts = workloads.formulas("lu-transformed")
    params = {"alpha": "2"}
    defn = catalog.instantiate("lu-transformed", {"alpha": Fraction(2)})
    report = verify.verify_structure(
        verify.flipped_sign_variant(defn, 1), verify.SampleConfig(n=50)
    ).to_dict(deterministic=True)
    checker = checks.VerifyChecker()
    checker.check_flipped("lu-transformed", texts, params, 1, report)

    report["pass"] = True
    for c in report["checks"]:
        c["pass"] = True
    with pytest.raises(checks.CheckError, match="control passes"):
        checker.check_flipped("lu-transformed", texts, params, 1, report)


def test_trajectory_with_one_row_perturbed_is_rejected(tmp_path):
    out = tmp_path / "traj.csv"
    init = [1.0, 1.0, 1.0]
    argv = ["simulate", "lu-transformed", "--init", "1,1,1", "--t1", "2", "--monitors", "h1,h2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    header, data = checks.read_csv(out)
    field = workloads.formulas("lu-transformed")["field"]
    checks.check_lu_trajectory(header, data, init, 2.0, alpha=1.0)
    checks.check_against_scipy(data, field, {"alpha": 1}, init, 2.0)

    data[100, 1] *= 1 + 1e-4
    with pytest.raises(checks.CheckError, match="differs from scipy"):
        checks.check_against_scipy(data, field, {"alpha": 1}, init, 2.0)


def test_candidate_with_one_coefficient_changed_is_rejected(tmp_path):
    out = tmp_path / "disc.json"
    argv = ["discover", "lu-transformed", "--degree", "2", "--functional", "spatial"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    texts = workloads.formulas("lu-transformed")
    checks.DiscoveryChecker(texts, {"alpha": 1}, seed=1).check(doc)

    labels = doc["basis"]["elements"]
    cand = max(doc["candidates"], key=lambda c: sum(x != 0 for x in c["coefficients"]))
    j = next(i for i, x in enumerate(cand["coefficients"]) if x != 0 and labels[i] != "1")
    cand["coefficients"][j] += 0.1
    with pytest.raises(checks.CheckError, match="grad\\(F\\).X"):
        checks.DiscoveryChecker(texts, {"alpha": 1}, seed=1).check(doc)
