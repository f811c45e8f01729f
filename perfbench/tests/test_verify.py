import json

import pytest

import verify
import workloads
from workloads import Op


def run(tmp_path, command, cfg):
    import lagcheck.cli

    op = Op(0, command, cfg, tmp_path / "cfg.json", tmp_path / "report.json")
    op.config_path.write_text(json.dumps(cfg))
    code = lagcheck.cli.main(op.argv)
    return op, code, op.out_path.read_bytes()


def corrupt(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc).encode()


@pytest.fixture
def torus(tmp_path):
    return run(tmp_path, "energy", {"family": "product_torus", "radii": [0.7, 1.3, 1.9], "degree": 4})


def test_torus_report_matches_closed_forms(torus):
    assert verify.problems(*torus) == []


@pytest.mark.parametrize("name", verify.ENERGY_ENTRIES)
def test_wrong_torus_energy_is_flagged(torus, name):
    op, code, report = torus

    def edit(doc):
        doc["entries"][name] *= 1 + 1e-9

    bad = verify.problems(op, code, corrupt(report, edit))
    assert len(bad) == 1 and f"torus {name}" in bad[0]


def test_nonzero_exit_is_flagged(torus):
    op, _, report = torus
    assert verify.problems(op, 1, report) == ["exit code 1"]
    assert verify.problems(op, None, report) == ["exit code None"]
    assert verify.problems(op, 0, None) == ["no report written"]


def test_whitney_gap_is_flagged(tmp_path):
    op, code, report = run(tmp_path, "energy", {"family": "whitney_cn", "r": 1.0, "n": 3, "degree": 4})
    assert verify.problems(op, code, report) == []

    def edit(doc):
        doc["entries"]["int_hhat_sq"] = 1e-6 * doc["entries"]["int_h_sq"]

    assert "Whitney gap" in verify.problems(op, code, corrupt(report, edit))[0]


@pytest.fixture
def identities(tmp_path):
    cfg = {"family": "whitney_cn", "r": 1.0, "n": 2, "samples": 2, "seed": 3, "heavy": False}
    return run(tmp_path, "identities", cfg)


def test_identities_report_passes(identities):
    assert verify.problems(*identities) == []


def test_all_pass_false_is_flagged(identities):
    op, code, report = identities

    def edit(doc):
        doc["checks"][0]["pass"] = False
        doc["all_pass"] = False

    assert "all_pass is False" in verify.problems(op, code, corrupt(report, edit))[0]


def test_missing_check_is_flagged(identities):
    op, code, report = identities

    def edit(doc):
        doc["checks"] = [c for c in doc["checks"] if c["name"] != "maslov_closedness"]

    assert verify.problems(op, code, corrupt(report, edit)) == ["missing checks ['maslov_closedness']"]


def test_heavy_ops_expect_the_heavy_checks():
    op = Op(0, "identities", {"samples": 1}, None, None)
    assert set(op.expected_checks) == set(workloads.LIGHT_CHECKS + workloads.HEAVY_CHECKS)
    light = Op(0, "identities", {"samples": 1, "heavy": False}, None, None)
    assert light.expected_checks == workloads.LIGHT_CHECKS
