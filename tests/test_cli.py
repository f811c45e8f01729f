import json

import pytest

from lagcheck.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


class TestIdentitiesCommand:
    def test_whitney_passes_exit_zero(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "w.json",
            {"family": "whitney_cn", "r": 1.0, "n": 3, "samples": 50, "seed": 11},
        )
        out = tmp_path / "report.json"
        code = main(["identities", "--config", cfg, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["all_pass"] is True
        assert doc["kind"] == "identities"
        assert len(doc["sample_points"]) == 50

    def test_nonlagrangian_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "bad.json", {"family": "nonlagrangian_plane", "n": 2, "samples": 2, "seed": 1}
        )
        code = main(["identities", "--config", cfg, "--out", str(tmp_path / "x.json")])
        assert code == 4
        assert "Lagrangian condition violated" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {"family": "product_torus", "radii": [1.0, 2.0], "samples": 4, "seed": 7, "heavy": False},
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["identities", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["identities", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_points(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {"family": "product_torus", "radii": [1.0, 1.0], "samples": 3, "seed": 7, "heavy": False},
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["identities", "--config", cfg, "--out", str(out1)])
        main(["identities", "--config", cfg, "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_tol_scale_flag_forces_failure(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "p.json",
            {
                "family": "perturbed_whitney",
                "r": 1.0,
                "eps": 0.05,
                "mode": 1,
                "n": 2,
                "samples": 3,
                "seed": 2,
                "heavy": False,
            },
        )
        code = main(
            ["identities", "--config", cfg, "--tol-scale", "1e-12", "--out", str(tmp_path / "r.json")]
        )
        assert code == 1

    def test_config_parse_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "broken.json", "{not json at all")
        assert main(["identities", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_construction_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "neg.json", {"family": "whitney_cn", "r": -1.0, "n": 2})
        assert main(["identities", "--config", cfg]) == 3
        assert "construction error" in capsys.readouterr().err

    def test_unknown_family_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "u.json", {"family": "nope"})
        assert main(["identities", "--config", cfg]) == 2

    def test_keyvalue_config_format(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "kv.cfg", "family=product_torus\nradii=[1.0, 1.0]\nsamples=3\nseed=5\nheavy=false\n"
        )
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "kv.json")]) == 0


class TestEnergyCommand:
    def test_json_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "e.json", {"family": "product_torus", "radii": [1.0, 1.0], "degree": 12}
        )
        out = tmp_path / "energy.json"
        assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "energy"
        assert doc["entries"]["int_hhat_sq"] == pytest.approx(19.739208802178716, rel=1e-9)

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "e.json", {"family": "product_torus", "radii": [1.0, 1.0], "degree": 8}
        )
        out = tmp_path / "energy.csv"
        assert main(["energy", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,value,degree,node_count"

    def test_table_format(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "e.json", {"family": "product_torus", "radii": [1.0, 1.0], "degree": 8}
        )
        assert main(["energy", "--config", cfg, "--format", "table"]) == 0
        text = capsys.readouterr().out
        assert "energy report" in text
        assert "int_hhat_sq" in text

    @pytest.mark.parametrize(
        "body",
        [
            {"family": "whitney_cn", "r": 5e-3, "n": 3},
            {"family": "product_torus", "radii": [0.002, 0.003, 0.004]},
        ],
    )
    def test_small_bodies_are_not_degenerate(self, tmp_path, body):
        cfg = write_cfg(tmp_path, "small.json", {**body, "degree": 6})
        assert main(["energy", "--config", cfg, "--out", str(tmp_path / "e.json")]) == 0

    def test_whitney_energy_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 16})
        out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
        main(["energy", "--config", cfg, "--out", str(out1)])
        main(["energy", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestScanCommand:
    def test_whitney_radius_scan(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "scan.json",
            {
                "family": "whitney_cn",
                "r": 1.0,
                "n": 2,
                "degree": 12,
                "scan_param": "r",
                "values": [0.5, 1.0, 2.0],
            },
        )
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,")
        params = [float(line.split(",")[0]) for line in lines[1:]]
        assert params == sorted(params) == [0.5, 1.0, 2.0]
        gap = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(g < 1e-7 for g in gap)

    def test_perturbation_scan_nondecreasing_gap(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "scan.json",
            {
                "family": "perturbed_whitney",
                "r": 1.0,
                "eps": 0.0,
                "mode": 1,
                "n": 2,
                "degree": 12,
                "scan_param": "eps",
                "values": [0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
            },
        )
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        gap = [float(r.split(",")[2]) for r in rows]
        assert gap[0] < 1e-12
        assert all(g >= -1e-9 for g in gap)

    def test_torus_radius_scan_matches_closed_form(self, tmp_path):
        import math

        cfg = write_cfg(
            tmp_path,
            "scan.json",
            {
                "family": "product_torus",
                "radii": [1.0, 1.0],
                "degree": 12,
                "scan_param": "radii.1",
                "values": [1.0, 2.0, 4.0],
            },
        )
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cols = [float(x) for x in line.split(",")]
            t = cols[0]
            area = 4 * math.pi**2 * t
            h_sq = 1.0 + 1.0 / t**2
            expected = area * (h_sq - 0.75 * h_sq)  # |hhat|^2 = |h|^2 - 3n^2/(n+2)|H|^2
            assert cols[3] == pytest.approx(expected, rel=1e-6)

    def test_scan_requires_values(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.json", {"family": "whitney_cn", "scan_param": "r"})
        assert main(["scan", "--config", cfg]) == 2


class TestReportCommand:
    def test_pretty_print(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "t.json", {"family": "product_torus", "radii": [1.0, 1.0], "samples": 2, "seed": 3, "heavy": False}
        )
        out = tmp_path / "rep.json"
        main(["identities", "--config", cfg, "--out", str(out)])
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "identities report" in text
        assert "all_pass: True" in text

    def test_missing_file_is_config_error(self):
        assert main(["report", "/nonexistent/report.json"]) == 2
