import ctypes
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lagcheck
from lagcheck import cli, quadrature
from lagcheck.cli import main
from lagcheck.identities import RUNG, run_identity_suite
from lagcheck.immersions import Draws, linear_image, make_lagrangian_plane, make_product_torus, make_whitney_cn
from lagcheck.quadrature import energy_report, sphere_rule, torus_rule
from reference import CONFIGS


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def scan_columns(path) -> dict[str, tuple[float, ...]]:
    """The columns of a scan CSV, by their header names."""
    header, *rows = Path(path).read_text().splitlines()
    return dict(zip(header.split(","), zip(*([float(x) for x in row.split(",")] for row in rows))))


def test_energy_overflow_is_one_line(tmp_path, capsys):
    """An energy that overflows reaches stderr as the one diagnostic line,
    with no floating-point warning ahead of it."""
    cfg = write_cfg(tmp_path, "big.json", {"family": "whitney_cn", "r": 1e120, "n": 3, "degree": 4})
    assert main(["energy", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("evaluation error: energy entries are not finite")


def test_unallocatable_rule_is_one_line(tmp_path, capsys, monkeypatch):
    """A rule too large to allocate is an evaluation error with the one
    diagnostic line, not a traceback and not "a check failed".  The degree
    keeps the rule within MAX_NODES; the patched rule raises anyway."""

    def sphere_rule(n, degree):
        raise MemoryError(f"Unable to allocate {8 * degree**n} bytes for the rule")

    monkeypatch.setattr(quadrature, "sphere_rule", sphere_rule)
    quadrature._shared_rule.cache_clear()
    cfg = write_cfg(tmp_path, "huge.json", {"family": "whitney_cn", "r": 1.0, "n": 3, "degree": 100})
    assert 100**3 <= cli.MAX_NODES
    assert main(["energy", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["evaluation error: Unable to allocate 8000000 bytes for the rule"]


@pytest.mark.parametrize(
    "command,body,nodes",
    [
        ("energy", {"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 4000}, 4000**2),
        # the base body (n = 2) is within the bound, the scanned n = 3 is not
        ("scan", {"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 200, "scan_param": "n", "values": [2, 3]}, 200**3),
    ],
    ids=["energy-n2", "scan-n"],
)
def test_rule_over_the_node_bound_is_refused_at_once(tmp_path, capsys, monkeypatch, command, body, nodes):
    """A degree within MAX_DEGREE whose degree^n nodes exceed MAX_NODES
    (1.6e7 nodes at degree 4000 on S^2, several GB) is a config error with
    one line, before any rule is built."""

    def no_rule(*args):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(quadrature, "_shared_rule", no_rule)
    cfg = write_cfg(tmp_path, "nodes.json", body)
    start = time.perf_counter()
    assert main([command, "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: degree {body['degree']} gives {nodes} rule nodes, more than {cli.MAX_NODES}"
    ]


@pytest.mark.parametrize(
    "body",
    [{"family": "whitney_cn", "r": 1.0, "n": 3}, {"family": "product_torus", "radii": [1.0]}],
    ids=["whitney-n3", "torus-n1"],
)
def test_huge_degree_is_refused_at_once(tmp_path, capsys, body):
    """A degree whose Gauss-Legendre nodes alone would never finish is a
    config error with one line, even where the rule would be small (n = 1)."""
    cfg = write_cfg(tmp_path, "huge.json", {**body, "degree": 10**6})
    start = time.perf_counter()
    assert main(["energy", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: 'degree' must be at most {cli.MAX_DEGREE}, got 1000000"]


class TestAllocatorSetting:
    """`main` has glibc keep freed memory; without glibc's `mallopt` that is
    a no-op, and no report depends on it."""

    @pytest.fixture(autouse=True)
    def reset(self):
        cli.keep_freed_memory.cache_clear()
        yield
        cli.keep_freed_memory.cache_clear()

    def test_reports_do_not_depend_on_mallopt(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cpn", "theta": 0.7, "n": 3, "degree": 10})

        def energy_bytes(name):
            out = tmp_path / name
            assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
            return out.read_bytes()

        def no_library(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        def library_without_mallopt(name, *args, **kwargs):
            return SimpleNamespace()

        base = energy_bytes("glibc.json")
        for fake in (no_library, library_without_mallopt):
            monkeypatch.setattr(ctypes, "CDLL", fake)
            cli.keep_freed_memory.cache_clear()
            assert energy_bytes(f"{fake.__name__}.json") == base

    def test_import_sets_nothing(self):
        """Importing lagcheck looks up no `mallopt`; `main` looks it up once."""
        script = textwrap.dedent(
            """
            import ctypes

            asked = []

            class Spy(ctypes.CDLL):
                def __getattr__(self, name):
                    asked.append(name)
                    return super().__getattr__(name)

            ctypes.CDLL = Spy
            import lagcheck
            import lagcheck.cli

            print(asked.count("mallopt"))
            for _ in range(2):
                lagcheck.cli.main(["report", "missing.json"])
            print(asked.count("mallopt"))
            """
        )
        src = str(Path(lagcheck.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "1"]


def test_huge_whitney_identities_are_warning_free_and_unsigned(tmp_path):
    """r = 1e120 overflows det g but no check: the suite runs without a
    warning, and a zero residual is written +0.0, never -0.0."""
    cfg = write_cfg(
        tmp_path, "big.json", {"family": "whitney_cn", "r": 1e120, "n": 3, "samples": 3, "seed": 1}
    )
    out = tmp_path / "report.json"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert "simons_inequality_margin" in [c["name"] for c in checks]
    for c in checks:
        assert not np.signbit(c["max_residual"]) and not np.signbit(c["headroom"]), c


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
        assert doc["schema"] == 2
        assert doc["all_pass"] is True
        assert doc["kind"] == "identities"
        assert len(doc["sample_points"]) == 50

    @pytest.mark.parametrize("body", sorted(set(CONFIGS) - {"nonlagrangian_plane"}))
    def test_bodies_pass_at_the_default_samples(self, tmp_path, body):
        """Each Lagrangian body of the corpus passes every check, heavy ones
        included, at the 20 samples the command draws by default, and the
        report lists each sample's integer chart id and its n chart
        coordinates."""
        out = tmp_path / "report.json"
        assert main(["identities", "--config", write_cfg(tmp_path, "b.json", CONFIGS[body]), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] and len(doc["sample_points"]) == 20
        for p in doc["sample_points"]:
            assert type(p["chart_id"]) is int and p["chart_id"] in (0, 1) and len(p["coords"]) == 3, p

    def test_nonlagrangian_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "bad.json", {"family": "nonlagrangian_plane", "n": 2, "samples": 2, "seed": 1}
        )
        code = main(["identities", "--config", cfg, "--out", str(tmp_path / "x.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert "Lagrangian condition violated" in err
        assert "sample 0: chart 0, coords [" in err

    @pytest.mark.parametrize("delta,code", [(1e-8, 1), (2e-6, 4)])
    def test_slightly_nonlagrangian_plane_fails_the_check(self, tmp_path, capsys, monkeypatch, delta, code):
        """A plane sheared by Im z_3 += delta Re z_1 is not Lagrangian: below
        the bundle's LAGRANGIAN_TOL it reaches the report and fails
        `lagrangian_condition` there, above it the bundle refuses it."""
        shear = np.eye(6)
        shear[5, 0] = delta

        def sheared_plane(params):
            return linear_image(make_lagrangian_plane(cli.integer(params.get("n", 2), "n")), shear)

        monkeypatch.setitem(cli.FAMILIES, "sheared_plane", sheared_plane)
        cfg = write_cfg(tmp_path, "shear.json", {"family": "sheared_plane", "n": 3, "samples": 20, "seed": 7})
        out = tmp_path / "shear-report.json"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == code
        if code == 4:
            assert "Lagrangian condition violated" in capsys.readouterr().err and not out.exists()
            return
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["lagrangian_condition"]
        assert failed[0]["max_residual"] == pytest.approx(delta, rel=1e-6)

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

    def test_json_is_the_suite_document(self, tmp_path):
        cfg = write_cfg(tmp_path, "t.json", {**TORUS, "samples": 3, "seed": 4, "heavy": False})
        out = tmp_path / "r.json"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        imm = make_product_torus([1.0, 1.0])
        points = imm.atlas.random(Draws(4), 3)
        doc = run_identity_suite(imm, *points, seed=4, heavy=False)
        assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_seed_changes_points(self, tmp_path):
        body = {"family": "product_torus", "radii": [1.0, 1.0], "samples": 3, "heavy": False}
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["identities", "--config", write_cfg(tmp_path, "7.json", {**body, "seed": 7}), "--out", str(out1)])
        main(["identities", "--config", write_cfg(tmp_path, "8.json", {**body, "seed": 8}), "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_tol_scale_forces_failure(self, tmp_path):
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
                "tol_scale": 1e-12,
            },
        )
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1

    def test_tol_scale_at_the_floor_gives_finite_headrooms(self, tmp_path):
        """The least accepted `tol_scale` leaves the tolerance a normal
        float, and the report's headrooms finite."""
        body = {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 3, "samples": 5}
        cfg = write_cfg(tmp_path, "p.json", {**body, "tol_scale": tol_floor()})
        out = tmp_path / "r.json"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 1
        assert "Infinity" not in out.read_text()
        checks = json.loads(out.read_text())["checks"]
        assert min(c["tolerance"] for c in checks) >= TINY
        assert all(np.isfinite(c["headroom"]) for c in checks)

    @pytest.mark.parametrize("r, seed", [(1e-4, 7), (1e-8, 0), (1e-20, 0)])
    def test_small_whitney_spheres_are_reported(self, tmp_path, capsys, r, seed):
        """A small valid body is evaluated, reported and passes, with nothing
        on stderr: each residual is measured against its own terms."""
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cn", "r": r, "n": 3, "samples": 20, "seed": seed})
        out = tmp_path / "r.json"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(json.loads(out.read_text())["sample_points"]) == 20

    @pytest.mark.parametrize("r", [1e-77, 1e-100, 1e-150])
    def test_light_suite_passes_where_grad_h_squared_overflows(self, tmp_path, capsys, r):
        """Below r = 1e-76 the sum of squares of grad h overflows, and the
        floors of the light checks take |grad h| from its max-scaled
        entries: the light suite of a valid body still passes."""
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cn", "r": r, "n": 3, "samples": 20, "seed": 7,
                                             "heavy": False})
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("theta", [5, 10, 15, 20])
    def test_small_cpn_whitney_spheres_pass(self, tmp_path, theta):
        """`whitney_cpn` shrinks as theta grows, far below the curvature
        radius of CP^n (|h|^2 is 1.8e9 at theta = 10), and still passes."""
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cpn", "theta": theta, "n": 3, "samples": 20, "seed": 7})
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

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

    def test_keyvalue_config_is_refused(self, tmp_path, capsys):
        """A config is one JSON object: key=value lines are a config error
        with one line and no report."""
        cfg = write_cfg(
            tmp_path, "kv.cfg", "family=product_torus\nradii=[1.0, 1.0]\nsamples=3\nseed=5\nheavy=false\n"
        )
        out = tmp_path / "kv.json"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config {cfg}: ") and len(err.splitlines()) == 1
        assert not out.exists()


def test_report_params_rebuild_the_body(tmp_path):
    """The `params` of a body, read back as a config of its family, rebuild
    it: on every corpus config, which between them cover every family, the
    params are equal and so are the report bytes, energy at degree 6 on the
    compact bodies and a 4-sample identities run on the Lagrangian plane
    (the non-Lagrangian plane has no report)."""
    assert {cfg["family"] for cfg in CONFIGS.values()} == set(cli.FAMILIES)
    for name, cfg in CONFIGS.items():
        imm = cli.build_immersion(cfg, "identities")
        again = {"family": cfg["family"], **imm.params}
        assert cli.build_immersion(again, "identities").params == imm.params, name
        if name == "nonlagrangian_plane":
            continue
        command, run = ("identities", {"samples": 4}) if name == "lagrangian_plane" else ("energy", {"degree": 6})
        reports = []
        for k, body in enumerate((cfg, again)):
            out = tmp_path / f"{name}-{k}.json"
            assert main([command, "--config", write_cfg(tmp_path, "c.json", {**body, **run}), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name


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
        doc = energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 8))
        rows = [f"{name},{value!r},8,64" for name, value in doc["entries"].items()]
        assert list(doc["entries"]) == ["int_H_sq", "int_h_sq", "int_hhat_n", "int_hhat_sq", "volume"]
        assert out.read_text().splitlines() == ["name,value,degree,node_count", *rows]

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

    def test_run_only_flags_are_refused(self, tmp_path, capsys):
        """`seed` and `tol_scale` are set in the config only, by no command's flag."""
        out = tmp_path / "out.json"
        for command, body in (("energy", {**TORUS, "degree": 4}), ("identities", {**TORUS, "samples": 2})):
            cfg = write_cfg(tmp_path, f"{command}.json", body)
            for flags in (["--seed", "3"], ["--tol-scale", "2"]):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--config", cfg, *flags, "--out", str(out)])
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
                assert not out.exists()

    def test_whitney_energy_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", {"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 16})
        out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
        main(["energy", "--config", cfg, "--out", str(out1)])
        main(["energy", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


UNDERFLOW = "induced volume density 0.0 is below the least normal float 2.2250738585072014e-308"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("energy", {"family": "whitney_cn", "r": 1e160, "n": 2, "degree": 4}, "induced metric not finite"),
        ("energy", {"family": "whitney_cn", "r": 1e300, "n": 2, "degree": 4}, "induced metric not finite"),
        ("identities", {"family": "whitney_cn", "r": 1e300, "n": 2, "samples": 2}, "induced metric not finite"),
        # the entries in the report's order, sorted by name
        (
            "energy",
            {"family": "whitney_cn", "r": 1e120, "n": 3, "degree": 4},
            "energy entries are not finite: {'int_H_sq': inf, 'int_h_sq': inf, 'int_hhat_n': nan, "
            "'int_hhat_sq': inf, 'volume': inf}",
        ),
        # the density underflows to zero, where hhat_sq ** (n / 2) overflows too
        ("energy", {"family": "whitney_cn", "r": 1e-120, "n": 3, "degree": 4}, UNDERFLOW),
        ("energy", {"family": "perturbed_whitney", "r": 1e-120, "eps": 0.05, "mode": 1, "n": 3, "degree": 4},
         UNDERFLOW),
        ("energy", {"family": "product_torus", "radii": [1e-120] * 3, "degree": 4}, UNDERFLOW),
        # the family's own jet and the CP^n lift overflow
        ("energy", {"family": "whitney_cpn", "theta": 500, "n": 3, "degree": 4}, "induced metric not finite"),
    ],
    ids=[
        "energy-r-1e160", "energy-r-1e300", "identities-r-1e300", "energy-volume-overflow", "energy-whitney-1e-120",
        "energy-perturbed-1e-120", "energy-torus-1e-120", "energy-whitney-cpn-theta-500",
    ],
)
def test_overflowing_bodies_are_evaluation_errors(tmp_path, capsys, command, payload, message):
    """A body whose metric or energies overflow or underflow stops with
    exit 4, writes nothing and raises no floating-point warning."""
    cfg = write_cfg(tmp_path, "big.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: ") and message in err
    if "induced" in message:
        assert "chart " in err and "coords [" in err
    assert not out.exists()


PERTURBED_HUGE = {"family": "perturbed_whitney", "r": 1e200, "eps": 0.05, "mode": 1, "n": 3}
WHITNEY3 = {"family": "whitney_cn", "n": 3}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("energy", {**PERTURBED_HUGE, "degree": 4}, "induced metric not finite"),
        ("identities", PERTURBED_HUGE, "sample 0: chart 1, coords ["),
        ("energy", {**WHITNEY3, "r": 1e200, "degree": 4}, "induced metric not finite"),
        ("identities", {**WHITNEY3, "r": 1e200}, "induced metric not finite"),
        # the density r^3 is subnormal, or zero: the integrals would stray from the dilation law, or read 0
        ("energy", {**WHITNEY3, "r": 1e-105, "degree": 4}, "induced volume density 1.059922587e-315 is below"),
        ("energy", {**WHITNEY3, "r": 1e-108, "degree": 4}, UNDERFLOW),
        # the Laplace contraction's own terms overflow (inf - inf)
        ("identities", {**WHITNEY3, "r": 1e-100}, "sample 0: laplace_contraction residual is not finite"),
        # |grad h|^2, the weight-4 floor, overflows while no residual does (the
        # Laplace contraction's, before its divisor, is 3.0e278): r / inf
        # would pass; the lighter floors, |grad h| from its max-scaled
        # entries, stay finite
        ("identities", {**WHITNEY3, "r": 1e-77}, "sample 0: laplace_contraction residual is not finite"),
        ("identities", {**WHITNEY3, "r": 1e-160}, "sample 0: tri_symmetry residual is not finite"),
        # |h|^2 overflows: the weight-1 floor and the norm identity's terms
        ("identities", {**WHITNEY3, "r": 1e-154, "heavy": False}, "sample 0: tri_symmetry residual is not finite"),
        ("identities", {**WHITNEY3, "r": 1e-160, "seed": 13}, "residual is not finite"),
        ("identities", {"family": "product_torus", "radii": [1e-100, 2e-100]}, "residual is not finite"),
        # |phi(0)|^2 of the family's representative overflows ahead of the lift
        *(
            ("identities", {"family": "whitney_cpn", "theta": theta, "n": 3, "heavy": heavy},
             "induced metric degenerate")
            for theta in (180, 200, 300)
            for heavy in (True, False)
        ),
    ],
    ids=[
        "energy-perturbed-1e200", "identities-perturbed-1e200", "energy-whitney-1e200", "identities-whitney-1e200",
        "energy-whitney-1e-105", "energy-whitney-1e-108", "identities-whitney-1e-100", "identities-whitney-1e-77-floor",
        "identities-whitney-1e-160", "identities-whitney-1e-154-light", "identities-whitney-1e-160-spectral",
        "identities-torus-1e-100",
        *(f"identities-whitney-cpn-theta-{theta}-{kind}" for theta in (180, 200, 300) for kind in ("heavy", "light")),
    ],
)
def test_bodies_past_float_range_exit_four_with_one_line(tmp_path, command, payload, message):
    """A body whose metric is not finite or whose residuals, or the terms
    and floors they are divided by, overflow (at seed 13 the spectral
    cross-check's input hhat . H overflows too) stops the console entry
    point with exit 4 and one stderr line: no traceback, no floating-point
    warning and no report."""
    cfg = write_cfg(tmp_path, "far.json", payload)
    out = tmp_path / "out.json"
    env = {**os.environ, "PYTHONPATH": str(Path(lagcheck.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "lagcheck.cli", command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 4, run.stderr
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr, run.stderr
    assert run.stderr.startswith("evaluation error: ") and message in run.stderr
    assert not out.exists()


WHITNEY3_A = {"family": "whitney_cn", "r": 1.0, "n": 3}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("identities", {**WHITNEY3_A, "A": [[0.1, 0.2], [0.3]]}),
        ("energy", {**WHITNEY3_A, "A": [[0.1, 0.2], [0.3]], "degree": 4}),
        ("identities", {**WHITNEY3_A, "A": [[0.1, 0.2, 0.3], [0.0, 0.0], [0.0, 0.0]]}),
        ("identities", {**WHITNEY3_A, "A": [[0.1, True], 0.0, 0.0]}),
        ("identities", {**WHITNEY3_A, "A": ["0.1", 0.0, 0.0]}),
        ("identities", {**WHITNEY3_A, "A": 0.1}),
        ("energy", {"family": "product_torus", "radii": [[1.0, 2.0]], "degree": 4}),
        ("identities", {"family": "product_torus", "radii": [[1.0, 2.0]]}),
        ("identities", {"family": "whitney_cn", "n": 2.9}),
        ("identities", {"family": "lagrangian_plane", "n": 2.5}),
        ("identities", {"family": "lagrangian_plane", "n": True}),
        ("identities", {"family": "whitney_cpn", "n": 3.5}),
        ("identities", {"family": "rpn", "n": "3"}),
        ("identities", {"family": "perturbed_whitney", "eps": 0.05, "mode": 1.5}),
        ("identities", {"family": "perturbed_whitney", "eps": 0.05, "mode": -1}),
        ("identities", {"family": "perturbed_whitney", "eps": 0.05, "mode": -5000}),
        ("energy", {"family": "whitney_cn", "r": True, "n": 2, "degree": 4}),
        ("identities", {"family": "whitney_cn", "r": "2", "n": 2}),
        ("energy", {"family": "whitney_cn", "r": float("nan"), "n": 2, "degree": 4}),
        ("energy", {"family": "whitney_cn", "r": float("inf"), "n": 2, "degree": 4}),
        ("energy", {"family": "product_torus", "radii": [1.0, "2"], "degree": 4}),
        ("energy", {"family": "product_torus", "radii": [True, 2.0], "degree": 4}),
        ("identities", {"family": "whitney_cpn", "theta": True, "n": 2}),
        ("identities", {"family": "whitney_cpn", "theta": float("nan"), "n": 2}),
        ("identities", {"family": "perturbed_whitney", "eps": False}),
        ("energy", {"family": "cpn_torus", "moduli": [True, 1, 1], "degree": 4}),
        ("energy", {**WHITNEY3_A, "A": [float("nan"), 0.0, [0.0, float("inf")]], "degree": 4}),
        ("identities", {"family": "lagrangian_plane", "n": 0}),
        ("identities", {"family": "lagrangian_plane", "n": -1}),
        ("identities", {"family": "nonlagrangian_plane", "n": 0}),
        ("identities", {"family": "nonlagrangian_plane", "n": 1}),
        ("identities", {"family": "rpn", "n": 0}),
        ("energy", {"family": "rpn", "n": 0, "degree": 4}),
        ("energy", {"family": "rpn", "n": 1, "degree": 4}),
    ],
    ids=[
        "identities-A-short-pair", "energy-A-short-pair", "A-long-pair", "A-bool-part", "A-text", "A-not-a-list",
        "energy-radii-nested", "identities-radii-nested", "whitney_cn-n-fraction", "plane-n-half", "plane-n-bool",
        "whitney_cpn-n-half", "rpn-n-text", "perturbed-mode-fraction", "perturbed-mode-negative",
        "perturbed-mode-very-negative", "whitney_cn-r-bool", "whitney_cn-r-text",
        "whitney_cn-r-nan", "whitney_cn-r-inf", "radii-text-entry", "radii-bool-entry", "whitney_cpn-theta-bool",
        "whitney_cpn-theta-nan", "perturbed-eps-bool", "cpn_torus-moduli-bool", "A-not-finite",
        "plane-n-zero", "plane-n-negative", "nonlagrangian-n-zero", "nonlagrangian-line", "identities-rpn-n-zero",
        "energy-rpn-n-zero", "energy-rpn-n-one",
    ],
)
def test_malformed_family_parameters_are_construction_errors(tmp_path, capsys, command, payload):
    """A family parameter of the wrong kind or shape, or a dimension the
    family has no body in, is refused by its builder, with exit 3 and one
    line: not coerced (a fraction truncated, a long pair cut short), not left
    to fail later with a traceback and not run (a non-Lagrangian plane at
    n = 1 is a Lagrangian line)."""
    cfg = write_cfg(tmp_path, "bad.json", payload)
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith("construction error: cannot construct ")
    assert not out.exists()


HUGE = 10**400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("energy", {"family": "whitney_cn", "r": HUGE, "n": 2, "degree": 3}, "r must be a finite real number, got 1000"),
        ("identities", {"family": "whitney_cn", "r": 1.0, "n": HUGE}, "n must be an integer, got 1000"),
        ("identities", {"family": "whitney_cpn", "theta": HUGE, "n": 2}, "theta must be a finite real number"),
        ("energy", {"family": "product_torus", "radii": [1.0, HUGE], "degree": 3}, "a torus radius must be a finite"),
        ("identities", {"family": "product_torus", "radii": [1.0, 2.0], "n": HUGE}, "n must be an integer"),
        ("identities", {**WHITNEY3_A, "A": [HUGE, 0.0, 0.0]}, "offset A entry 1000"),
        ("identities", {**WHITNEY3_A, "A": [[0.0, HUGE], 0.0, 0.0]}, "offset A entry [0.0, 1000"),
        ("identities", {"family": "perturbed_whitney", "eps": HUGE}, "eps must be a finite real number"),
        ("energy", {"family": "cpn_torus", "moduli": [1.0, HUGE, 1.0], "degree": 3}, "a torus modulus must be a finite"),
    ],
    ids=["r", "n", "theta", "radii-entry", "torus-n", "A-entry", "A-pair-part", "eps", "moduli-entry"],
)
def test_huge_integer_parameters_name_the_parameter(tmp_path, capsys, command, payload, message):
    """A body parameter written as an integer too large for a float is
    refused like any other non-finite one: exit 3 and one line that names
    it, not a Python overflow message."""
    cfg = write_cfg(tmp_path, "huge.json", payload)
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("construction error: cannot construct ")
    assert message in err and "too large to convert" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"family": "product_torus", "degree": 4}, "radii must be a list, got None"),
        ({"family": "product_torus", "radii": "1.0", "degree": 4}, "radii must be a list, got '1.0'"),
        ({"family": "cpn_torus", "moduli": 3, "degree": 4}, "moduli must be a list, got 3"),
        ({"family": "cpn_torus", "degree": 4}, "moduli must be a list, got None"),
        ({"family": "whitney_cn", "A": 3, "n": 2, "degree": 4}, "A must be a list, got 3"),
        ({"family": "whitney_cn", "A": True, "n": 2, "degree": 4}, "A must be a list, got True"),
        ({"family": "whitney_cn", "A": None, "n": 2, "degree": 4}, "A must be a list, got None"),
    ],
    ids=["radii-missing", "radii-text", "moduli-number", "moduli-missing", "A-number", "A-bool", "A-null"],
)
def test_a_list_parameter_that_is_not_a_list_is_named(tmp_path, capsys, payload, message):
    """A `radii` or `moduli` that is missing or not a list, or an `A` that is
    not a list, null included (an absent `A` is no offset), is refused with
    exit 3 and one line that names it."""
    out = tmp_path / "out.json"
    assert main(["energy", "--config", write_cfg(tmp_path, "bad.json", payload), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"construction error: cannot construct {payload['family']}: {message}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "payload",
    [{**WHITNEY3_A, "n": 3.0}, {**WHITNEY3_A, "A": [[0.1, 0.2], 0.3, [0, -1]]}, {"family": "rpn", "n": 3}],
    ids=["n-integer-float", "A-mixed-entries", "rpn-int"],
)
def test_well_formed_family_parameters_still_build(payload):
    imm = cli.build_immersion(payload, "identities")
    assert imm.source_dim == 3 and isinstance(imm.params["n"], int)


@pytest.mark.parametrize(
    "lam, rel",
    [(2.0**-1000, 0.0), (0.5, 0.0), (2.0**1000, 0.0), (1e-300, 1e-13), (1e-200, 1e-13), (1e200, 1e-13), (1e300, 1e-13)],
    ids=["2^-1000", "2^-1", "2^1000", "1e-300", "1e-200", "1e200", "1e300"],
)
def test_cpn_torus_moduli_are_projective(tmp_path, lam, rel):
    """The moduli of a CP^n torus are homogeneous coordinates: lam times them
    is the same torus, with the energies of lam = 1 (to the bit where lam is
    a power of two) and the moduli recorded as given."""

    def report(moduli):
        cfg = write_cfg(tmp_path, "t.json", {"family": "cpn_torus", "moduli": moduli, "degree": 6})
        out = tmp_path / "t-report.json"
        assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    unit = report([1.0, 0.7, 1.2])["entries"]
    doc = report([lam, lam * 0.7, lam * 1.2])
    assert doc["params"]["moduli"] == [lam, lam * 0.7, lam * 1.2]
    assert doc["entries"] == pytest.approx(unit, rel=rel, abs=0.0)


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
        assert out.read_text().startswith("param,")
        cols = scan_columns(out)
        assert list(cols["param"]) == [0.5, 1.0, 2.0]
        assert all(g < 1e-7 for g in cols["int_hhat_n"])

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
        cols = scan_columns(out)
        gap = cols["int_hhat_n"]
        assert gap[0] < 1e-12
        assert cols["int_hhat_sq"][0] <= 1e-20 * cols["int_h_sq"][0]  # eps = 0 is the Whitney sphere
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
        cols = scan_columns(out)
        for t, hhat_sq in zip(cols["param"], cols["int_hhat_sq"]):
            area = 4 * math.pi**2 * t
            h_sq = 1.0 + 1.0 / t**2
            expected = area * (h_sq - 0.75 * h_sq)  # |hhat|^2 = |h|^2 - 3n^2/(n+2)|H|^2
            assert hhat_sq == pytest.approx(expected, rel=1e-6)

    def test_offset_entry_scan_without_a_config_offset(self, tmp_path):
        """`A.0` scans the first offset entry from the body's default offset,
        as written in JSON, when the config gives no `A`."""
        cfg = {"family": "whitney_cn", "n": 2, "scan_param": "A.0", "values": [0.1, 0.2], "degree": 4}
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", write_cfg(tmp_path, "scan.json", cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        for a, row in zip((0.1, 0.2), rows):
            entries = energy_report(make_whitney_cn(1.0, [a, 0.0], 2), sphere_rule(2, 4))["entries"]
            assert row == ",".join(map(repr, [a, *entries.values()]))

    def test_scan_requires_values(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.json", {"family": "whitney_cn", "scan_param": "r"})
        assert main(["scan", "--config", cfg]) == 2

    def test_header_is_param_and_the_entry_names(self, tmp_path):
        """The columns are the energy report's entries, in their order."""
        cfg = write_cfg(tmp_path, "scan.json", {**TORUS, "degree": 6, "scan_param": "radii.0", "values": [2.0, 1.0]})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        for radius, row in zip((1.0, 2.0), rows):
            entries = energy_report(make_product_torus([radius, 1.0]), torus_rule(2, 6))["entries"]
            assert header == ",".join(["param", *entries])
            assert row == ",".join(map(repr, [radius, *entries.values()]))


TORUS = {"family": "product_torus", "radii": [1.0, 1.0]}
PLANE = {"family": "lagrangian_plane", "n": 2}
SCAN = {"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 6, "scan_param": "r"}
SAMPLES = "'samples' must be an integer >= 1"
DEGREE = "'degree' must be an integer >= 1"
DEGREE_CAP = f"'degree' must be at most {cli.MAX_DEGREE}"
HEAVY = "'heavy' must be true or false"
TINY = float(np.finfo(float).tiny)


def tol_floor() -> float:
    """The least `tol_scale` that leaves the tolerance RUNG * tol_scale at
    least the smallest normal float."""
    floor = TINY / RUNG
    while RUNG * floor < TINY:
        floor = np.nextafter(floor, np.inf)
    return float(floor)


BELOW_TOL_FLOOR = float(np.nextafter(tol_floor(), 0.0))
NO_DIR = ["--out", "/nonexistent/dir/r.json"]
UNWRITABLE = "cannot write /nonexistent/dir/r.json: /nonexistent/dir is not a directory"
OUT_DIR = ["--out", "."]


@pytest.mark.parametrize(
    "command, payload, code, message",
    [
        ("identities", {**TORUS, "samples": -2}, 2, SAMPLES),
        ("identities", {**TORUS, "samples": "x"}, 2, SAMPLES),
        ("identities", {**TORUS, "samples": 0}, 2, SAMPLES),
        ("identities", {**TORUS, "samples": 2.5}, 2, SAMPLES),
        ("identities", {**TORUS, "samples": 2, "seed": "x"}, 2, "'seed' must be an integer >= 0"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": "x"}, 2, "'tol_scale' must be a finite"),
        ("energy", {**TORUS, "degree": 0}, 2, DEGREE),
        ("energy", {**TORUS, "degree": -3}, 2, DEGREE),
        ("energy", {**PLANE, "degree": 6}, 2, "energy needs a compact body"),
        ("scan", {**SCAN, "values": [1.0, "x"]}, 2, "a scan value must be a finite real number"),
        ("scan", {**SCAN, "values": [1.0], "degree": 0}, 2, DEGREE),
        ("scan", {**PLANE, "scan_param": "n", "values": [2]}, 2, "scan needs a compact body"),
        ("identities", {"family": "product_torus", "radii": [], "samples": 2}, 3, "at least one radius"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": -1}, 2, "'tol_scale' must be positive"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": 0}, 2, "'tol_scale' must be positive"),
        ("scan", {**TORUS, "scan_param": "r", "values": [1.0, 2.0]}, 2, "not a parameter of product_torus"),
        ("scan", {**TORUS, "scan_param": "radii.5", "values": [1.0]}, 2, "'radii' has no entry '5'"),
        ("scan", {**TORUS, "scan_param": "radii.x", "values": [1.0]}, 2, "'radii' has no entry 'x'"),
        ("scan", {**SCAN, "scan_param": "r.0", "values": [1.0]}, 2, "'r' has no entry '0'"),
        ("identities", {**TORUS, "samples": 2, "heavy": "no"}, 2, HEAVY),
        ("identities", {**TORUS, "samples": 2, "heavy": 0}, 2, HEAVY),
        ("identities", "family=product_torus\nradii=[1.0, 1.0]\nsamples=2\nheavy=False\n", 2,
         "cannot parse config"),
        # where and how a report is written are flags, never config keys
        ("energy", {**TORUS, "degree": 6, "format": "xml"}, 2, "unknown product_torus parameters ['format']"),
        ("identities", {**TORUS, "samples": 2, "format": "xml"}, 2, "unknown product_torus parameters ['format']"),
        ("identities", ({**TORUS, "samples": 2}, ["--format", "csv"]), 2, "csv format is not available"),
        ("energy", ({**TORUS, "degree": 6}, NO_DIR), 2, UNWRITABLE),
        ("identities", ({**TORUS, "samples": 2}, NO_DIR), 2, UNWRITABLE),
        ("scan", ({**SCAN, "values": [1.0]}, NO_DIR), 2, UNWRITABLE),
        ("energy", ({**TORUS, "degree": 6}, OUT_DIR), 2, "cannot write .: it is a directory"),
        ("identities", ({**TORUS, "samples": 2}, OUT_DIR), 2, "cannot write .: it is a directory"),
        ("scan", ({**SCAN, "values": [1.0]}, OUT_DIR), 2, "cannot write .: it is a directory"),
        ("scan", {**SCAN, "values": [1.0], "format": "xml"}, 2, "unknown whitney_cn parameters ['format']"),
        ("energy", {**TORUS, "degree": 6, "out": 5}, 2, "unknown product_torus parameters ['out']"),
        ("scan", ({**SCAN, "values": [1.0]}, ["--format", "json"]), 2, "json format is not available"),
        ("scan", ({**SCAN, "values": [1.0]}, ["--format", "table"]), 2, "table format is not available"),
        # a body sits at the top level, not in an `immersion` object
        ("identities", {"immersion": "rpn", "samples": 2}, 2, "unknown or missing immersion family: None"),
        ("identities", {"family": ["rpn"], "samples": 2}, 2, "unknown or missing immersion family"),
        ("identities", {"family": "whitney_cpn", "theta": 800, "samples": 2}, 3, "cannot construct whitney_cpn"),
        ("energy", {**TORUS, "degree": cli.MAX_DEGREE + 1}, 2, DEGREE_CAP),
        ("scan", {**SCAN, "values": [1.0], "degree": 10**6}, 2, DEGREE_CAP),
        ("scan", {**SCAN, "values": []}, 2, "a non-empty finite 'values' list"),
        ("identities", {**TORUS, "samples": cli.MAX_SAMPLES + 1}, 2, f"'samples' must be at most {cli.MAX_SAMPLES}"),
        ("energy", {"family": "whitney_cn", "radius": 2.0, "n": 3, "degree": 4}, 2,
         "unknown whitney_cn parameters ['radius']"),
        ("identities", {**TORUS, "samples": 2, "sead": 5}, 2, "unknown product_torus parameters ['sead']"),
        ("identities", {"immersion": TORUS, "samples": 2, "sead": 5}, 2, "unknown or missing immersion family: None"),
        ("energy", {"family": "product_torus", "radii": [1.0, 2.0], "n": 5, "degree": 4}, 3,
         "n = 5, but its parameters give n = 2"),
        ("energy", {"family": "cpn_torus", "moduli": [1.0, 0.7, 1.2], "n": 7, "degree": 4}, 3,
         "n = 7, but its parameters give n = 2"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": 1e-320}, 2,
         f"'tol_scale' must be positive and leave the tolerance at least {TINY!r}, got 1e-320"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": 1e-313}, 2, f"at least {TINY!r}, got 1e-313"),
        ("identities", {**TORUS, "samples": 2, "tol_scale": BELOW_TOL_FLOOR}, 2, f"got {BELOW_TOL_FLOOR!r}"),
        ("energy", {**TORUS, "degree": 6, "samples": 99999, "tol_scale": 1e-3, "seed": 3, "heavy": False}, 2,
         "energy takes no ['heavy', 'samples', 'seed', 'tol_scale']: its run keys are"),
        ("scan", {**SCAN, "values": [1.0], "tol_scale": -5, "samples": 0}, 2,
         "scan takes no ['samples', 'tol_scale']"),
        ("identities", {**TORUS, "samples": 2, "degree": 7, "scan_param": "r", "values": [1]}, 2,
         "identities takes no ['degree', 'scan_param', 'values']"),
        ("energy", {"immersion": TORUS, "degree": 6, "seed": 3}, 2, "energy takes no ['seed']"),
        ("identities", {"family": "whitney_cn", "n": 2, "samples": 2, "tol_scale": 10**400}, 2,
         "'tol_scale' must be a finite real number, got 1000"),
        ("scan", {**SCAN, "values": [1.0, 10**400]}, 2, "a scan value must be a finite real number, got 1000"),
        ("scan", {**TORUS, "radii": [1.0, 2.0], "degree": 3, "scan_param": "radii", "values": [1.0]}, 2,
         "scan_param 'radii' is a list: scan one of its entries, radii.0 to radii.1"),
        ("scan", {"family": "cpn_torus", "moduli": [1.0, 0.7, 1.2], "degree": 3, "scan_param": "moduli",
                  "values": [1.0]}, 2, "scan_param 'moduli' is a list: scan one of its entries, moduli.0 to moduli.2"),
        ("scan", {**SCAN, "scan_param": "A", "values": [0.1]}, 2,
         "scan_param 'A' is a list: scan one of its entries, A.0 to A.1"),
        ("identities", {**TORUS, "immersion": TORUS, "samples": 2}, 2, "unknown product_torus parameters ['immersion']"),
        ("energy", {**TORUS, "degree": 6, "out": "r.json", "format": "csv"}, 2,
         "unknown product_torus parameters ['format', 'out']"),
    ],
    ids=[
        "samples-negative", "samples-text", "samples-zero", "samples-fraction", "seed-text",
        "tol-scale-text", "degree-zero", "degree-negative", "energy-plane", "scan-value-text",
        "scan-degree-zero", "scan-plane", "torus-no-radii", "tol-scale-negative", "tol-scale-zero",
        "scan-param-unknown", "scan-index-out-of-range", "scan-index-text", "scan-index-on-scalar",
        "heavy-text", "heavy-number", "heavy-keyvalue-python-false", "energy-format-unknown",
        "identities-format-unknown", "identities-format-csv", "energy-out-no-dir", "identities-out-no-dir",
        "scan-out-no-dir", "energy-out-dir", "identities-out-dir", "scan-out-dir", "scan-format-unknown",
        "out-not-a-path", "scan-format-json",
        "scan-format-table", "immersion-not-an-object", "family-not-a-string", "cpn-theta-overflow",
        "energy-degree-above-cap", "scan-degree-above-cap", "scan-values-empty", "samples-above-cap",
        "family-key-misspelt", "run-key-misspelt", "key-beside-immersion", "torus-n-mismatch",
        "cpn-torus-n-mismatch", "tol-scale-underflow", "tol-scale-subnormal", "tol-scale-below-floor",
        "energy-identities-keys", "scan-identities-keys", "identities-scan-keys", "energy-key-beside-immersion",
        "tol-scale-huge-int", "scan-value-huge-int", "scan-whole-radii", "scan-whole-moduli", "scan-whole-offset",
        "immersion-beside-family", "out-and-format-keys",
    ],
)
def test_invalid_run_parameters_are_refused(tmp_path, capsys, monkeypatch, command, payload, code, message):
    """Each is refused before any work, with one stderr line and no report:
    no suite runs and no energy is computed.  A payload is a config, run
    with `--out`, or a config and the flags to run it with."""

    def no_work(*args, **kwargs):
        raise AssertionError("a refused run did work")

    monkeypatch.setattr(cli, "energy_report", no_work)
    monkeypatch.setattr(cli, "run_identity_suite", no_work)
    out = tmp_path / "out"
    payload, flags = payload if isinstance(payload, tuple) else (payload, ["--out", str(out)])
    assert main([command, "--config", write_cfg(tmp_path, "bad.json", payload), *flags]) == code
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.out == "", captured
    assert captured.err.startswith("config error: " if code == 2 else "construction error: ")
    assert message in captured.err
    assert not out.exists()


def test_one_process_writes_what_fresh_processes_write(tmp_path, capsys):
    """The parser is built once per process: identities, energy, a bad flag
    and energy again, run one after another in this process, each write the
    bytes and exit with the status of a fresh process."""
    ident = write_cfg(tmp_path, "i.json", {**TORUS, "samples": 2, "heavy": False})
    energy = write_cfg(tmp_path, "e.json", {**TORUS, "degree": 6})
    env = {**os.environ, "PYTHONPATH": str(Path(lagcheck.__file__).resolve().parents[1])}
    runs = [["identities", "--config", ident], ["energy", "--config", energy], ["energy", "--seed", "3"],
            ["energy", "--config", energy]]
    results = []
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "lagcheck.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        results.append((code, got.out, got.err))
    assert [code for code, _, _ in results] == [0, 0, 2, 0]
    assert results[2][2].startswith("usage: lagcheck") and results[3] == results[1]


def test_no_command_imports_numpy_random(tmp_path):
    """Every random draw comes from Python's `random` stream
    (`immersions.Draws`): no command, identities on a sphere or a perturbed
    body, energy or scan, loads `numpy.random` and the OpenSSL `hashlib` it
    brings."""
    runs = [
        ("identities", {"family": "whitney_cn", "r": 1.0, "n": 2, "samples": 2, "seed": 3}),
        ("identities", {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 2, "samples": 2}),
        ("energy", {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 2, "degree": 3}),
        ("scan", {**TORUS, "degree": 3, "scan_param": "radii.1", "values": [1.5, 2.5]}),
    ]
    argvs = [
        [command, "--config", write_cfg(tmp_path, f"{i}.json", cfg), "--out", str(tmp_path / f"{i}.out")]
        for i, (command, cfg) in enumerate(runs)
    ]
    script = textwrap.dedent(
        """
        import json, sys
        import lagcheck.cli

        print([lagcheck.cli.main(argv) for argv in json.loads(sys.argv[1])])
        print("numpy.random" in sys.modules)
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lagcheck.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["[0, 0, 0, 0]", "False"], run.stdout


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
        doc = json.loads(out.read_text())
        header, first = text.splitlines()[1:3]
        assert header.split()[-3:] == ["headroom", "sample", "pass"]
        check = doc["checks"][0]
        assert first.split()[-3:] == [f"{check['headroom']:.2e}", str(check["argmax"]), "ok"]

    def test_energy_report_with_r2_keys(self, tmp_path, capsys):
        """A report written while energy reports still carried `r2_limit`
        renders its entries; the extra keys are not printed."""
        cfg = write_cfg(tmp_path, "e.json", {**TORUS, "degree": 6})
        path = tmp_path / "energy.json"
        assert main(["energy", "--config", cfg, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert main(["report", str(path)]) == 0
        want = capsys.readouterr().out
        doc["r2_limit"] = 0.0
        doc["r2_limit_note"] = "compact: integral over M_R stabilizes while R^{-2} -> 0"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert main(["report", str(path)]) == 0
        text = capsys.readouterr().out
        assert text == want and "r2" not in text
        assert len(text.splitlines()) == 2 + len(doc["entries"])

    @pytest.mark.parametrize(
        "command, payload",
        [("energy", {"family": "whitney_cn", "n": 2, "degree": 3}), ("identities", {**TORUS, "samples": 2, "seed": 3})],
        ids=["energy", "identities"],
    )
    def test_report_of_the_json_is_the_table(self, tmp_path, command, payload):
        """`report` of a JSON report writes the bytes that `--format table`
        writes for the same run: an energy table lists its entries sorted by
        name, the order the JSON stores them in."""
        cfg = write_cfg(tmp_path, "c.json", payload)
        doc, table, shown = (tmp_path / name for name in ("r.json", "r.txt", "shown.txt"))
        assert main([command, "--config", cfg, "--out", str(doc)]) == 0
        assert main([command, "--config", cfg, "--format", "table", "--out", str(table)]) == 0
        assert main(["report", str(doc), "--out", str(shown)]) == 0
        assert shown.read_bytes() == table.read_bytes()

    def test_missing_file_is_config_error(self):
        assert main(["report", "/nonexistent/report.json"]) == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "a report is a JSON object, got list"),
            ({"kind": "identities"}, "malformed identities report: KeyError('checks')"),
            ({"kind": "energy", "entries": {"volume": "x"}}, "malformed energy report: ValueError"),
            ({}, "malformed ? report: ValueError('a report is of kind identities or energy, not None')"),
            ({"kind": "scan"},
             "malformed scan report: ValueError(\"a report is of kind identities or energy, not 'scan'\")"),
        ],
        ids=["not-an-object", "identities-no-checks", "energy-text-value", "no-kind", "unknown-kind"],
    )
    def test_malformed_report_is_config_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_unwritable_out_is_config_error(tmp_path, capsys):
    """An `out` that names a directory is a config error, found before the run."""
    cfg = write_cfg(tmp_path, "e.json", {**TORUS, "degree": 4})
    assert main(["energy", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path}: ")
