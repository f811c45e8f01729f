"""A traced run of the profile config of ROADMAP.md reproduces its counts."""

import json

import pytest

from tracer import END, PARENT, START, Tracer, self_times


def test_roadmap_profile_counts(tmp_path):
    import lagcheck.cli

    cfg = tmp_path / "whitney.json"
    cfg.write_text(json.dumps({"family": "whitney_cn", "r": 1.0, "n": 3, "samples": 20, "seed": 7}))
    t = Tracer()
    t.install()
    try:
        assert lagcheck.cli.main(["identities", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    finally:
        t.uninstall()
    m = t.layer_metrics(ops=1)
    assert m["jets.mul_calls"] == 235906
    assert m["geometry.bundle_builds"] == 472
    assert m["geometry.bundle_points"] == 472
    assert m["identities.heavy_points"] == 3
    assert m["identities.simons_terms_calls"] == 6
    assert m["cpn.lift_calls"] == 0
    # Self times add up to the traced wall time; Jet arithmetic is part of it.
    top = sum(s[END] - s[START] for s in t.spans if s[PARENT] < 0)
    assert sum(self_times(t.spans)) == pytest.approx(top, rel=1e-9)
    assert 0 < m["jets.self_s"] < top
