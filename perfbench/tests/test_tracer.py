import json

import pytest

from tracer import END, PARENT, START, Tracer, self_times


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_child_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("a.inner.leaf", 2.5, 2.75, parent=2),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 0.75, 0.25, 4.0])
    # Self times partition the top-level span.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_inclusive_metrics_count_outermost_spans_only():
    t = Tracer()
    t.spans[:] = [
        span("cli.main", 0.0, 20.0),
        span("geometry.geometry_state", 1.0, 3.0, parent=0),            # light, counted
        span("identities.check_simons_identity", 4.0, 14.0, parent=0),  # heavy
        span("geometry.geometry_state", 5.0, 6.0, parent=2),            # under heavy: not light
        span("geometry.scalar_laplacian", 7.0, 12.0, parent=2),         # fd
        span("geometry.scalar_laplacian", 8.0, 9.0, parent=4),          # nested fd: not re-added
    ]
    m = t.layer_metrics(ops=2)
    assert m["identities.light_s"] == pytest.approx(1.0)
    assert m["identities.heavy_s"] == pytest.approx(5.0)
    assert m["geometry.fd_s"] == pytest.approx(2.5)
    assert m["geometry.fd_calls"] == pytest.approx(1.0)
    assert m["geometry.state_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx((20.0 - 2.0 - 10.0) / 2)


def test_missing_target_is_reported_and_the_rest_still_traced(monkeypatch, capsys, tmp_path):
    import lagcheck.cli
    import lagcheck.tensors

    monkeypatch.delattr(lagcheck.tensors, "spectral_summary")
    t = Tracer()
    t.install()
    try:
        cfg = tmp_path / "torus.json"
        cfg.write_text(json.dumps({"family": "product_torus", "radii": [1.0, 2.0], "degree": 4}))
        assert lagcheck.cli.main(["energy", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    finally:
        t.uninstall()
    assert "tensors.spectral_summary" in t.missing
    assert "TRACE TARGET MISSING: lagcheck.tensors.spectral_summary" in capsys.readouterr().err
    m = t.layer_metrics(ops=1)
    assert "tensors.spectral_s" not in m
    assert m["quadrature.nodes"] == 16
    assert m["geometry.bundle_builds"] >= 1


def test_uninstall_restores_every_binding():
    import lagcheck.geometry
    import lagcheck.identities
    import lagcheck.jets

    before = (lagcheck.jets.Jet.__mul__, lagcheck.identities.bundle_at,
              lagcheck.geometry.FrameBundle._get, lagcheck.geometry.bundle_at)
    t = Tracer()
    t.install()
    assert lagcheck.identities.bundle_at is lagcheck.geometry.bundle_at is not before[1]
    t.uninstall()
    after = (lagcheck.jets.Jet.__mul__, lagcheck.identities.bundle_at,
             lagcheck.geometry.FrameBundle._get, lagcheck.geometry.bundle_at)
    assert after == before


def test_span_fields_and_parent_links(tmp_path):
    t = Tracer()
    outer = t._span("outer", lambda: inner())
    inner = t._span("inner", lambda: None)
    t.active = True
    t.op = 7
    outer()
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][PARENT] == 0 and t.spans[0][PARENT] == -1
    assert all(s[4] == 7 and s[START] <= s[END] for s in t.spans)
    t.dump(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["fields"] == ["name", "start", "end", "parent", "op"]
    assert len(doc["spans"]) == 2

