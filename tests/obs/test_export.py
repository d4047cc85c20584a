"""Exporters: JSON snapshot round-trip and the human summary."""

import json
from datetime import datetime, timezone

from repro import obs
from repro.obs import runmeta
from repro.obs.export import METRICS_SCHEMA_VERSION


class _FrozenDatetime(datetime):
    """``datetime`` whose ``now`` never ticks, so two snapshots share a date."""

    @classmethod
    def now(cls, tz=None):
        return datetime(2024, 1, 1, tzinfo=timezone.utc)


def _populate():
    obs.counter("sim.branches", 1234)
    obs.gauge("sim.branches_per_sec", 5e5)
    with obs.timer("sim.trace"):
        pass
    with obs.span("fig7", storage_kib=64), obs.span(
        "lab.simulate", workload="605.mcf_s"
    ):
        pass


class TestJsonExport:
    def test_snapshot_schema(self, obs_enabled):
        _populate()
        doc = obs.snapshot()
        assert doc["schema"] == METRICS_SCHEMA_VERSION
        assert doc["counters"]["sim.branches"] == 1234
        assert doc["gauges"]["sim.branches_per_sec"] == 5e5
        assert doc["timers"]["sim.trace"]["calls"] == 1
        assert doc["spans"][0]["name"] == "fig7"
        assert doc["spans"][0]["children"][0]["attrs"] == {"workload": "605.mcf_s"}

    def test_json_round_trip(self, obs_enabled, monkeypatch):
        # The meta date has one-second resolution; without a frozen clock the
        # two snapshots below differ whenever they straddle a second boundary.
        monkeypatch.setattr(runmeta, "datetime", _FrozenDatetime)
        _populate()
        doc = obs.snapshot(extra={"tier": "quick"})
        restored = json.loads(json.dumps(doc))
        assert restored == json.loads(json.dumps(obs.snapshot(extra={"tier": "quick"})))
        assert restored["tier"] == "quick"
        assert restored["counters"] == {"sim.branches": 1234}

    def test_write_metrics_json(self, obs_enabled, tmp_path):
        _populate()
        out = obs.write_metrics_json(tmp_path / "nested" / "m.json")
        with open(out) as f:
            doc = json.load(f)
        assert doc["schema"] == METRICS_SCHEMA_VERSION
        assert doc["counters"]["sim.branches"] == 1234


class TestSummary:
    def test_summary_mentions_metrics_and_spans(self, obs_enabled):
        _populate()
        text = obs.render_summary()
        assert "sim.branches" in text
        assert "sim.trace" in text
        assert "fig7" in text
        assert "storage_kib=64" in text
        assert "lab.simulate" in text

    def test_summary_empty_registry(self, obs_enabled):
        text = obs.render_summary()
        assert "no metrics collected" in text
