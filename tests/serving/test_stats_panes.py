"""Typed stats panes: TenantPane / FrontendStats stable rendering."""

import json

import pytest

from repro.serving import ServingFrontend, TenantPane, create
from repro.serving.frontend import FrontendStats

#: The exact key set the dict era exposed — the dashboard contract.
PANE_KEYS = ("pending", "admitted", "shed")
STATS_KEYS = {
    "submitted", "served", "timeouts", "rejected", "cancelled", "pending",
    "batches", "shed", "tenants", "service_estimate_ms", "disk_hits",
    "spill_failures",
}


class TestTenantPane:
    def test_defaults_are_zero(self):
        pane = TenantPane()
        assert (pane.pending, pane.admitted, pane.shed) == (0, 0, 0)

    def test_to_dict_keys_are_stable(self):
        rendered = TenantPane(pending=3, admitted=4, shed=5).to_dict()
        assert tuple(rendered) == PANE_KEYS
        assert rendered == {"pending": 3, "admitted": 4, "shed": 5}


class TestFrontendStats:
    def _stats(self, **overrides):
        base = dict(
            submitted=10, served=8, timeouts=0, rejected=1, cancelled=1,
            pending=0, batches=4,
        )
        base.update(overrides)
        return FrontendStats(**base)

    def test_to_dict_is_json_ready(self):
        stats = self._stats(
            shed=2, tenants={"hot": TenantPane(admitted=5, shed=2)}
        )
        rendered = stats.to_dict()
        assert set(rendered) == STATS_KEYS
        # nested panes render as the historical plain dicts
        assert rendered["tenants"]["hot"] == {
            "pending": 0, "admitted": 5, "shed": 2,
        }
        json.dumps(rendered)  # the whole pane must serialize

    def test_mean_batch_fill(self):
        assert self._stats().mean_batch_fill == pytest.approx(2.0)
        assert self._stats(batches=0).mean_batch_fill == 0.0


class TestLiveFrontendPane:
    def test_stats_tenants_hold_typed_panes(self, uji_split):
        train, _val, test = uji_split
        fitted = create("knn", k=3).fit(train)
        with ServingFrontend(
            fitted, batch_size=4, deadline_ms=5
        ) as frontend:
            tickets = [
                frontend.submit(row, tenant="t0") for row in test.rssi[:6]
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
            stats = frontend.stats()
        assert isinstance(stats, FrontendStats)
        pane = stats.tenants["t0"]
        assert isinstance(pane, TenantPane)
        assert pane.admitted == 6
        assert stats.to_dict()["tenants"]["t0"]["admitted"] == 6
