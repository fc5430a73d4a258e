"""Tests for the experiment drivers (tiny configurations)."""

import numpy as np
import pytest

from repro.experiments import (
    Fig4Config,
    Fig5Config,
    paper_fig4_config,
    paper_fig5_config,
    quartile_row,
    render_table,
    run_fig4,
    run_fig5,
    run_variance_comparison,
)
from repro.network import paper_synthetic_structures
from repro.webapp import WebAppConfig


def tiny_fig4():
    return Fig4Config(
        structures=tuple(paper_synthetic_structures()[:1]),
        fractions=(0.1, 0.25),
        n_tasks=80,
        n_repetitions=2,
        stem_iterations=20,
        posterior_samples=5,
        posterior_burn_in=2,
    )


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(tiny_fig4(), random_state=0)

    def test_point_count(self, result):
        # 1 structure x 2 reps x 2 fractions x 7 queues.
        assert len(result.points) == 2 * 2 * 7

    def test_errors_are_nonnegative(self, result):
        for p in result.points:
            assert p.service_error >= 0.0
            assert p.waiting_error >= 0.0

    def test_panel_quartiles(self, result):
        panels = result.panel_quartiles("service")
        assert set(panels) == {0.1, 0.25}
        for row in panels.values():
            assert row["q1"] <= row["median"] <= row["q3"]

    def test_median_error_extraction(self, result):
        med = result.median_error(0.25, "service")
        assert np.isfinite(med)

    def test_paper_config_scale(self):
        config = paper_fig4_config()
        assert len(config.structures) == 5
        assert config.n_tasks == 1000
        assert config.n_repetitions == 10
        assert config.fractions == (0.05, 0.10, 0.25)


class TestVariance:
    def test_comparison_fields(self):
        comparison = run_variance_comparison(tiny_fig4(), fraction=0.1, random_state=1)
        assert comparison.stem_variance > 0.0
        assert comparison.baseline_variance > 0.0
        assert comparison.n_cells == 7
        assert np.isfinite(comparison.variance_ratio)
        assert comparison.stem_mean_error > 0.0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig5Config(
            webapp=WebAppConfig(n_requests=150, duration=80.0),
            fractions=(0.2, 0.5),
            stem_iterations=15,
            posterior_samples=4,
            posterior_burn_in=2,
        )
        return run_fig5(config, random_state=2)

    def test_series_present(self, result):
        assert set(result.service) == {0.2, 0.5}
        assert result.service[0.2].shape == (13,)
        assert result.true_service is not None

    def test_starved_queue_detection(self, result):
        starved = result.starved_queue()
        assert result.queue_names[starved].startswith("web-")

    def test_stability_spread(self, result):
        spread = result.stability_spread(q=12, min_fraction=0.2)
        assert spread >= 0.0

    def test_queue_without_events_reads_no_data(self, result):
        """The starved server gets no request here: it records no
        estimate, never the rate clamp, and its table cells say so."""
        starved = result.starved_queue()
        assert result.requests_per_queue[starved] == 0
        for f in result.fractions:
            assert not np.isfinite(result.service[f][starved])
            assert not np.isfinite(result.waiting[f][starved])
        _, rows = result.table("service")
        row = rows[starved - 1]
        assert row[0] == result.queue_names[starved]
        assert row[2:] == ("no data",) * (len(result.fractions) + 1)

    def test_paper_config_scale(self):
        config = paper_fig5_config()
        assert config.webapp.n_requests == 5759
        assert max(config.fractions) == 0.50


class TestResultsHelpers:
    def test_quartile_row(self):
        row = quartile_row([1.0, 2.0, 3.0, 4.0, 100.0])
        assert row["median"] == 3.0
        assert row["min"] == 1.0
        assert row["max"] == 100.0

    def test_quartile_row_ignores_nan(self):
        row = quartile_row([np.nan, 2.0])
        assert row["median"] == 2.0

    def test_quartile_row_all_nan(self):
        row = quartile_row([np.nan])
        assert np.isnan(row["median"])

    def test_render_table(self):
        text = render_table(
            ["name", "value"], [("a", 1.23456), ("b", float("nan"))], title="T"
        )
        assert "T" in text
        assert "1.235" in text
        assert "nan" in text
