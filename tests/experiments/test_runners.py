"""Tests for the figure runners and ablations (tiny configurations)."""

import pytest

from repro.experiments.ablations import (
    index_ablation_table,
    ranking_ablation_table,
    run_index_ablation,
    run_ranking_ablation,
    run_segments_ablation,
    segments_ablation_table,
)
from repro.experiments.config import Figure11Config, Figure12Config, Figure13Config
from repro.experiments.fig11 import figure11_table, run_figure11
from repro.experiments.fig12 import figure12_table, run_figure12
from repro.experiments.fig13 import figure13_table, run_figure13


class TestFigure11:
    def test_rows_and_speedup_shape(self):
        config = Figure11Config(object_counts=[20, 60])
        rows = run_figure11(config)
        assert [row.num_objects for row in rows] == [20, 60]
        # The divide-and-conquer construction must beat the naive one, and
        # the gap must widen as N grows (the qualitative claim of Figure 11).
        assert all(row.speedup > 1.0 for row in rows)
        assert rows[1].speedup > rows[0].speedup

    def test_times_algorithm_1_and_not_the_production_kernel(self, monkeypatch):
        # Figure 11 is the paper's LE_Alg against the naive construction.
        # The production ``lower_envelope`` is the kinetic front now; the
        # figure, the ablations and their benches must keep the recursion.
        import ast
        from pathlib import Path

        from repro.experiments import ablations, fig11, fig13
        from repro.geometry.envelope import divide_conquer
        from repro.reference import envelope

        calls = []

        def spy(name, original):
            return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

        monkeypatch.setattr(
            divide_conquer, "front_envelopes", spy("front", divide_conquer.front_envelopes)
        )
        monkeypatch.setattr(fig11, "le_alg", spy("le_alg", envelope.le_alg))
        # 40 objects: enough for the production entry to choose the front.
        run_figure11(Figure11Config(object_counts=[40]))
        assert calls == ["le_alg"]
        for module in (fig11, fig13, ablations):
            assert hasattr(module, "le_alg") and not hasattr(module, "lower_envelope")
        benches = Path(__file__).resolve().parents[2] / "benchmarks"
        for name in ("bench_fig11_envelope.py", "bench_ablation_envelope.py"):
            names = {
                alias.name
                for node in ast.walk(ast.parse((benches / name).read_text()))
                if isinstance(node, ast.ImportFrom)
                and node.module == "repro.reference.envelope"
                for alias in node.names
            }
            assert names == {"le_alg"}, name

    def test_table_rendering(self):
        rows = run_figure11(Figure11Config(object_counts=[15]))
        table = figure11_table(rows)
        assert "Figure 11" in table
        assert "15" in table

    def test_paper_config_counts(self):
        assert Figure11Config.paper().object_counts[-1] == 12000


class TestFigure12:
    def test_rows_and_speedup_shape(self):
        config = Figure12Config(object_counts=[20, 60], queries_per_count=3)
        rows = run_figure12(config)
        assert [row.num_objects for row in rows] == [20, 60]
        assert all(row.existential_speedup > 1.0 for row in rows)
        assert all(row.quantitative_speedup > 1.0 for row in rows)
        assert rows[1].existential_speedup > rows[0].existential_speedup

    def test_table_rendering(self):
        rows = run_figure12(Figure12Config(object_counts=[15], queries_per_count=2))
        table = figure12_table(rows)
        assert "Figure 12" in table

    def test_paper_config(self):
        paper = Figure12Config.paper()
        assert paper.queries_per_count == 100
        assert paper.quantitative_fraction == 0.5


class TestFigure13:
    def test_integration_fraction_grows_with_radius(self):
        config = Figure13Config(
            radii_miles=[0.1, 1.0, 2.0], object_counts=[150], queries_per_setting=2
        )
        rows = run_figure13(config)
        fractions = [row.integration_fraction for row in rows]
        assert len(fractions) == 3
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions)
        assert fractions[0] < fractions[-1]

    def test_small_radius_prunes_most_objects(self):
        config = Figure13Config(
            radii_miles=[0.25], object_counts=[300], queries_per_setting=3
        )
        rows = run_figure13(config)
        assert rows[0].pruned_fraction > 0.75

    def test_table_rendering(self):
        rows = run_figure13(
            Figure13Config(radii_miles=[0.5], object_counts=[60], queries_per_setting=1)
        )
        table = figure13_table(rows)
        assert "Figure 13" in table

    def test_paper_config_populations(self):
        assert Figure13Config.paper().object_counts == [2000, 10000]


class TestAblations:
    def test_ranking_ablation_agrees(self):
        rows = run_ranking_ablation(object_counts=[10], pdf_families=["uniform"], top_k=2)
        assert len(rows) == 1
        assert rows[0].agrees
        assert "Theorem 1" in ranking_ablation_table(rows)

    def test_segments_ablation_shape(self):
        rows = run_segments_ablation(num_objects=30, segment_counts=[1, 2])
        assert [row.segments_per_trajectory for row in rows] == [1, 2]
        assert all(row.envelope_pieces >= 1 for row in rows)
        assert "segments" in segments_ablation_table(rows)

    def test_index_ablation_shape(self):
        rows = run_index_ablation(object_counts=[50], corridor_miles=5.0)
        assert len(rows) == 2  # grid and table
        grid_row, table_row = rows
        assert grid_row.candidates_after_filter == table_row.candidates_after_filter
        assert 0.0 <= grid_row.filter_ratio <= 1.0
        assert "index" in index_ablation_table(rows)
