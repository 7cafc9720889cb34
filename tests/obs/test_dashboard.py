"""The self-contained HTML dashboard (:mod:`repro.obs.dashboard`)."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

from repro.arrays.cycle_sim import cell_fire_counts
from repro.cli import main
from repro.obs.dashboard import (
    activity_class,
    build_dashboard,
    cell_grid,
    collect_run,
    render_dashboard,
)

SVG_RE = re.compile(r"<svg\b.*?</svg>", re.DOTALL)


def extract_svgs(html: str) -> list[str]:
    return SVG_RE.findall(html)


def heatmap_counts(html: str, title_needle: str) -> dict[str, float]:
    """``data-cell -> data-count`` from the heatmap titled *title_needle*."""
    for svg in extract_svgs(html):
        if title_needle in svg:
            return {
                m.group(1): float(m.group(2))
                for m in re.finditer(
                    r'data-cell="([^"]+)" data-count="([^"]+)"', svg
                )
            }
    raise AssertionError(f"no svg containing {title_needle!r}")


class TestCellGrid:
    def test_mesh_tuples_keep_coordinates(self):
        assert cell_grid({(1, 2): 5, (0, 0): 1}) == {
            (1, 2): 5.0, (0, 0): 1.0,
        }

    def test_linear_ints_become_one_row(self):
        assert cell_grid({2: 7, 0: 3}) == {(0, 2): 7.0, (0, 0): 3.0}

    def test_opaque_keys_enumerate_sorted(self):
        grid = cell_grid({"b": 2, "a": 1})
        assert grid == {(0, 0): 1.0, (0, 1): 2.0}


class TestActivityClass:
    @pytest.mark.parametrize(
        "raw,cls",
        [("compute", "compute"), ("op", "compute"),
         ("delay", "delay"), ("Delay3", "delay"),
         ("link", "transmit"), ("anything", "transmit")],
    )
    def test_mapping(self, raw, cls):
        assert activity_class(raw) == cls


class TestHeatmapAcceptance:
    """Acceptance: heatmap counts == RecordingProbe per-cell fire counts."""

    def test_3x3_warshall_run_heatmap_matches_probe(self):
        run = collect_run(3, 2, seed=0)
        assert run["correct"]  # it really is a verified Warshall closure
        expected = {
            f"{r},{c}": float(v)
            for (r, c), v in cell_grid(cell_fire_counts(run["probe"])).items()
        }
        html = render_dashboard(run)
        assert heatmap_counts(html, "Fires per cell") == expected
        assert expected  # non-vacuous: some cell fired

    def test_heatmap_matches_probe_on_larger_mesh(self):
        run = collect_run(8, 4, geometry="mesh", seed=1)
        expected = {
            f"{r},{c}": float(v)
            for (r, c), v in cell_grid(cell_fire_counts(run["probe"])).items()
        }
        html = render_dashboard(run)
        assert heatmap_counts(html, "Fires per cell") == expected


class TestSelfContained:
    @pytest.fixture(scope="class")
    def html(self):
        return build_dashboard(n=6, m=3, sizes=(6,))

    def test_no_external_resources_or_scripts(self, html):
        low = html.lower()
        assert "<script" not in low
        assert "src=" not in low
        assert "href=" not in low
        assert "<style>" in low

    def test_every_svg_is_wellformed_xml(self, html):
        svgs = extract_svgs(html)
        assert len(svgs) >= 4  # heatmaps, lanes, curves
        for svg in svgs:
            ET.fromstring(svg)

    def test_tooltips_are_native_titles(self, html):
        assert html.count("<title>") > 20  # hover layer without JS

    def test_all_dashboard_sections_present(self, html):
        assert "Simulated run" in html
        assert "closed forms" in html
        assert "Occupancy timeline" in html
        assert "Fig. 21" in html

    def test_empty_dashboard_renders(self):
        assert "nothing to show" in render_dashboard()


class TestNullDimensionHistory:
    """Sweep rows with null dimensions must not crash the sweep panel.

    The sweep charts skip them rather than plotting a None coordinate.
    """

    @staticmethod
    def sweep_row(n):
        return {
            "n": n, "m": 3,
            "measured_throughput": 1e-3, "expected_throughput": 1.1e-3,
            "measured_utilization": 0.5, "expected_utilization": 0.55,
        }

    def test_sweep_skips_null_dim_rows_but_tables_them(self):
        rows = [self.sweep_row(6), self.sweep_row(8),
                {"n": None, "m": "legacy"}]
        html = render_dashboard(sweep_rows=rows)
        assert "Throughput vs n" in html  # charts still drawn
        for svg in extract_svgs(html):
            ET.fromstring(svg)  # no None leaked into coordinates
        assert "legacy" in html  # the skipped row is still tabled

    def test_all_null_sweep_rows_fall_back_to_table_only(self):
        html = render_dashboard(sweep_rows=[{"n": None, "m": "legacy"}])
        assert "Throughput vs n" not in html
        assert "legacy" in html

    def test_bool_n_is_not_numeric(self):
        # bool is an int subclass; a True "dimension" must not plot at x=1.
        html = render_dashboard(sweep_rows=[{"n": True, "m": "boolrow"}])
        assert "Throughput vs n" not in html


class TestDashboardCLI:
    def test_writes_single_html_file(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        rc = main(["dashboard", "--out", str(out), "--n", "6", "--m", "3",
                   "--sizes", "6"])
        assert rc == 0
        assert str(out) in capsys.readouterr().out
        assert out.exists() and out.read_text().startswith("<!DOCTYPE html>")

    def test_bad_sizes_rejected(self, tmp_path):
        assert main(["dashboard", "--out", str(tmp_path / "d.html"),
                     "--sizes", "six"]) == 2
