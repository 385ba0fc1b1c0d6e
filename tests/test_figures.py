"""SVG chart generation: determinism and gap handling."""

import pytest

from gridshare import figures
from gridshare.figures import _PALETTE, adfd_figure, delay_distribution_figure, emit_figures, fod_figure
from gridshare.metrics import average_reports, build_report
from gridshare.policies import POLICY_NAMES

from test_metrics import delays_from_minutes


def sample_reports():
    reports = []
    for policy, base_delay in (("fcfs", 60), ("minmax-dt", 0)):
        for sdr in (1.2, 2.0):
            per_seed = [
                build_report(policy, sdr, seed,
                             delays_from_minutes([0, base_delay + 10 * seed, 150]), 30.0)
                for seed in (1, 2)
            ]
            reports.extend(per_seed)
            reports.append(average_reports(per_seed))
    return reports


def test_figures_are_deterministic(tmp_path):
    reports = sample_reports()
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir(), second.mkdir()
    emit_figures(reports, first)
    emit_figures(reports, second)
    for name in ("fig1-fraction-delayed.svg", "fig2-average-delay.svg",
                 "fig3-delay-distribution.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / name).read_text().startswith("<svg")


def test_a_chart_that_fails_leaves_no_file(tmp_path, monkeypatch):
    def broken(canvas):
        raise RuntimeError("chart failed")

    monkeypatch.setattr(figures._Canvas, "finish", broken)
    reports = sample_reports()
    with pytest.raises(RuntimeError, match="chart failed"):
        emit_figures(reports, tmp_path)
    with pytest.raises(RuntimeError, match="chart failed"):
        delay_distribution_figure(reports, tmp_path / "dist.svg", sdr=1.2)
    with pytest.raises(RuntimeError, match="chart failed"):
        delay_distribution_figure(reports, tmp_path / "empty.svg", sdr=9.9)  # no bars to draw
    assert list(tmp_path.iterdir()) == []


def test_single_series_chart(tmp_path):
    per_seed = [build_report("rr", 1.4, 1, delays_from_minutes([0, 20]), 30.0)]
    reports = per_seed + [average_reports(per_seed)]
    path = tmp_path / "one.svg"
    fod_figure(reports, path)
    text = path.read_text()
    assert text.count("<polyline") == 0  # one point: no line segment yet
    assert ">rr<" in text


def test_missing_cells_warn_and_leave_gaps(tmp_path, capsys):
    reports = sample_reports()
    reports = [r for r in reports
               if not (r.policy == "fcfs" and r.sdr == 1.2 and r.seed is None)]
    adfd_figure(reports, tmp_path / "gaps.svg")
    assert "missing sweep cells" in capsys.readouterr().err


def test_distribution_chart_without_matching_ratio_warns(tmp_path, capsys):
    reports = sample_reports()
    delay_distribution_figure(reports, tmp_path / "dist.svg", sdr=9.9)
    assert "no delay distributions" in capsys.readouterr().err
    assert (tmp_path / "dist.svg").read_text().startswith("<svg")


def test_each_policy_name_has_its_own_colour(tmp_path):
    assert tuple(_PALETTE) == POLICY_NAMES
    assert len(set(_PALETTE.values())) == len(POLICY_NAMES)
    reports = []
    for policy in ("fcfs", "fcfs-simple"):
        for sdr in (1.2, 2.0):
            per_seed = [build_report(policy, sdr, 1, delays_from_minutes([0, 20]), 30.0)]
            reports += per_seed + [average_reports(per_seed)]
    path = tmp_path / "fod.svg"
    fod_figure(reports, path)
    text = path.read_text()
    assert f'stroke="{_PALETTE["fcfs"]}"' in text
    assert f'stroke="{_PALETTE["fcfs-simple"]}"' in text
