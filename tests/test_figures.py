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


def test_figures_are_deterministic():
    reports = sample_reports()
    first = emit_figures(reports)
    second = emit_figures(reports)
    assert tuple(first) == ("fig1-fraction-delayed.svg", "fig2-average-delay.svg",
                            "fig3-delay-distribution.svg")
    for name in first:
        assert first[name] == second[name]
        assert first[name].startswith("<svg")


def test_a_chart_that_fails_leaves_no_file(tmp_path, monkeypatch):
    def broken(canvas):
        raise RuntimeError("chart failed")

    monkeypatch.setattr(figures._Canvas, "finish", broken)
    monkeypatch.chdir(tmp_path)  # a file written by a relative path would land here
    reports = sample_reports()
    with pytest.raises(RuntimeError, match="chart failed"):
        emit_figures(reports)
    with pytest.raises(RuntimeError, match="chart failed"):
        delay_distribution_figure(reports, sdr=1.2)
    with pytest.raises(RuntimeError, match="chart failed"):
        delay_distribution_figure(reports, sdr=9.9)  # no bars to draw
    assert list(tmp_path.iterdir()) == []


def test_single_series_chart():
    per_seed = [build_report("rr", 1.4, 1, delays_from_minutes([0, 20]), 30.0)]
    reports = per_seed + [average_reports(per_seed)]
    text = fod_figure(reports)
    assert text.count("<polyline") == 0  # one point: no line segment yet
    assert ">rr<" in text


def test_missing_cells_warn_and_leave_gaps(capsys):
    reports = sample_reports()
    reports = [r for r in reports
               if not (r.policy == "fcfs" and r.sdr == 1.2 and r.seed is None)]
    adfd_figure(reports)
    assert "missing sweep cells" in capsys.readouterr().err


def test_distribution_chart_without_matching_ratio_warns(capsys):
    text = delay_distribution_figure(sample_reports(), sdr=9.9)
    assert "no delay distributions" in capsys.readouterr().err
    assert text.startswith("<svg")


def test_each_policy_name_has_its_own_colour():
    assert tuple(_PALETTE) == POLICY_NAMES
    assert len(set(_PALETTE.values())) == len(POLICY_NAMES)
    reports = []
    for policy in ("fcfs", "fcfs-simple"):
        for sdr in (1.2, 2.0):
            per_seed = [build_report(policy, sdr, 1, delays_from_minutes([0, 20]), 30.0)]
            reports += per_seed + [average_reports(per_seed)]
    text = fod_figure(reports)
    assert f'stroke="{_PALETTE["fcfs"]}"' in text
    assert f'stroke="{_PALETTE["fcfs-simple"]}"' in text
