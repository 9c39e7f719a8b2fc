"""Figure presets (CSV + plot script + PNG) and the click CLI."""

import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from msiblockade import blas, figures
from msiblockade.cli import main
from msiblockade.figures import (
    FIGURE_IDS,
    PanelFiles,
    PresetGateError,
    _gate_master_effective,
    _gnuplot_script,
    fig3_spec,
    reproduce,
)
from msiblockade.model import SystemParams
from msiblockade.sweep import TRUNC_EFFECTIVE, VALUE_FIELDS, SweepResult, evaluate_point


class TestPresets:
    def test_figure_ids(self):
        assert FIGURE_IDS == ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure id"):
            reproduce("fig99", str(tmp_path))

    def test_fig2_writes_csv_script_png(self, tmp_path):
        manifest = reproduce("fig2", str(tmp_path))
        assert manifest["figure"] == "fig2"
        csv_path = manifest["panels"]["noise"]
        assert os.path.exists(csv_path)
        with open(csv_path) as fh:
            header = fh.readline().strip()
            n_rows = sum(1 for _ in fh)
        assert header == "n_photon,t_bath,n_eff,t_eff,flags"
        assert n_rows == 51 * 51
        with open(manifest["plot_script"]) as fh:
            script = fh.read()
        assert "gnuplot" in script and "pm3d" in script
        assert manifest["png"] is not None and os.path.exists(manifest["png"])
        assert os.path.getsize(manifest["png"]) > 1000

    def test_fig2_no_render(self, tmp_path):
        manifest = reproduce("fig2", str(tmp_path), render=False)
        assert manifest["png"] is None
        assert not os.path.exists(os.path.join(tmp_path, "fig2.png"))

    def test_fig3_spec_shape(self):
        spec = fig3_spec()
        assert spec.axes[0].count == 401
        assert spec.tiers == ("analytic", "master_effective")
        vals = spec.axes[0].values()
        assert vals[120] == -2.0e5  # blockade detuning on the exact grid

    def test_gate_passes_on_weak_drive(self):
        p = SystemParams(
            g_omega=200.0, g_kappa=500.0, J=2.0e5,
            delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
        )
        _gate_master_effective([p], trunc=(4, 4))  # must not raise

    def test_gate_rejects_unconverged_truncation(self):
        # strong resonant drive: two levels per mode cannot represent the
        # state, so doubling the truncation moves g2 by far more than the
        # gate tolerance
        p = SystemParams(
            g_omega=0.0, g_kappa=0.0, J=2.0e5,
            delta_c=0.0, delta_e=0.0, eps_c=5.0e3, eps_e=5.0e3,
        )
        with pytest.raises(PresetGateError, match="truncation gate failed"):
            _gate_master_effective([p], trunc=(2, 2))

    def test_gate_passes_undriven_probe(self):
        # no drive: n is solver noise (n_c ~ -3.6e-39 at (3,3)), whose square
        # underflows to 0; the moment floor must stay finite there
        p = SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, delta_c=-2.0e5, delta_e=-2.0e5)
        _gate_master_effective([p], trunc=(3, 3))  # must not raise


class TestGateCalls:
    """Which presets gate their master tier, at which probes, before which sweep."""

    @staticmethod
    def record(monkeypatch, fig_id, out_dir):
        """reproduce(fig_id) with the gate and run_sweep replaced by recorders;
        a recorded sweep writes a header-only CSV."""
        events = []

        def gate(params_list, trunc=TRUNC_EFFECTIVE):
            events.append(("gate", list(params_list), trunc))

        def sweep(spec):
            events.append(("sweep", spec))
            names = [ax.name for ax in spec.axes] + ["tier", *VALUE_FIELDS]
            return SweepResult(spec, {n: [] if n in ("tier", "status") else np.empty(0) for n in names})

        monkeypatch.setattr(figures, "_gate_master_effective", gate)
        monkeypatch.setattr(figures, "run_sweep", sweep)
        reproduce(fig_id, str(out_dir), render=False)
        return events

    @pytest.mark.parametrize("fig_id", ["fig2", "fig4", "fig5", "fig8"])
    def test_analytic_presets_run_no_gate(self, monkeypatch, tmp_path, fig_id):
        events = self.record(monkeypatch, fig_id, tmp_path)
        assert [e for e in events if e[0] == "gate"] == []

    def test_fig3_gates_detuning_ends_and_center(self, monkeypatch, tmp_path):
        (gate, sweep) = self.record(monkeypatch, "fig3", tmp_path)
        assert gate[0] == "gate" and sweep == ("sweep", fig3_spec())
        assert [(p.delta_c, p.delta_e) for p in gate[1]] == [(-5.0e5, -5.0e5), (0.0, 0.0), (5.0e5, 5.0e5)]
        assert gate[2] == TRUNC_EFFECTIVE

    def test_fig6_gates_corners_and_center(self, monkeypatch, tmp_path):
        (gate, sweep) = self.record(monkeypatch, "fig6", tmp_path)
        assert gate[0] == "gate" and sweep[0] == "sweep"
        assert [(p.g_omega, p.g_kappa) for p in gate[1]] == [
            (0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0), (500.0, 500.0),
        ]
        assert all(p.delta_c == p.delta_e == -2.0e5 for p in gate[1])
        assert gate[2] == TRUNC_EFFECTIVE

    def test_fig7_gates_each_panel_at_kappa_ends(self, monkeypatch, tmp_path):
        events = self.record(monkeypatch, "fig7", tmp_path)
        assert [e[0] for e in events] == ["gate", "sweep"] * 4
        for (_, probes, trunc), (_, spec), gk in zip(events[::2], events[1::2], (0.0, 200.0, 400.0, 600.0)):
            assert [(p.kappa_c, p.kappa_e) for p in probes] == [(1.0e-3, 1.0e-3), (1.0e5, 1.0e5)]
            assert all(p.g_kappa == spec.fixed.g_kappa == gk for p in probes)
            assert trunc == TRUNC_EFFECTIVE


def plotted_columns(script):
    """The 1-based CSV column of each plot's last axis (y, or z on a map) in a gnuplot script."""
    cols = []
    for using in re.findall(r"using (.*?) with", script):
        refs = re.findall(r"\$(\d+)|:(\d+)$", using)
        cols.append(int(refs[-1][0] or refs[-1][1]))
    return cols


class TestPlotColumns:
    """The gnuplot script plots the column the PNG does, picked by header name."""

    @pytest.mark.parametrize("fig_id, name", [("fig2", "n_eff"), ("fig4", "log10_g2_c")])
    def test_reproduced_script_plots_named_column(self, tmp_path, fig_id, name):
        manifest = reproduce(fig_id, str(tmp_path), render=False)
        with open(manifest["plot_script"]) as fh:
            cols = plotted_columns(fh.read())
        assert len(cols) == len(manifest["panels"])
        for path, col in zip(manifest["panels"].values(), cols):
            with open(path) as fh:
                assert fh.readline().strip().split(",")[col - 1] == name

    @pytest.mark.parametrize(
        "fig_id, header",
        [
            ("fig3", "delta,tier,g2_c,g2_e,n_c,n_e,status,residual,log10_g2_c,log10_g2_e"),
            ("fig7", "kappa,tier,g2_c,g2_e,n_c,n_e,status,residual,log10_g2_c,log10_g2_e"),
        ],
        ids=["fig3", "fig7"],
    )
    def test_line_script_plots_log10_g2_c(self, tmp_path, fig_id, header):
        path = tmp_path / f"{fig_id}.csv"
        path.write_text(header + "\n1000.0,analytic,1.5,1.5,0.1,0.1,ok,,0.17,0.17\n")
        cols = plotted_columns(_gnuplot_script(fig_id, [PanelFiles("p", str(path))], str(tmp_path)))
        assert cols and all(header.split(",")[c - 1] == "log10_g2_c" for c in cols)


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_g2_analytic_point(self):
        result = self.runner.invoke(main, [
            "g2", "--delta-c", "-1e5", "--delta-e", "-1e5",
            "--g-omega", "200", "--g-kappa", "500", "--j", "2e5",
            "--eps-c", "5e3", "--eps-e", "5e3", "--tiers", "analytic",
        ])
        assert result.exit_code == 0, result.output
        assert "analytic" in result.output
        assert "g2_c=" in result.output and "status=ok" in result.output

    def test_g2_prints_evaluate_point_values(self):
        p = SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5,
                         delta_c=-1.0e5, delta_e=-0.5e5, eps_c=5.0e3, eps_e=5.0e3)
        result = self.runner.invoke(main, [
            "g2", "--delta-c", "-1e5", "--delta-e", "-0.5e5",
            "--g-omega", "200", "--g-kappa", "500", "--j", "2e5",
            "--eps-c", "5e3", "--eps-e", "5e3", "--tiers", "master_effective,analytic",
        ])
        assert result.exit_code == 0, result.output
        printed = result.output.strip().split("\n")
        rows = evaluate_point(p, ("analytic", "master_effective"))
        assert len(printed) == len(rows) == 2
        for line, row in zip(printed, rows):
            assert line.split()[0] == row.tier
            fields = dict(re.findall(r"(\w+)=\s*(\S+)", line))
            assert fields["status"] == row.status == "ok"
            for name in ("g2_c", "g2_e", "n_c", "n_e"):
                assert float(fields[name]) == float(f"{getattr(row, name):.6e}")

    def test_g2_rejects_unknown_tier(self):
        result = self.runner.invoke(main, ["g2", "--tiers", "analytc"])
        assert result.exit_code != 0
        assert "unknown tier" in result.output

    def test_g2_rejects_invalid_parameter(self):
        result = self.runner.invoke(main, ["g2", "--kappa-c", "-1", "--tiers", "analytic"])
        assert result.exit_code == 2
        assert "kappa_c must be nonnegative" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("option, value, field", [("--j", "nan", "J"), ("--kappa-c", "inf", "kappa_c")])
    def test_g2_rejects_non_finite_parameter(self, option, value, field):
        result = self.runner.invoke(main, ["g2", option, value, "--tiers", "analytic"])
        assert result.exit_code == 2
        assert f"{field} must be finite" in result.output

    def test_g2_semiclassical_linear_pole(self):
        # kappa = 0 on the D_J pole: the mean-field seed's linear system is singular
        result = self.runner.invoke(main, [
            "g2", "--j", "2e5", "--delta-c", "-2e5", "--delta-e", "-2e5", "--eps-c", "5e3", "--eps-e", "5e3",
            "--kappa-c", "0", "--kappa-e", "0", "--tiers", "semiclassical",
        ])
        assert result.exit_code == 0, result.output
        assert "status=pole_DJ" in result.output and "error" not in result.output

    def test_g2_pole_prints_dash(self):
        # delta = -J puts the empty cavity on its bunching pole
        result = self.runner.invoke(main, [
            "g2", "--delta-c", "-2e5", "--delta-e", "-2e5",
            "--g-omega", "200", "--g-kappa", "500", "--j", "2e5",
            "--eps-c", "5e3", "--eps-e", "5e3", "--tiers", "analytic",
        ])
        assert result.exit_code == 0, result.output
        assert "g2_e=           -" in result.output
        assert "pole_JplusDeltaC" in result.output

    def test_g2_without_dissipation_exits_1(self):
        result = self.runner.invoke(main, [
            "g2", "--kappa-c", "0", "--kappa-e", "0", "--j", "2e5",
            "--eps-c", "5e3", "--eps-e", "5e3", "--tiers", "master_effective",
        ])
        assert result.exit_code == 1, result.output
        assert "status=error:SteadyStateError:no dissipation" in result.output

    def test_sweep_command(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "axes:\n"
            "  - {name: delta, min: -1.0e5, max: 1.0e5, count: 3}\n"
            "fixed: {g_omega: 200.0, g_kappa: 500.0, J: 2.0e5, eps_c: 5.0e3, eps_e: 5.0e3}\n"
            "tiers: [analytic]\n"
        )
        out = tmp_path / "out.csv"
        result = self.runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "wrote 3 rows" in result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("delta,tier,")
        assert len(lines) == 4

    def test_sweep_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("axes:\n  - {name: kapa_c, min: 1.0, max: 2.0, count: 3}\n")
        out = tmp_path / "out.csv"
        result = self.runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code != 0
        assert "bad config" in result.output and "kappa_c" in result.output

    def test_sweep_refuses_invalid_grid_point(self, tmp_path):
        cfg = tmp_path / "negative_kappa.yaml"
        cfg.write_text("axes:\n  - {name: kappa, min: -5.0e3, max: 5.0e3, count: 3}\n")
        out = tmp_path / "out.csv"
        result = self.runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert "bad config: axis 'kappa': value -5000.0: kappa_c must be nonnegative" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ("axes:\n  - {name: delta, min: 0.0, max: 1.0, count: 2}\nfixed: {J: .nan}\n", "J must be finite"),
            ("axes:\n  - {name: delta, min: .nan, max: 1.0, count: 2}\n", "min must be finite"),
        ],
        ids=["fixed", "axis"],
    )
    def test_sweep_rejects_non_finite_config(self, tmp_path, config, message):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(config)
        out = tmp_path / "out.csv"
        result = self.runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert "bad config" in result.output and message in result.output
        assert not out.exists()

    def test_reproduce_command_no_render(self, tmp_path):
        result = self.runner.invoke(main, ["reproduce", "fig2", "--out", str(tmp_path), "--no-render"])
        assert result.exit_code == 0, result.output
        assert "panel noise:" in result.output
        assert "plot script:" in result.output
        assert (tmp_path / "fig2_noise.csv").exists()
        assert (tmp_path / "fig2.gnuplot").exists()

    def test_reproduce_rejects_unknown_figure(self, tmp_path):
        result = self.runner.invoke(main, ["reproduce", "fig99", "--out", str(tmp_path)])
        assert result.exit_code != 0

    def test_threads_option_removed(self):
        result = self.runner.invoke(main, ["--threads", "2", "check"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output

    def test_check_command(self):
        result = self.runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        assert result.output.count("ok   ") == 4
        assert "all checks passed" in result.output
        first = result.output.splitlines()[0]
        assert first.startswith("blas: ")
        for lib in blas.libraries():
            assert f"{lib.name} ({lib.get_num_threads()} threads)" in first

    def test_check_command_without_blas(self, monkeypatch):
        monkeypatch.setattr(blas, "libraries", lambda: ())
        result = self.runner.invoke(main, ["check"])
        assert result.output.splitlines()[0] == "blas: none found"
