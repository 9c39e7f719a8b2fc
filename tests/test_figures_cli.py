"""Figure presets (CSV + plot script + PNG) and the click CLI."""

import os
import re

import pytest
from click.testing import CliRunner

from msiblockade import blas
from msiblockade.cli import main
from msiblockade.figures import (
    FIGURE_IDS,
    PresetGateError,
    _gate_master_effective,
    fig3_spec,
    reproduce,
)
from msiblockade.model import SystemParams
from msiblockade.sweep import evaluate_point


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
