"""Sweep configuration, grid execution, CSV determinism."""

import math
import sys
import textwrap
from dataclasses import astuple

import numpy as np
import pytest

from msiblockade.analytic import amplitude_steady_states, g2_analytic
from msiblockade.model import SystemParams
from msiblockade.semiclassical import reduced_fixed_point
from msiblockade.sweep import (
    AxisSpec,
    ConfigError,
    SweepResult,
    SweepRow,
    SweepSpec,
    evaluate_point,
    parse_config,
    run_sweep,
    serialize,
)

MINIMAL = textwrap.dedent(
    """
    axes:
      - name: delta
        min: -5.0e5
        max: 5.0e5
        count: 5
    """
)

FULL = textwrap.dedent(
    """
    axes:
      - name: delta_c
        min: -2.0e5
        max: 2.0e5
        count: 3
      - name: delta_e
        min: -2.0e5
        max: 2.0e5
        count: 3
    fixed:
      g_omega: 200.0
      g_kappa: 500.0
      J: 2.0e5
      eps_c: 5.0e3
      eps_e: 5.0e3
    tiers: [analytic, semiclassical]
    truncations:
      effective: [5, 5]
      full: [3, 3, 6]
    """
)


class TestAxisSpec:
    def test_linear_values(self):
        ax = AxisSpec("delta", -5.0e5, 5.0e5, 401)
        vals = ax.values()
        assert len(vals) == 401
        # exact-arithmetic grid: the blockade points are exact multiples
        assert vals[120] == -2.0e5
        assert vals[200] == 0.0

    def test_log_values(self):
        ax = AxisSpec("kappa", 1.0, 1.0e4, 5, "log")
        assert np.allclose(ax.values(), [1.0, 10.0, 100.0, 1000.0, 10000.0])

    def test_alias_updates_both_cavities(self):
        ax = AxisSpec("delta", -1.0, 1.0, 2)
        assert ax.param_updates(0.5) == {"delta_c": 0.5, "delta_e": 0.5}

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'kappa_c'"):
            AxisSpec("kapa_c", 0.0, 1.0, 3)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ConfigError, match="must be finite"):
            AxisSpec("delta", *bounds, 3)

    def test_count_and_log_validation(self):
        with pytest.raises(ConfigError, match="count"):
            AxisSpec("delta", 0.0, 1.0, 1)
        with pytest.raises(ConfigError, match="log"):
            AxisSpec("kappa", -1.0, 1.0, 3, "log")


class TestParseConfig:
    def test_minimal_with_defaults(self):
        spec = parse_config(MINIMAL)
        assert spec.tiers == ("analytic",)
        assert spec.trunc_effective == (6, 6)
        assert spec.trunc_full == (4, 4, 8)
        assert spec.fixed == SystemParams()

    def test_full_config(self):
        spec = parse_config(FULL)
        assert len(spec.axes) == 2
        assert spec.fixed.J == 2.0e5
        assert spec.tiers == ("analytic", "semiclassical")
        assert spec.trunc_effective == (5, 5)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key 'axis_specs'"):
            parse_config(MINIMAL + "\naxis_specs: []\n")

    def test_unknown_fixed_key_suggests(self):
        bad = MINIMAL + "fixed:\n  kapa_c: 100.0\n"
        with pytest.raises(ConfigError, match="did you mean 'kappa_c'"):
            parse_config(bad)

    def test_missing_axes_reported(self):
        with pytest.raises(ConfigError, match="missing required fields: axes"):
            parse_config("tiers: [analytic]\n")

    def test_missing_axis_fields_listed_exhaustively(self):
        with pytest.raises(ConfigError, match="min, max, count"):
            parse_config("axes:\n  - name: delta\n")

    def test_unknown_tier(self):
        with pytest.raises(ConfigError, match="master_effective"):
            parse_config(MINIMAL + "tiers: [master_efective]\n")

    def test_round_trip_idempotent(self):
        spec = parse_config(FULL)
        text = serialize(spec)
        again = parse_config(text)
        assert again == spec
        assert serialize(again) == text

    def test_not_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("axes: [unclosed\n  - ]broken")

    def test_truncation_lengths_checked(self):
        with pytest.raises(ConfigError, match="truncations.effective"):
            parse_config(MINIMAL + "truncations:\n  effective: [2, 2, 2]\n")
        with pytest.raises(ConfigError, match="truncations.full"):
            parse_config(MINIMAL + "truncations:\n  full: [2, 2]\n")

    def test_truncation_not_a_list(self):
        with pytest.raises(ConfigError, match="truncations.effective must be a list"):
            parse_config(MINIMAL + "truncations:\n  effective: 6\n")

    def test_fixed_value_not_a_number(self):
        with pytest.raises(ConfigError, match="fixed.J must be a number, got 'abc'"):
            parse_config(MINIMAL + "fixed:\n  J: abc\n")

    def test_fixed_value_out_of_range(self):
        with pytest.raises(ConfigError, match="kappa_c must be nonnegative"):
            parse_config(MINIMAL + "fixed:\n  kappa_c: -1.0\n")

    def test_axes_not_a_list(self):
        with pytest.raises(ConfigError, match="axes must be a list"):
            parse_config("axes: 5\n")

    def test_count_must_be_integral(self):
        bad = "axes:\n  - name: delta\n    min: 0\n    max: 1\n    count: 3.9\n"
        with pytest.raises(ConfigError, match=r"axes\[0\].count must be a whole number, got 3.9"):
            parse_config(bad)
        assert parse_config(bad.replace("3.9", "3.0")).axes[0].count == 3

    def test_levels_must_be_integral(self):
        with pytest.raises(ConfigError, match="truncations.effective must be a whole number, got 3.7"):
            parse_config(MINIMAL + "truncations:\n  effective: [3.7, 3]\n")

    def test_axis_bound_not_a_number(self):
        bad = "axes:\n  - name: delta\n    min: 0\n    max: x\n    count: 5\n"
        with pytest.raises(ConfigError, match=r"axes\[0\].max must be a number, got 'x'"):
            parse_config(bad)


class TestSweepSpec:
    AXES = (AxisSpec("delta", -1.0e5, 1.0e5, 2),)

    def test_truncation_lengths_checked_on_direct_spec(self):
        # a wrong length must fail at construction, not as one error row per point
        with pytest.raises(ConfigError, match="truncations.effective needs exactly 2"):
            SweepSpec(axes=self.AXES, tiers=("master_effective",), trunc_effective=(2, 2, 2))
        with pytest.raises(ConfigError, match="truncations.full needs exactly 3"):
            SweepSpec(axes=self.AXES, tiers=("master_full",), trunc_full=(2, 2))

    def test_tiers_stored_canonical_and_match_row_order(self):
        spec = SweepSpec(
            axes=self.AXES,
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
            tiers=("semiclassical", "analytic", "semiclassical"),
        )
        assert spec.tiers == ("analytic", "semiclassical")
        rows = run_sweep(spec).rows
        assert [r.tier for r in rows] == list(spec.tiers) * 2

    def test_unknown_or_empty_tiers_rejected(self):
        with pytest.raises(ConfigError, match="unknown tier 'analytc' \\(did you mean 'analytic'"):
            SweepSpec(axes=self.AXES, tiers=("analytic", "analytc"))
        with pytest.raises(ConfigError, match="at least one tier"):
            SweepSpec(axes=self.AXES, tiers=())
        with pytest.raises(ConfigError, match="unknown tier 'master_efective'"):
            evaluate_point(SystemParams(), ("analytic", "master_efective"))


class TestRunSweep:
    def test_analytic_three_rows(self):
        spec = SweepSpec(
            axes=(AxisSpec("delta", -1.0e5, 1.0e5, 3),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.g2_c is not None or row.status != "ok"

    def test_two_axis_row_major_order(self):
        spec = SweepSpec(
            axes=(AxisSpec("delta_c", 0.0, 2.0, 3), AxisSpec("delta_e", 10.0, 11.0, 2)),
            fixed=SystemParams(eps_c=1.0, eps_e=1.0, J=100.0, g_omega=1.0),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 6
        assert [r.axis_values for r in result.rows] == [
            (0.0, 10.0), (0.0, 11.0), (1.0, 10.0), (1.0, 11.0), (2.0, 10.0), (2.0, 11.0),
        ]

    def test_pole_rows_flagged_not_fatal(self):
        # the grid crosses delta = -J (D_J pole) and delta = 0
        spec = SweepSpec(
            axes=(AxisSpec("delta", -2.0e5, 0.0, 3),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
        )
        result = run_sweep(spec)
        statuses = [r.status for r in result.rows]
        assert any("pole" in s for s in statuses)
        assert result.hard_errors == 0

    def test_per_point_errors_recorded_in_row(self):
        # master_full with kappa_c = 0 cannot build the displacement-modified
        # collapse operator; the failure must land in the row, not abort
        spec = SweepSpec(
            axes=(AxisSpec("delta", -1.0, 1.0, 2),),
            fixed=SystemParams(kappa_c=0.0, g_kappa=500.0, g_omega=200.0, eps_c=1.0, eps_e=1.0),
            tiers=("master_full",),
            trunc_full=(2, 2, 2),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert all(r.status.startswith("error") for r in result.rows)
        assert result.hard_errors == 2

    def test_csv_schema_and_empty_cells(self):
        spec = SweepSpec(
            axes=(AxisSpec("delta", -2.0e5, 0.0, 3),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
        )
        csv_text = run_sweep(spec).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "delta,tier,g2_c,g2_e,n_c,n_e,status,residual"
        # the delta = -J row hits the g2_e bunching pole -> empty cell + status
        pole_line = [l for l in lines if "pole_JplusDeltaC" in l]
        assert pole_line and ",," in pole_line[0]

    def test_csv_log10_columns(self, tmp_path):
        # delta = -J: g2_e on its pole (None); delta = 0: blockade, g2_c = 0
        spec = SweepSpec(
            axes=(AxisSpec("delta", -2.0e5, 0.0, 3),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
        )
        result = run_sweep(spec)
        assert [(r.g2_c, r.g2_e) for r in (result.rows[0], result.rows[2])] == [(0.0, None), (0.0, 4.0)]
        lines = result.to_csv(log_cols=("g2_c", "g2_e")).strip().split("\n")
        header = lines[0].split(",")
        assert header == "delta,tier,g2_c,g2_e,n_c,n_e,status,residual,log10_g2_c,log10_g2_e".split(",")
        for row, line in zip(result.rows, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            for col in ("g2_c", "g2_e"):
                v = getattr(row, col)
                if v is None or v <= 0:
                    assert cells[f"log10_{col}"] == ""
                else:
                    assert cells[f"log10_{col}"] == repr(math.log10(v))
                    assert float(cells[f"log10_{col}"]) == math.log10(v)
        assert lines[1].endswith(",,")  # g2_c = 0 and g2_e on its pole
        assert lines[3].endswith(",," + repr(math.log10(4.0)))
        path = tmp_path / "out.csv"
        result.write_csv(path, log_cols=("g2_c", "g2_e"))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_csv_log10_empty_for_negative_value(self):
        spec = SweepSpec(axes=(AxisSpec("delta", 0.0, 1.0, 2),), tiers=("master_effective",))
        columns = {
            "delta": np.array([0.0, 1.0]),
            "tier": ["master_effective"] * 2,
            "g2_c": np.array([-1.0e-3, 2.5]),
            "g2_e": np.array([100.0, np.nan]),
            "n_c": np.array([1e-3, 1e-3]),
            "n_e": np.array([1e-3, np.nan]),
            "status": ["ok", "ok"],
            "residual": np.array([1e-15, 1e-15]),
        }
        result = SweepResult(spec, columns)
        assert result.rows[1] == SweepRow((1.0,), "master_effective", 2.5, None, 1e-3, None, "ok", 1e-15)
        lines = result.to_csv(log_cols=("g2_c", "g2_e", "n_c")).split("\n")
        assert lines[1].endswith(",,2.0,-3.0")
        assert lines[2].endswith("," + repr(math.log10(2.5)) + ",,-3.0")

    def test_evaluate_point_matches_sweep_row(self):
        spec = SweepSpec(
            axes=(AxisSpec("delta", -1.5e5, -0.5e5, 3),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
            tiers=("analytic", "master_effective"),
            trunc_effective=(4, 4),
        )
        result = run_sweep(spec)
        values = list(spec.grid())[1]
        swept = [r for r in result.rows if r.axis_values == values]
        direct = evaluate_point(spec.point_params(values), ("master_effective", "analytic"), trunc_effective=(4, 4))
        assert [r.tier for r in direct] == ["analytic", "master_effective"]
        assert [r.axis_values for r in direct] == [(), ()]
        assert [astuple(r)[1:] for r in direct] == [astuple(r)[1:] for r in swept]
        assert direct[1].status == "ok" and direct[1].g2_c is not None

    def test_determinism_byte_identical(self):
        spec = parse_config(FULL)
        a = run_sweep(spec).to_csv()
        b = run_sweep(spec).to_csv()
        assert a == b

    def test_master_effective_tier_values(self):
        spec = SweepSpec(
            axes=(AxisSpec("delta", -1.0e5, -1.0e5 + 1.0, 2),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5e3, eps_e=5e3),
            tiers=("master_effective",),
        )
        rows = run_sweep(spec).rows
        for r in rows:
            assert r.status == "ok"
            assert r.residual is not None and r.residual < 1e-10
            assert 0.9 < r.g2_c < 1.1  # flat region of the detuning sweep
            assert 0.0 < r.n_c < 1e-3


J0 = 2.0e5
# Between them these two grids reach every status of the grid tiers; a
# sweep has at most two axes, too few for one grid to reach them all.
STATUS_GRIDS = {
    # delta_c = -J: J + delta_c = 0; delta_e = -J: D_J = 0, and f_A = 0 too
    # at g_omega = 0; delta_e = +J: K = 0, so f_A = 0 at g_omega = 0
    "poles": SweepSpec(
        axes=(AxisSpec("delta_e", -J0, J0, 5), AxisSpec("g_omega", 0.0, 400.0, 3)),
        fixed=SystemParams(g_kappa=500.0, J=J0, delta_c=-J0, eps_c=5e3, eps_e=5e3),
        tiers=("analytic", "semiclassical"),
    ),
    # kappa < 0: invalid point; kappa = 0 at delta = -J: the mean-field
    # seed's D_J pole; eps_c = 0: zero drive, eps_c = 5e3: unequal drives
    "drives_and_rates": SweepSpec(
        axes=(AxisSpec("kappa", -5.0e3, 5.0e3, 3), AxisSpec("eps_c", 0.0, 5.0e3, 2)),
        fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=J0, delta_c=-J0, delta_e=-J0),
        tiers=("analytic", "semiclassical"),
    ),
}
STATUSES = {
    "poles": {
        "c:pole_fA;e:pole_fA;amps:pole_DJ", "e:pole_JplusDeltaC;amps:pole_DJ",
        "c:pole_fA;e:pole_fA", "e:pole_JplusDeltaC", "ok",
    },
    "drives_and_rates": {"error:ValueError:kappa_c must be nonnegative", "e:pole_JplusDeltaC", "pole_DJ", "ok"},
}


def _finite_or_none(v):
    return v if math.isfinite(v) else None


class TestGridTiers:
    @pytest.mark.parametrize("name", STATUS_GRIDS)
    def test_grid_rows_equal_point_evaluation(self, name):
        spec = STATUS_GRIDS[name]
        result = run_sweep(spec)
        assert set(result.columns["status"]) == STATUSES[name]
        for k, values in enumerate(spec.grid()):
            analytic, semi = result.rows[2 * k:2 * k + 2]
            try:
                p = spec.point_params(values)
            except ValueError as exc:
                for row in (analytic, semi):
                    assert row.status == f"error:ValueError:{exc}"
                    assert (row.g2_c, row.g2_e, row.n_c, row.n_e, row.residual) == (None,) * 5
                continue
            direct = evaluate_point(p, spec.tiers, axis_values=values)
            assert [astuple(r) for r in direct] == [astuple(analytic), astuple(semi)]

            closed = g2_analytic(p)
            assert (analytic.g2_c, analytic.g2_e) == (_finite_or_none(closed.g2_c), _finite_or_none(closed.g2_e))
            if p.eps_c != p.eps_e:
                assert (analytic.n_c, analytic.n_e) == (None, None)
            elif (amps := amplitude_steady_states(p)).status.value == "ok":
                assert (analytic.n_c, analytic.n_e) == amps.occupations()
            else:
                assert f"amps:{amps.status.value}" in analytic.status and analytic.n_c is None

            if semi.status == "pole_DJ":
                assert p.kappa_c == 0.0 and semi.n_c is None
            else:
                ac, ae, ok = reduced_fixed_point(p)
                assert semi.status == ("ok" if ok else "no_convergence")
                assert (semi.n_c, semi.n_e) == (abs(ac) * abs(ac), abs(ae) * abs(ae))

    def test_invalid_axis_values_validated_once(self, monkeypatch):
        spec = STATUS_GRIDS["drives_and_rates"]
        calls = []
        validate = SystemParams.__post_init__

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(SystemParams, "__post_init__", counting)
        run_sweep(spec)
        assert len(calls) == sum(ax.count for ax in spec.axes)

    def test_both_axes_invalid_names_first_checked_field(self):
        spec = SweepSpec(axes=(AxisSpec("gamma", -1.0, 1.0, 2), AxisSpec("kappa_e", -1.0, 1.0, 2)))
        statuses = [r.status for r in run_sweep(spec).rows]
        # SystemParams checks kappa_e before gamma
        kappa_e, gamma = (f"error:ValueError:{f} must be nonnegative" for f in ("kappa_e", "gamma"))
        assert statuses[:3] == [kappa_e, gamma, kappa_e]
        assert statuses[3] == evaluate_point(spec.point_params((1.0, 1.0)), spec.tiers)[0].status

    def test_non_finite_grid_value_gives_error_row(self):
        # a log axis up to the largest float overflows to inf at its last point
        spec = SweepSpec(
            axes=(AxisSpec("kappa", 5.0e3, sys.float_info.max, 2, "log"),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=J0, eps_c=5e3, eps_e=5e3),
            tiers=("analytic", "semiclassical"),
        )
        with np.errstate(over="ignore"):
            first, last = spec.axes[0].values().tolist()
            rows = run_sweep(spec).rows
        assert last == math.inf
        assert [r.status for r in rows[2:]] == ["error:ValueError:kappa_c must be finite"] * 2
        assert [astuple(r) for r in rows[:2]] == [
            astuple(r) for r in evaluate_point(spec.point_params((first,)), spec.tiers, axis_values=(first,))
        ]

    def test_master_tier_rows_at_invalid_points(self):
        spec = SweepSpec(
            axes=(AxisSpec("kappa", -5.0e3, 5.0e3, 2),),
            fixed=SystemParams(g_omega=200.0, g_kappa=500.0, J=J0, eps_c=5e3, eps_e=5e3),
            tiers=("master_effective", "semiclassical"),
            trunc_effective=(3, 3),
        )
        rows = run_sweep(spec).rows
        assert [r.tier for r in rows] == ["master_effective", "semiclassical"] * 2
        assert [r.status for r in rows[:2]] == ["error:ValueError:kappa_c must be nonnegative"] * 2
        assert [astuple(r) for r in rows[2:]] == [
            astuple(r) for r in evaluate_point(spec.point_params((5.0e3,)), spec.tiers, trunc_effective=(3, 3), axis_values=(5.0e3,))
        ]
