"""Program defects the benchmark's workloads are chosen to avoid.

Each test asserts the behaviour the output checks require and is expected
to fail at present. When a change fixes a defect its test passes, strict
xfail turns that into a failure, and the workload window named in the
reason can be widened back (see NOTES.md, Known defects).

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import use_checkout_source  # noqa: E402

assert use_checkout_source()

from msiblockade import analytic, liouvillian  # noqa: E402
from msiblockade.analytic import PoleStatus  # noqa: E402
from perfbench import checks, workloads  # noqa: E402

BASE = workloads.BASE


@pytest.mark.xfail(strict=True, reason="defect 1: detuning cuts and scans run at g_kappa = 0")
def test_effective_model_residual_at_resonance():
    p = BASE.with_(g_omega=500.0, g_kappa=500.0, delta_c=BASE.J, delta_e=BASE.J)
    res = liouvillian.steady_state(checks.effective_liouvillian(p, (6, 6)), method="direct")
    assert checks.solve_problem(res) is None


@pytest.mark.xfail(strict=True, reason="defect 2: kappa cuts span 2e3 to 8e3 Hz")
def test_krylov_matches_direct_at_small_kappa():
    J = 1.0e5
    p = BASE.with_(g_omega=800.0, g_kappa=800.0, J=J, delta_c=-J, delta_e=-J, kappa_c=1.0, kappa_e=1.0)
    L = checks.effective_liouvillian(p, (6, 6))
    direct = liouvillian.steady_state(L, method="direct")
    krylov = liouvillian.steady_state(L, method="krylov")
    assert checks.solve_problem(krylov) is None
    n_d, _ = liouvillian.mode_statistics(direct.state, 0)
    n_k, _ = liouvillian.mode_statistics(krylov.state, 0)
    assert n_k == pytest.approx(n_d, rel=checks.SOLVER_RTOL)


@pytest.mark.xfail(strict=True, reason="defect 2: kappa cuts span 2e3 to 8e3 Hz")
def test_direct_g2_is_nonnegative_at_small_kappa():
    J = 3.0e5
    p = BASE.with_(g_omega=800.0, g_kappa=800.0, J=J, delta_c=-J, delta_e=-J, kappa_c=1.0, kappa_e=1.0)
    direct = liouvillian.steady_state(checks.effective_liouvillian(p, (6, 6)), method="direct")
    _, g2 = liouvillian.mode_statistics(direct.state, 0)
    assert g2 >= 0.0


@pytest.mark.xfail(strict=True, reason="defect 4: kappa cuts span 2e3 to 8e3 Hz; detuning cuts drive strongly")
def test_krylov_two_photon_moment_within_floor():
    J = 312583.0
    p = BASE.with_(
        g_omega=33.775620244847815, g_kappa=943.7787530895548, J=J, delta_c=-J, delta_e=-J,
        kappa_c=42417.62505741053, kappa_e=42417.62505741053,
    )
    L = checks.effective_liouvillian(p, (6, 6))
    direct = liouvillian.steady_state(L, method="direct")
    krylov = liouvillian.steady_state(L, method="krylov")
    assert checks.solve_problem(krylov) is None
    n, g2_d = liouvillian.mode_statistics(direct.state, 0)
    _, g2_k = liouvillian.mode_statistics(krylov.state, 0)
    assert abs(g2_k - g2_d) <= checks.SOLVER_RTOL * abs(g2_d) + checks.MOMENT_FLOOR / n**2


@pytest.mark.xfail(strict=True, reason="defect 3: fixed J is a whole number of Hz")
def test_amplitude_route_reports_pole_at_blockade_point():
    J = 130450.06581225092
    if J**2 == J * J:
        pytest.skip("this platform's pow rounds J**2 like J * J; the defect cannot show")
    amps = analytic.amplitude_steady_states(BASE.with_(J=J, delta_c=-J, delta_e=-J))
    assert amps.status is PoleStatus.POLE_DJ
