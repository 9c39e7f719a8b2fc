"""What ``import msiblockade`` and the sweep paths load.

No sweep path uses scipy.integrate (which brings scipy.optimize and
scipy.special) or scipy.constants, so every process would pay their import
time and memory for nothing; the three time integrators import
scipy.integrate when first called. The check runs in a fresh interpreter,
so that modules imported by other tests do not hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import msiblockade

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.constants")

PROBE = f"""
import sys

import msiblockade
from msiblockade import (
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_liouvillian,
    evaluate_point,
    evolve,
    make_space,
    vacuum_state,
)
from msiblockade.sweep import TIERS

p = SystemParams(
    kappa_c=5.0e3, kappa_e=5.0e3, g_omega=200.0, g_kappa=500.0,
    J=2.0e5, delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
)
rows = evaluate_point(p, TIERS, trunc_effective=(3, 3), trunc_full=(2, 2, 3))
assert [r.tier for r in rows] == list(TIERS), rows
assert all(r.status == "ok" for r in rows), rows
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
assert not loaded, f"loaded by import and evaluate_point: {{loaded}}"

space = make_space((2, 2))
L = build_liouvillian(build_effective_hamiltonian(p, space), build_collapse_ops(p, space))
evolve(vacuum_state(space), L, [1.0e-6])
assert "scipy.integrate" in sys.modules
"""


def test_sweep_paths_leave_integrators_and_constants_unloaded():
    src = str(Path(msiblockade.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
