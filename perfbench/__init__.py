"""Seeded sweep-job benchmark for msiblockade.

Run it from the repository root as ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see NOTES.md for the
workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def use_checkout_source() -> bool:
    """Put this checkout's ``src`` first on ``sys.path``.

    Returns False when the checkout holds no msiblockade sources, so the
    benchmark can refuse to run against some other installed copy.
    """
    if not (SOURCE / "msiblockade" / "__init__.py").is_file():
        return False
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    return True
