"""The benchmark's smoke tier on the projection and step paths, run as part of
the tests.

``build_w_audit`` writes a projection with ``crosstok build-w``, loads it back
and checks it against one built in-process; ``step_warm_grad`` loads the
projection that ``benchmarks/gen.py`` saved and runs ``pkl`` and ``hkl`` on
it; ``step_cold_fwd`` runs forward-only steps with ``pkl``, ``kl`` and ``uld``
teachers on a cold alignment cache. Each checks the seed-0 smoke goldens, so
a change that breaks one of these paths fails here, not only in the
benchmark's own tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["build_w_audit", "step_warm_grad", "step_cold_fwd"])
def test_smoke_tier_is_correct(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--tier", "smoke", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is True, out.stderr
