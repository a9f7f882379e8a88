"""Every perfbench microbenchmark runs against the current program.

The micro cases are only timed by a traced benchmark run, so a change to a
signature they call would otherwise go unnoticed until then.  The perfbench
modules are imported, not changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

import micro  # noqa: E402
import riccati_gen  # noqa: E402

CASES = dict(micro.cases(0, riccati_gen.riccati_params(0)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_runs(name):
    out = CASES[name]()
    if name.startswith("manifold.affine_distance."):
        assert type(out) is float and np.isfinite(out)
    elif name.startswith("integrators.step."):
        assert np.isfinite(out).all()


def test_the_float_check_has_cases():
    assert any(n.startswith("manifold.affine_distance.") for n in CASES)
