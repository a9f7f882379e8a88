"""Which traced call reaches which: a guard for ``perfbench/spans.py``.

The benchmark times each layer by the names one module imports from the layer
below.  A change that reroutes a traced call, or stops making one, moves time
between layers without any span saying so; span names alone cannot tell,
since ``matcore.expm`` is reached from ``actions``, ``models`` and
``manifold``.  This test runs one traced op each of ``case2``,
``convergence`` and ``riccati-n8`` and compares the set of (parent span,
child span) edges with the table below, so such a change fails here until
the table changes in the same diff.  The perfbench modules are imported, not
changed.
"""

import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

# "parent -> child" for every traced call made inside another traced call.
EDGES = {
    "case2": (
        "actions.congruence_exp -> matcore.expm",
        "cli.main -> integrators.get_stepper",
        "cli.main -> integrators.integrate",
        "cli.main -> integrators.reference_trajectory",
        "cli.main -> manifold.affine_distance",
        "cli.main -> matcore.is_spd",
        "cli.main -> models.gbm_model",
        "cli.main -> models.make_case_study",
        "integrators.integrate -> actions.congruence_act",
        "integrators.integrate -> actions.congruence_exp",
        "integrators.integrate -> manifold.affine_exp",
        "integrators.integrate -> matcore.dexpinv",
        "integrators.integrate -> matcore.expm",
        "integrators.integrate -> models.evolve_aux",
        "integrators.integrate -> models.tangent",
        "integrators.integrate -> models.xi",
        "integrators.reference_trajectory -> matcore.expm",
        "integrators.reference_trajectory -> models.evolve_aux",
        "manifold.affine_exp -> matcore.expm",
        "manifold.affine_exp -> matcore.invsqrtm_spd",
        "manifold.affine_exp -> matcore.require_symmetric",
        "manifold.affine_exp -> matcore.sqrtm_spd",
        "matcore.dexpinv -> kernels.dexpinv_series",
        "matcore.expm -> kernels.expm_dense",
        "models.evolve_aux -> matcore.expm",
    ),
    "convergence": (
        "actions.congruence_exp -> matcore.expm",
        "cli.main -> integrators.get_stepper",
        "cli.main -> integrators.integrate",
        "cli.main -> integrators.reference_trajectory",
        "cli.main -> models.convergence_model",
        "integrators.integrate -> actions.congruence_act",
        "integrators.integrate -> actions.congruence_exp",
        "integrators.integrate -> matcore.dexpinv",
        "integrators.integrate -> models.tangent",
        "integrators.integrate -> models.xi",
        "integrators.reference_trajectory -> models.tangent",
        "matcore.dexpinv -> kernels.dexpinv_series",
        "matcore.expm -> kernels.expm_dense",
    ),
    "riccati-n8": (
        "actions.congruence_exp -> matcore.expm",
        "cli.main -> integrators.get_stepper",
        "cli.main -> integrators.integrate",
        "cli.main -> integrators.reference_trajectory",
        "cli.main -> manifold.affine_distance",
        "cli.main -> matcore.is_spd",
        "cli.main -> models.riccati_model",
        "integrators.integrate -> actions.congruence_act",
        "integrators.integrate -> actions.congruence_exp",
        "integrators.integrate -> manifold.affine_exp",
        "integrators.integrate -> matcore.dexpinv",
        "integrators.integrate -> models.tangent",
        "integrators.integrate -> models.xi",
        "integrators.reference_trajectory -> models.tangent",
        "manifold.affine_exp -> matcore.expm",
        "manifold.affine_exp -> matcore.invsqrtm_spd",
        "manifold.affine_exp -> matcore.require_symmetric",
        "manifold.affine_exp -> matcore.sqrtm_spd",
        "matcore.dexpinv -> kernels.dexpinv_series",
        "matcore.expm -> kernels.expm_dense",
        "models.riccati_model -> matcore.is_spd",
        "models.riccati_model -> matcore.require_symmetric",
    ),
}


@pytest.mark.parametrize("kind", sorted(EDGES))
def test_traced_call_edges(tmp_path, kind):
    import spdflow.cli

    workload = "presets" if kind == "case2" else kind
    ops = workloads.make_ops(workload, 3, str(tmp_path))
    op = next(k for k in ops if k.name == kind)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = workloads.run_op(op, tracer.wrap("cli.main", spdflow.cli.main), False)
    assert result.ok, result.problems
    rec = tracer.take()
    names = [rec["names"][i] for i in rec["name_id"]]
    edges = {f"{names[p]} -> {name}" for name, p in zip(names, rec["parent"]) if p >= 0}
    assert edges == set(EDGES[kind])
