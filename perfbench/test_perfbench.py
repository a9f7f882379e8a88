"""Tests of the benchmark itself: oracle, generator and tracing."""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import micro  # noqa: E402
import oracle  # noqa: E402
import riccati_gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_timed_call_subtracts_the_slices_taken_during_the_call():
    def busy(seconds=0.35):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    net, cal = calib.timed_call(busy)
    assert 0.35 - net > cal  # at least one slice ran inside and was removed
    assert net > 0.25
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_oracle_reproduces_case1_reference():
    from spdflow.integrators import reference_trajectory
    from spdflow.models import make_case_study

    case = make_case_study("case1")
    ref = reference_trajectory(case.model(), case.P0, case.grid(), 512)
    A, B, m0, P0, grid = oracle.case_params("case1")
    exact = oracle.gbm_closed_form(A, B, m0, P0, grid)
    err = max(np.linalg.norm(P - E) for P, E in zip(ref.points, exact))
    assert err <= oracle.REF_TOL


def test_oracle_restates_the_presets():
    from spdflow.models import make_case_study

    for case in ("case1", "case2"):
        p = make_case_study(case)
        A, B, m0, P0, grid = oracle.case_params(case)
        np.testing.assert_allclose(p.A, A, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(p.B, B)
        np.testing.assert_array_equal(p.m0, m0)
        np.testing.assert_array_equal(p.P0, P0)
        np.testing.assert_array_equal(p.grid(), grid)


def test_riccati_generator_is_deterministic():
    assert riccati_gen.riccati_config_text(7) == riccati_gen.riccati_config_text(7)
    assert riccati_gen.riccati_config_text(7) != riccati_gen.riccati_config_text(8)
    cfg = json.loads(riccati_gen.riccati_config_text(7))
    assert np.array(cfg["params"]["A"]).shape == (8, 8)
    assert cfg["grid"] == {"t0": 0.0, "t1": 1.0, "points": 21}


@pytest.mark.parametrize("seed", range(5))
def test_riccati_closed_form_stays_spd(seed):
    p = riccati_gen.riccati_params(seed)
    sol = oracle.riccati_closed_form(
        p["A"], p["B"], p["Q"], p["R"], p["P0"], np.linspace(0.0, 1.0, 101))
    assert min(np.linalg.eigvalsh(P)[0] for P in sol) > 0.0


def _outputs(out_dir):
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}


@pytest.mark.parametrize("workload,kind", [
    ("presets", "case2"), ("convergence", "convergence"), ("riccati-n8", "riccati-n8"),
])
def test_tracing_leaves_outputs_unchanged(tmp_path, workload, kind):
    import spdflow.cli

    op = next(k for k in workloads.make_ops(workload, 3, str(tmp_path)) if k.name == kind)
    plain = workloads.run_op(op, spdflow.cli.main)
    assert plain.ok, plain.problems
    expected = _outputs(op.out_dir)

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = workloads.run_op(op, tracer.wrap("cli.main", spdflow.cli.main))
    assert traced.ok, traced.problems
    assert _outputs(op.out_dir) == expected

    rec = tracer.take()
    agg = spans.aggregate(rec)
    root = rec["end"][0] - rec["start"][0]
    assert sum(agg[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(root, rel=1e-9)
    if workload == "convergence":
        assert agg["kernels.expm_dense.calls"] > 0 and agg["actions.calls"] > 0
    else:
        intervals = {"case2": 10, "riccati-n8": 20}[kind]
        assert agg["integrators.reference_substeps"] == 512 * intervals


def test_instrument_restores_every_name():
    import spdflow.actions
    import spdflow.cli
    import spdflow.integrators
    import spdflow.kernels

    before = (spdflow.cli.integrate, spdflow.integrators.rk4_step,
              spdflow.kernels.expm_dense, spdflow.actions.CongruenceAction.act,
              spdflow.models.gbm_model, spdflow.cli.convergence_model)
    with spans.instrument(spans.Tracer()):
        assert spdflow.cli.integrate is not before[0]
    after = (spdflow.cli.integrate, spdflow.integrators.rk4_step,
             spdflow.kernels.expm_dense, spdflow.actions.CongruenceAction.act,
             spdflow.models.gbm_model, spdflow.cli.convergence_model)
    assert all(a is b for a, b in zip(before, after))


def test_instrument_refuses_a_missing_name(monkeypatch):
    import spdflow.cli
    import spdflow.kernels

    before = spdflow.cli.integrate
    monkeypatch.delattr(spdflow.kernels, "dexpinv_series")
    with pytest.raises(LookupError, match="spdflow.kernels.dexpinv_series"):
        with spans.instrument(spans.Tracer()):
            pass
    assert spdflow.cli.integrate is before


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"op_cal", "setup_s"}
    layer = [f"{name}.{k}" for name in spans.LAYERS for k in ("self_s", "calls")]
    layer += list(spans.LAYER_COUNTERS) + ["cli.not_on_manifold_rows", "trace_overhead"]
    layer += [name for name, _ in micro.cases(0, riccati_gen.riccati_params(0))]
    assert [m["name"] for m in spec["per_layer"]] == layer
