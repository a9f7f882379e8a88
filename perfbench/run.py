"""spdflow benchmark: end-to-end op times on three workloads, checked against
a closed-form oracle, and a traced run that splits an op across the layers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload presets|convergence|riccati-n8 \
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics (tracing off):
  op_cal     median over ops of the op's wall time divided by the mean time
             of the calibration slices run just before, during and just
             after it (dimensionless; see calib.py).  On presets it is the
             mean of case1_cal and case2_cal, the time per op of the
             alternating mix.
  setup_s    median time to `import spdflow.cli` in a fresh interpreter,
             divided by the calibration slices run around it and scaled to
             the reference machine's speed (setup_raw_s: unscaled).
--trace 1 reports per-layer metrics: per op, each layer's self time and span
  count, selected call counters, the tracing overhead, and calibrated
  microbenchmarks of single calls.

Human-readable lines (raw seconds, counts, percentiles, fail_frac, the
oracle verdict and the environment) come first; the last line of standard
output is one JSON object.  Each result is also written, with the
environment, under .perfbench/ in the checkout.  Exits 2 without a result
when the checkout holds no spdflow source.
"""

import os

# Pin BLAS to one thread before numpy loads: the ops are single-process and
# small-matrix, and a thread pool would compete with the calibration loop.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Pin this process, and the interpreters it starts, to one core.  The cores
# of the reference VM change speed independently; unpinned, a fresh
# interpreter's import time was uncorrelated with the calibration loop run
# around it (r = 0.2), and pinned it tracked it (r = 0.8).
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import micro  # noqa: E402
import oracle  # noqa: E402
import riccati_gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 30
# Shares of --seconds in a traced run: untraced ops, traced ops, microbenchmarks.
TRACE_SHARES = (0.3, 0.4, 0.3)


def _load_spdflow():
    """Import spdflow from this checkout's src/ and nowhere else."""
    if not (SRC / "spdflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spdflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spdflow
    import spdflow.cli

    if Path(spdflow.__file__).resolve().parent != SRC / "spdflow":
        raise ImportError(f"spdflow imported from {spdflow.__file__}, not {SRC}")
    return spdflow


def environment(spdflow):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": NPROC,
        "numba_enabled": bool(getattr(spdflow, "NUMBA_ENABLED", False)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pinned_cpu": CPU,
        "machine": platform.machine(),
    }


def measure_setup():
    """Seconds to import spdflow.cli in a fresh interpreter.

    Returns the median, over SETUP_REPEATS imports, of the import time
    divided by the calibration slices run just before and after it, scaled
    to the reference machine's slice time; and the raw import times.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import spdflow.cli; "
        "print(time.perf_counter() - t)"
    )
    ratios, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = {}

        def child():
            out["proc"] = subprocess.run(
                [sys.executable, "-I", "-c", code, str(SRC)],
                capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
            )

        # No slices during the import: they would share its core.
        _, cal = calib.timed_call(child, during=False)
        if i:  # the first import also writes the bytecode cache
            raw.append(float(out["proc"].stdout.strip().splitlines()[-1]))
            ratios.append(raw[-1] / cal)
    return statistics.median(ratios) * calib.SLICE_NOMINAL_S, raw


def tail_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, float(np.percentile(values, p))


class Loop:
    """Closed loop in one process: one op at a time, cycling the op kinds."""

    def __init__(self, kinds, entry):
        self.kinds = kinds
        self.entry = entry
        self.samples = {k.name: [] for k in kinds}  # (op seconds, cal seconds)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, kind, entry, during):
        res = workloads.run_op(kind, entry, during)
        self.attempted += 1
        if not res.ok:
            self.failed += 1
            self.problems.append(f"{kind.name}: {'; '.join(res.problems)}")
        return res

    def warm_up(self):
        """One untimed op of the last kind, to pay first-call costs.

        On presets that is case2, which runs the same code as case1 in a
        third of the time.
        """
        self.op(self.kinds[-1], self.entry, during=False)

    def run_for(self, seconds, min_cycles, entry=None, during=True, after=None):
        """Cycle the op kinds until another cycle would overrun ``seconds``.

        Returns each kind's op/cal ratios and raw op seconds of this window.
        """
        start = {k.name: len(self.samples[k.name]) for k in self.kinds}
        t0 = time.perf_counter()
        cycles = 0
        while True:
            c0 = time.perf_counter()
            for kind in self.kinds:
                res = self.op(kind, entry or self.entry, during)
                self.samples[kind.name].append((res.seconds, res.cal))
                if after is not None:
                    after(kind)
            cycles += 1
            last = time.perf_counter() - c0
            if cycles >= min_cycles and time.perf_counter() - t0 + last > seconds:
                break
        window = {k: v[start[k]:] for k, v in self.samples.items()}
        ratios = {k: [op / cal for op, cal in v] for k, v in window.items()}
        raw = {k: [op for op, _ in v] for k, v in window.items()}
        return ratios, raw


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(loop, seconds):
    loop.warm_up()
    ratios, raw = loop.run_for(seconds, min_cycles=3)
    report, op_cals, op_raws = {}, [], []
    for kind in loop.kinds:
        r, s = ratios[kind.name], raw[kind.name]
        label = "op" if len(loop.kinds) == 1 else kind.name
        med = statistics.median(r)
        op_cals.append(med)
        op_raws.append(statistics.median(s))
        report[f"{label}_cal"] = (med, "ratio")
        report[f"{label}_s"] = (op_raws[-1], "s")
        report[f"{label}_count"] = (len(r), "count")
        tail = tail_percentile(r)
        if tail:
            report[f"{label}_cal_p{tail[0]}"] = (tail[1], "ratio")
    if len(loop.kinds) > 1:
        report["op_cal"] = (statistics.fmean(op_cals), "ratio")
        report["op_s"] = (statistics.fmean(op_raws), "s")
    return report


def run_traced(loop, seconds, seed, riccati_params):
    share_plain, share_traced, share_micro = (seconds * s for s in TRACE_SHARES)
    # No calibration slices during traced ops, so that no span contains one;
    # the untraced ops it is compared with are timed the same way.
    loop.warm_up()
    plain, _ = loop.run_for(share_plain, min_cycles=1, during=False)

    tracer = spans.Tracer()
    records = []
    per_op = []

    def collect(kind):
        rec = tracer.take()
        agg = spans.aggregate(rec)
        rows = oracle.read_errors(kind.out_dir)
        agg["cli.not_on_manifold_rows"] = oracle.not_on_manifold_rows(rows)
        per_op.append(agg)
        records.append((kind.name, rec))

    with spans.instrument(tracer):
        traced_main = tracer.wrap("cli.main", loop.entry)
        traced, _ = loop.run_for(
            share_traced, min_cycles=1, entry=traced_main, during=False, after=collect)

    # Per op: mean over the traced ops (whole cycles, so presets is an even
    # case1/case2 mix).  Counters absent from a record were never reached.
    mean = {k: statistics.fmean(a.get(k, 0) for a in per_op) for k in set().union(*per_op)}
    report = {}
    for name in spans.LAYERS:
        report[f"{name}.self_s"] = (mean[f"{name}.self_s"], "s")
        report[f"{name}.calls"] = (mean[f"{name}.calls"], "count")
    for name in spans.LAYER_COUNTERS + ("cli.not_on_manifold_rows",):
        report[name] = (mean.get(name, 0), "count")
    report["trace_overhead"] = (statistics.fmean(
        statistics.median(traced[k]) / statistics.median(plain[k]) for k in traced), "ratio")
    for name, us in micro.run_all(seed, riccati_params, share_micro).items():
        report[name] = (us, "us")
    return report, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spdflow = _load_spdflow()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(spdflow)
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        kinds = workloads.make_ops(args.workload, args.seed, tmp)
        loop = Loop(kinds, spdflow.cli.main)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env}
        if args.trace == 0:
            setup_s, setup_raw = measure_setup()
            report = run_untraced(loop, args.seconds)
            report["setup_s"] = (setup_s, "s")
            report["setup_raw_s"] = (statistics.median(setup_raw), "s")
            result["setup_runs_s"] = setup_raw
            gated = ("op_cal", "setup_s")
        else:
            report, records = run_traced(
                loop, args.seconds, args.seed, riccati_gen.riccati_params(args.seed))
            gated = tuple(report)
            _write_spans(records, f"{args.workload}-seed{args.seed}")
        report["fail_frac"] = (loop.failed / loop.attempted, "ratio")
        metrics = {k: _metric(*report[k]) for k in gated}
        result["report"] = {k: _metric(*v) for k, v in report.items()}
        result["problems"] = loop.problems
        result["samples"] = {k: [{"op_s": op, "cal_s": cal} for op, cal in v]
                             for k, v in loop.samples.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    verdict = "pass" if not loop.problems else f"FAIL ({len(loop.problems)} ops)"
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"oracle: {verdict}")
    for p in loop.problems[:10]:
        print(f"  {p}")
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def _write_spans(records, stem):
    arrays = {}
    for i, (kind, rec) in enumerate(records):
        arrays[f"op{i}_kind"] = np.array(kind)
        arrays[f"op{i}_names"] = np.array(rec["names"])
        for k in ("name_id", "parent", "start", "end"):
            arrays[f"op{i}_{k}"] = rec[k]
    np.savez_compressed(WORK / f"spans-{stem}.npz", **arrays)


if __name__ == "__main__":
    sys.exit(main())
