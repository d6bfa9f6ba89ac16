"""fiberquant benchmark: closed-loop workloads, each output checked by an oracle.

Run from the repository root (the checkout holds ``src/fiberquant``):

    python3 bench/run.py --workload transport-long --seed 1 --seconds 20 --trace 0

One process runs one operation at a time (a closed loop with one client),
with BLAS pinned to one thread, until ``--seconds`` of operations have
run.  Workloads:

* ``verify-all``: ``fiberquant verify all`` at two_j = 2 through
  ``cli.run_command``.  Every layer runs; the quadrature connection
  (``prequant_matrix``) dominates.  The suites seed themselves, so this
  workload does not use ``--seed``.
* ``transport-long``: rep-route Wilson loop on a latitude loop at
  two_j = 2, 10^6 RK4 steps.  Transport and ``connection_rep_batch``
  overhead at n = 3; fiberq does no work after set-up.  The seed draws
  the monopole strength k and the loop's colatitude and start azimuth.
* ``spin20-crossing``: rep-route Wilson loop on the meridian at
  two_j = 20, 2*10^4 steps, two chart crossings.  Set-up is dominated by
  the polarization checks of model construction; the run is matmul-bound
  at n = 21.  The seed draws k.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median import time in a fresh interpreter plus the median
of three set-ups, each scenario validation and ``Scenario.build_context``), ``run_s`` (median operation
time), ``steps_per_s`` (RK4 steps requested of ``transport`` per second
of operation) and ``peak_rss_mb``.  With ``--trace 1`` one traced set-up
and the traced operations give the per-layer metrics, each for one
set-up plus one operation.  Every run appends a record with machine
metadata to ``bench/results/runs.jsonl``; traced runs also write their
spans next to it.  Compare two sets of records with ``bench/compare.py``.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is loaded, so the pins come
# before any import that may load numpy.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

if not (SRC / "fiberquant" / "__init__.py").is_file():
    raise SystemExit(f"error: no fiberquant sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fiberquant  # noqa: E402
from fiberquant import cli, constants  # noqa: E402
from fiberquant.scenario import validate_scenario_dict  # noqa: E402

import spans  # noqa: E402

# The package attribute "transport" is the function; this is the module.
transport_mod = importlib.import_module("fiberquant.transport")

if not Path(fiberquant.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: fiberquant imported from {fiberquant.__file__}, not {SRC}")

WORKLOADS = ("verify-all", "transport-long", "spin20-crossing")

# Operation sizes; "tiny" keeps every code path for the smoke test.
SIZES = {
    "full": {"suite": "all", "long_steps": 10**6, "crossing_two_j": 20, "crossing_steps": 20000},
    "tiny": {"suite": "transport", "long_steps": 2000, "crossing_two_j": 4, "crossing_steps": 2000},
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 7  # a fresh-interpreter import costs about 0.2 s
HOLONOMY_TOL = 1e-6
UNITARITY_TOL = 1e-8
STEP_SITES = [(m, "transport") for m in
              ("fiberquant.transport", "fiberquant.verify", "fiberquant.cli")]
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")  # the last stdout line
IMPORT_PROBE = "import time; t = time.perf_counter(); import fiberquant; print(time.perf_counter() - t)"


@dataclass
class Outcome:
    ok: bool
    oracle_err: float = 0.0
    unitarity: float = 0.0
    margin: float = 0.0  # worst value/tolerance over the checks made


def monopole_scenario(two_j: int, strength: int, paths: dict | None = None) -> dict:
    return {"orbit": {"two_j": two_j},
            "model": {"kind": "monopole", "strength": strength},
            "paths": paths or {}}


def draw_inputs(workload: str, seed: int, size: dict) -> dict:
    """Inputs of one run; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "verify-all":
        return {"scenario": monopole_scenario(2, 1), "suite": size["suite"]}
    strength = int(rng.choice([-2, -1, 1, 2]))
    if workload == "transport-long":
        theta = float(rng.uniform(np.pi / 6.0, 2.0 * np.pi / 3.0))
        phi0 = float(rng.uniform(0.0, 2.0 * np.pi))
        loop = {"kind": "latitude", "theta": theta, "phi0": phi0}
        return {"scenario": monopole_scenario(2, strength, {"loop": loop}),
                "path": "loop", "steps": size["long_steps"]}
    return {"scenario": monopole_scenario(size["crossing_two_j"], strength),
            "path": "meridian", "steps": size["crossing_steps"]}


def latitude_holonomy(two_j: int, strength: int, theta: float, sign: int = -1) -> np.ndarray:
    """Closed form diag exp(sign * i k m 2 pi (1 - cos theta)), m = j .. -j."""
    m = np.arange(two_j, -two_j - 1, -2) / 2.0
    return np.diag(np.exp(sign * 1j * strength * m * 2.0 * np.pi * (1.0 - np.cos(theta))))


def check_holonomy(hol: np.ndarray, expected: np.ndarray) -> Outcome:
    err = float(np.max(np.abs(hol - expected)))
    unit = float(np.linalg.norm(hol.conj().T @ hol - np.eye(hol.shape[0]), 2))
    return Outcome(ok=err <= HOLONOMY_TOL and unit <= UNITARITY_TOL, oracle_err=err,
                   unitarity=unit, margin=max(err / HOLONOMY_TOL, unit / UNITARITY_TOL))


class VerifyAll:
    """``fiberquant verify <suite>`` through ``cli.run_command``."""

    def __init__(self, inputs: dict):
        self.suite = inputs["suite"]
        self.scenario = inputs["scenario"]
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.config_path = RESULTS / "verify-all-scenario.json"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.scenario, fh)

    def setup(self):
        # The suites build their own contexts, so set-up is validation only.
        return validate_scenario_dict(self.scenario, source="<benchmark>")

    def op(self, state) -> Outcome:
        code, out = cli.run_command(["verify", self.suite, "--config", str(self.config_path)])
        if code != cli.EXIT_OK:
            print(f"verify exited {code}: {out[:2000]}", file=sys.stderr)
            return Outcome(ok=False)
        payload = json.loads(out)["payload"]
        checks = {row["name"]: row for row in payload["checks"]}
        margin = max((row["value"] / row["tolerance"] if row["mode"] == "max"
                      else row["tolerance"] / max(row["value"], 1e-300))
                     for row in checks.values())
        return Outcome(ok=payload["all_pass"] is True,
                       oracle_err=checks.get("transport.monopole_holonomy", {}).get("value", 0.0),
                       unitarity=checks.get("transport.unitarity", {}).get("value", 0.0),
                       margin=margin)


class WilsonLoop:
    """Rep-route Wilson loop on a scenario path, checked against a closed form."""

    def __init__(self, inputs: dict, expected: np.ndarray):
        self.inputs = inputs
        self.expected = expected

    def setup(self):
        scenario = validate_scenario_dict(self.inputs["scenario"], source="<benchmark>")
        return scenario.build_context(), scenario.path(self.inputs["path"])

    def op(self, state) -> Outcome:
        ctx, path = state
        hol, _ = transport_mod.wilson_loop(ctx["model"], ctx["basis"], path, rep=ctx["rep"],
                                           steps=self.inputs["steps"])
        return check_holonomy(hol, self.expected)


def make_workload(name: str, inputs: dict, holonomy_sign: int = -1):
    """The workload object; ``holonomy_sign`` other than -1 corrupts the oracle."""
    if name == "verify-all":
        return VerifyAll(inputs)
    scenario = inputs["scenario"]
    two_j, strength = scenario["orbit"]["two_j"], scenario["model"]["strength"]
    if name == "transport-long":
        theta = scenario["paths"]["loop"]["theta"]
        return WilsonLoop(inputs, latitude_holonomy(two_j, strength, theta, holonomy_sign))
    # The meridian bounds a hemisphere: solid angle 2 pi, identity at integer m.
    if two_j % 2:
        raise ValueError(f"meridian oracle needs integer m, got two_j = {two_j}")
    return WilsonLoop(inputs, np.eye(two_j + 1))


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def run_ops(op, state, seconds: float, tracer=None) -> tuple[list, list]:
    """Closed loop: operations one after another until ``seconds`` have run."""
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.run = f"op-{len(times)}"
        t0 = time.perf_counter()
        try:
            outcome = op(state)
        except Exception:  # a failed operation is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(ok=False)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            return times, outcomes


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(workload, seconds: float) -> tuple[dict, list, dict]:
    """Untraced run: end-to-end metrics from set-up medians and the timed loop."""
    import_s = [import_seconds() for _ in range(IMPORT_REPEATS)]
    build_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        build_s.append(time.perf_counter() - t0)

    steps = []  # RK4 steps requested of transport(), per operation

    def count_steps(module_name, attr, original):
        def counted(*args, **kwargs):
            steps[-1] += kwargs.get("steps") or constants.RK4_STEPS_PER_UNIT
            return original(*args, **kwargs)
        return counted

    def op(st):
        steps.append(0)
        return workload.op(st)

    with spans.patched(STEP_SITES, count_steps):
        times, outcomes = run_ops(op, state, seconds)
    ok_times = [t for t, o in zip(times, outcomes) if o.ok] or times
    q1, run_s, q3 = quartiles(ok_times)
    metrics = {
        "setup_s": (statistics.median(import_s) + statistics.median(build_s), "s"),
        "run_s": (run_s, "s"),
        "steps_per_s": (statistics.median(s / t for s, t in zip(steps, times)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"import_s": import_s, "build_s": build_s, "op_s": times,
              "run_s_quartiles": [q1, run_s, q3], "steps_per_op": steps}
    return metrics, outcomes, detail


def trace(workload, seconds: float) -> tuple[dict, list, dict, spans.Tracer]:
    """Traced run: one set-up and the operations, inside the layer spans."""
    per_span, per_count = spans.wrapper_costs()
    tracer = spans.Tracer()
    with tracer.patched():
        state = workload.setup()
        times, outcomes = run_ops(workload.op, state, seconds, tracer)
    n_ops = len(times)
    setup, run = tracer.layer_times(setup=True), tracer.layer_times(setup=False)

    def cycle(name: str, field: str) -> float:
        """One set-up plus the mean over operations."""
        return (setup.get(name, {}).get(field, 0.0)
                + run.get(name, {}).get(field, 0.0) / n_ops)

    def count(name: str) -> float:
        return tracer.count(name, setup=True) + tracer.count(name, setup=False) / n_ops

    metrics = {}
    for layer in ("fiberq.prequant_matrix", "gauge.connection_quadrature",
                  "fiberq.polarization_residual", "transport.transport",
                  "gauge.connection_rep_batch", "fiberq.quantize_transition"):
        metrics[f"{layer}.calls"] = (cycle(layer, "calls"), "count")
        metrics[f"{layer}.self_s"] = (cycle(layer, "self_s"), "s")
    for layer in ("gauge.model_build", "fiberq.build_basis", "gauge.build_rep",
                  "gauge.gauge_residual", "transport.covariant_residual_total_space",
                  "cli.run_command"):
        metrics[f"{layer}.self_s"] = (cycle(layer, "self_s"), "s")
    for layer in ("scenario.build_context", "verify.suite_orbit", "verify.suite_fiber",
                  "verify.suite_gauge", "verify.suite_transport"):
        metrics[f"{layer}.s"] = (cycle(layer, "total_s"), "s")
    metrics["orbit.pointwise_calls"] = (count("orbit.pointwise_calls"), "count")
    steps = count("transport.rk4_steps")
    flops = count("transport.flops")
    transport_s = cycle("transport.transport", "total_s")
    metrics["transport.rk4_steps"] = (steps, "count")
    metrics["transport.chart_crossings"] = (count("transport.chart_crossings"), "count")
    metrics["transport.flops_per_step.computed"] = (flops / steps if steps else 0.0, "flop")
    metrics["transport.bytes_per_step.computed"] = (
        count("transport.bytes") / steps if steps else 0.0, "B")
    metrics["transport.gflops_achieved"] = (
        flops / transport_s / 1e9 if transport_s else 0.0, "GFLOP/s")
    metrics["verify.worst_margin"] = (max(o.margin for o in outcomes), "ratio")
    metrics["transport.oracle_err"] = (max(o.oracle_err for o in outcomes), "1")
    metrics["transport.unitarity_deviation"] = (max(o.unitarity for o in outcomes), "1")
    n_spans = sum(1 for rec in tracer.spans if rec[4] == "setup")
    n_spans += (len(tracer.spans) - n_spans) / n_ops
    metrics["trace.overhead_s"] = (
        n_spans * per_span + count("orbit.pointwise_calls") * per_count, "s")
    return metrics, outcomes, {"op_s": times}, tracer


def metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        sha = proc.stdout.strip() or "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "machine": platform.machine(),
        "fiberquant": fiberquant.__version__,
    }


def run_benchmark(workload_name: str, seed: int, seconds: float, traced: bool,
                  size: str = "full", holonomy_sign: int = -1) -> dict:
    """One benchmark run; returns its record (result fields plus details)."""
    inputs = draw_inputs(workload_name, seed, SIZES[size])
    workload = make_workload(workload_name, inputs, holonomy_sign)
    started = datetime.now(timezone.utc).isoformat()
    tracer = None
    if traced:
        metrics, outcomes, detail, tracer = trace(workload, seconds)
    else:
        metrics, outcomes, detail = measure(workload, seconds)
    failed = sum(1 for o in outcomes if not o.ok)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "size": size,
        "started_at": started,
        "inputs": inputs,
        "detail": detail,
        "meta": metadata(),
        "tracer": tracer,
    }



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = record.pop("tracer")
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        name = f"spans-{args.workload}-seed{args.seed}.json"
        with open(RESULTS / name, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {json.dumps(record['inputs'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        q1, med, q3 = record["detail"]["run_s_quartiles"]
        print(f"  run_s quartiles [{q1:.6g}, {q3:.6g}] s over {record['attempted']} operations")
    print(f"  fail_ratio {record['failed']}/{record['attempted']}")
    print(json.dumps({key: record[key] for key in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
