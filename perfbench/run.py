"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sf-u200 --seed 2014 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the same untraced pass, then a second pass with
spans wrapped around each layer, and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.

``--part JSON`` is the child side of an untraced pass: it runs one
scenario instance or one batch of set-up builds and prints its outcome.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads: fig2a-paper's
# pool already puts one worker on every CPU, and a threaded solve is
# slower at these sizes anyway (README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGEST_PATH = HERE / "digest.json"
#: Run records (work counts per workload and seed) and span dumps.
STATE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 2014

#: End-to-end metrics, printed by every untraced run.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("slot_s.p50", "s"),
    ("slots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: The metrics of each power-control (FM) path.
_FM = (
    ("calls", "count"),
    ("busy_s", "s"),
    ("links_in", "count"),
    ("links_dropped", "count"),
    ("keep_ratio", "ratio"),
)

#: Per-layer metrics, printed by every traced run.  Times are seconds
#: per timed slot (per call for the two build layers); counts are totals
#: over the workload's count window.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("repro.model.build_network_model.busy_s", "s"),
    ("core.lyapunov.compute_constants.busy_s", "s"),
    ("sim.engine.step.busy_s", "s"),
    ("sim.engine.step.self_s", "s"),
    ("state.observe.busy_s", "s"),
    ("network.mobility.positions_at.busy_s", "s"),
    ("phy.propagation.gain_matrix_for_positions.busy_s", "s"),
    ("control.controller.decide.busy_s", "s"),
    ("control.controller.decide.self_s", "s"),
    ("control.controller.curtailed", "count"),
    ("control.scheduler.schedule.busy_s", "s"),
    ("control.scheduler.schedule.self_s", "s"),
    ("control.scheduler.transmissions", "count"),
    ("control.scheduler.dropped", "count"),
    *((f"phy.power_control.vec.{k}", u) for k, u in _FM),
    *((f"phy.power_control.scalar.{k}", u) for k, u in _FM),
    ("solvers.sequential_fix.calls", "count"),
    ("solvers.sequential_fix.busy_s", "s"),
    ("solvers.linprog.solve.calls", "count"),
    ("solvers.linprog.solve.busy_s", "s"),
    ("solvers.linprog.solve.variables", "count"),
    ("solvers.linprog.solve.constraints", "count"),
    ("solvers.linprog.highs.busy_s", "s"),
    ("core.bounds.decide.busy_s", "s"),
    ("core.bounds.decide.self_s", "s"),
    ("control.admission.allocate.busy_s", "s"),
    ("control.router.route.busy_s", "s"),
    ("control.router.routes", "count"),
    ("control.energy_manager.manage.busy_s", "s"),
    ("state.apply.busy_s", "s"),
    ("sim.metrics.record.busy_s", "s"),
    ("contracts.busy_s", "s"),
    ("contracts.checks", "count"),
    ("experiments.executor.cells", "count"),
    ("experiments.executor.cell_busy_s", "s"),
    ("experiments.executor.pool_idle_s", "s"),
    ("experiments.executor.retries", "count"),
    ("share.s1_pct", "%"),
    ("share.fm_pct", "%"),
    ("share.mobility_pct", "%"),
    ("share.contracts_pct", "%"),
    ("share.relaxed_lp_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.missing_layers", "count"),
)

#: Layers whose busy time is reported per call (set-up), not per slot.
BUILD_LAYERS = ("repro.model.build_network_model", "core.lyapunov.compute_constants")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its waited-for workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(outcome) -> Dict[str, Dict[str, object]]:
    values = {
        "setup_s": _median(outcome.setup_s),
        "slot_s.p50": _median(outcome.slot_s),
        "slots_per_s": outcome.slots_per_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(tracer, traced, untraced) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of the traced pass (see PER_LAYER)."""
    window = tracer.layer_times(traced.windows)
    whole = tracer.layer_times([(-math.inf, math.inf)])
    slots = max(traced.timed_slots, 1)
    values: Dict[str, float] = {}

    def busy(layer: str) -> float:
        return window[layer]["busy"] if layer in window else 0.0

    for name, unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "busy_s" and layer in BUILD_LAYERS:
            entry = whole.get(layer)
            values[name] = entry["busy"] / entry["spans"] if entry else 0.0
        elif kind == "busy_s":
            values[name] = busy(layer) / slots
        elif kind == "self_s":
            values[name] = (window[layer]["self"] if layer in window else 0.0) / slots
        elif kind == "calls":
            values[name] = tracer.calls.get(layer, 0)
    for kind in ("vec", "scalar"):
        layer = f"phy.power_control.{kind}"
        links_in = tracer.counters.get(f"{layer}.links_in", 0)
        dropped = tracer.counters.get(f"{layer}.links_dropped", 0)
        values[f"{layer}.links_in"] = links_in
        values[f"{layer}.links_dropped"] = dropped
        values[f"{layer}.keep_ratio"] = (links_in - dropped) / links_in if links_in else 0.0
    solves = tracer.calls.get("solvers.linprog.solve", 0)
    for kind in ("variables", "constraints"):
        total = tracer.counters.get(f"solvers.linprog.solve.{kind}", 0)
        values[f"solvers.linprog.solve.{kind}"] = total / solves if solves else 0.0
    for name in (
        "contracts.checks",
        "control.scheduler.transmissions",
        "control.scheduler.dropped",
        "control.controller.curtailed",
        "control.router.routes",
    ):
        values[name] = tracer.counters.get(name, 0)
    sweep = untraced.sweep
    values["experiments.executor.cells"] = sweep.get("cells", 0)
    values["experiments.executor.cell_busy_s"] = sweep.get("cell_busy_s", 0.0)
    values["experiments.executor.pool_idle_s"] = sweep.get("pool_idle_s", 0.0)
    values["experiments.executor.retries"] = sweep.get("retries", 0)

    step = busy("sim.engine.step")
    contracts = busy("contracts")

    def pct(part: float, whole_s: float) -> float:
        return 100.0 * part / whole_s if whole_s > 0 else 0.0

    values["share.s1_pct"] = pct(busy("control.scheduler.schedule"), step)
    values["share.fm_pct"] = pct(
        busy("phy.power_control.vec") + busy("phy.power_control.scalar"), step - contracts
    )
    values["share.mobility_pct"] = pct(
        busy("network.mobility.positions_at")
        + busy("phy.propagation.gain_matrix_for_positions"),
        step,
    )
    values["share.contracts_pct"] = pct(contracts, step)
    values["share.relaxed_lp_pct"] = pct(
        busy("core.bounds.decide"),
        tracer.busy_under("sim.engine.step", "core.bounds.decide", traced.windows),
    )
    values["trace.overhead_pct"] = pct(
        traced.count_window_s - untraced.count_window_s, untraced.count_window_s
    )
    values["trace.spans"] = len(tracer.spans)
    values["trace.missing_layers"] = len(set(tracer.missing))
    return {name: _metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER}


# -- checks ------------------------------------------------------------------


def _same(expected, actual) -> bool:
    if isinstance(expected, int) and isinstance(actual, int):
        return expected == actual
    return math.isclose(float(expected), float(actual), rel_tol=1e-6, abs_tol=1e-12)


def check_digest(workload: str, digest: Dict[str, float]) -> Tuple[bool, List[str]]:
    """Compare against the committed default-seed digest."""
    try:
        committed = json.loads(DIGEST_PATH.read_text())["workloads"].get(workload)
    except (OSError, ValueError, KeyError):
        committed = None
    if committed is None:
        return False, [f"no committed digest for {workload}"]
    problems = [
        f"digest {key}: expected {value!r}, got {digest.get(key)!r}"
        for key, value in committed.items()
        if key not in digest or not _same(value, digest[key])
    ]
    return not problems, problems


def code_fingerprint() -> str:
    """Hash of the code under test and of the benchmark's own code.

    Every ``.py`` file under ``src/`` and ``perfbench/``: a change to
    either may change the work a run does.
    """
    digest = hashlib.sha256()
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(
    workload: str, seed: int, passes: List[Dict[str, int]]
) -> Tuple[bool, List[str]]:
    """Flag work counts that differ from other runs of this set.

    A set is every run of one workload and seed on one version of the
    code (:func:`code_fingerprint`); the record lives in
    ``.perfbench/counts.json``.  Keys present in both records must agree
    exactly (a traced pass adds layer counters).  Another version of the
    code starts a set of its own, so a change that legitimately does
    less work is not flagged; the digest guards the trajectory.
    """
    path = STATE_DIR / "counts.json"
    try:
        log = json.loads(path.read_text())
    except (OSError, ValueError):
        log = {}
    key = f"{workload}:{seed}:{code_fingerprint()}"
    merged: Dict[str, int] = dict(log.get(key, {}))
    problems = []
    for counts in passes:
        for name, value in counts.items():
            if name in merged and merged[name] != value:
                problems.append(f"work count {name}: {value} here, {merged[name]} before")
            merged.setdefault(name, value)
    log[key] = merged
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(log, indent=1, sort_keys=True))
    tmp.replace(path)
    return not problems, problems


def traced_counts(tracer) -> Dict[str, int]:
    """Layer work counts the tracer saw in the count window."""
    counts = {
        "fm_vec_calls": tracer.calls.get("phy.power_control.vec", 0),
        "fm_scalar_calls": tracer.calls.get("phy.power_control.scalar", 0),
        "lp_solves": tracer.calls.get("solvers.linprog.solve", 0),
    }
    for kind in ("vec", "scalar"):
        for what in ("links_in", "links_dropped"):
            counts[f"fm_{kind}_{what}"] = int(
                tracer.counters.get(f"phy.power_control.{kind}.{what}", 0)
            )
    return counts


# -- entry point ---------------------------------------------------------------


def _import_library():
    """Import the library from this checkout's ``src`` (never elsewhere)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import numpy
    import scipy
    import tracer
    import workloads

    env = {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_available": workloads.available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return tracer, workloads, env


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--part", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digest",
        action="store_true",
        help="write this run's default-seed digest into perfbench/digest.json",
    )
    args = parser.parse_args(argv)
    if args.part is None and args.workload is None:
        parser.error("--workload is required")
    if args.update_digest and args.seed != DEFAULT_SEED:
        parser.error(f"--update-digest needs --seed {DEFAULT_SEED}")
    try:
        tracer_mod, workloads, env = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.part is not None:
        part = workloads.run_part(json.loads(args.part))
        print("part " + json.dumps(dataclasses.asdict(part)))
        return 0
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(env, sort_keys=True))

    untraced = workload.run(args.seed, args.seconds)
    # Taken before any traced pass, which would raise the peak RSS.
    e2e = end_to_end(untraced)
    outcomes = [untraced]
    passes = [dict(untraced.counts)]
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        with tracer:
            traced = workload.run(args.seed, args.seconds, tracer=tracer)
        for warning in tracer.warnings:
            print(f"warning: {warning}")
        outcomes.append(traced)
        passes.append({**traced.counts, **traced_counts(tracer)})
        tracer.write(STATE_DIR / f"trace-{args.workload}-{args.seed}.json")

    checks: Dict[str, object] = {}
    problems: List[str] = []
    for outcome in outcomes:
        for name, ok in outcome.sanity.items():
            checks[name] = checks.get(name, True) and ok
            if not ok:
                problems.append(f"sanity check {name} failed")
    if args.seed == DEFAULT_SEED:
        for outcome in outcomes:
            ok, found = check_digest(args.workload, outcome.digest)
            checks["digest"] = checks.get("digest", True) and ok
            problems.extend(found)
    else:
        checks["digest"] = "skipped (not the default seed)"
    ok, found = check_counts_repeat(args.workload, args.seed, passes)
    checks["counts_repeat"] = ok
    problems.extend(found)
    if args.update_digest:
        payload = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else {}
        payload.setdefault("seed", DEFAULT_SEED)
        payload.setdefault("workloads", {})[args.workload] = untraced.digest
        DIGEST_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for message in outcome.failures:
            print(f"failed op: {message}")
    for message in problems:
        print(f"check: {message}")
    print(
        "report "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "checks": checks,
                "counts": passes,
                "slot_samples": len(untraced.slot_s),
                "setup_samples": len(untraced.setup_s),
                "processes": untraced.processes,
                "sweep": untraced.sweep,
                "untraced": {k: v["value"] for k, v in e2e.items()},
                "measured": {
                    "setup_s": _median(untraced.raw_setup_s),
                    "slot_s.p50": _median(untraced.raw_slot_s),
                },
            },
            sort_keys=True,
        )
    )
    metrics = per_layer(tracer, outcomes[1], untraced) if args.trace else e2e
    correct = failed == 0 and not problems and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
