"""Shard benchmark: slots/sec of the sharded slot loop at U=10k.

Runs the constant-density scale scenario (see ``bench_scale.py``)
through :class:`~repro.sharding.engine.ShardedSlotSimulator` at shard
counts 1, 2, 4 and 8 and reports the steady slots/sec of each, plus the
boundary-exchange volume so a rate can be read against how much
cross-shard traffic the partition actually produced.

Before timing, two bit-identity gates run at U=200:

* ``shards_match`` — the monolithic GREEDY loop vs shards ∈ {1, 2, 4}:
  every per-slot decision (transmissions, service, admission, routing
  rates, curtailment) and the final queue/battery state must compare
  exactly — the sharded loop is the monolithic computation in slices,
  not an approximation of it;
* ``backends_match`` — one sharded sweep cell executed on the serial
  backend vs a two-worker process pool must agree byte for byte.

The ``--check-baseline`` gate compares against the committed
``benchmarks/bench_shard_baseline.json``.  Raw slots/sec shifts with
host hardware, so the gate is hardware-normalized: every baseline rate
is rescaled by (shards1-now / shards1-baseline) measured in the same
run, and the check fails only if a multi-shard rate falls below 50% of
that expectation — i.e. the *sharding overhead curve* regressed, not
the host.

Usage:
    PYTHONPATH=src python benchmarks/bench_shard.py [--smoke]
        [--output BENCH_shard.json] [--check-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_REPO = Path(__file__).resolve().parent.parent
try:  # pragma: no cover - path shim for direct invocation
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(_REPO / "benchmarks"))

import numpy as np

from bench_scale import scale_scenario
from repro.config.parameters import ScenarioParameters
from repro.experiments.executor import SweepSpec, run_sweep
from repro.sharding import ShardedSlotSimulator
from repro.sim.engine import SlotSimulator
from repro.types import SchedulerKind

BASELINE_PATH = _REPO / "benchmarks" / "bench_shard_baseline.json"

#: (num_users, num_slots, shard counts) per mode.
CONFIGS = {
    "full": (10_000, 4, (1, 2, 4, 8)),
    "smoke": (2_000, 3, (1, 2, 4)),
}

#: Regression gate: a hardware-normalized rate below this fraction of
#: the baseline expectation fails the check.
GATE_FRACTION = 0.5


def _decision_fingerprint(decision) -> Tuple:
    """Everything a slot decided, as an exactly comparable tuple."""
    return (
        tuple(decision.schedule.transmissions),
        tuple(decision.schedule.link_service_pkts.items()),
        tuple(decision.schedule.dropped),
        tuple(decision.admission.sources.items()),
        tuple(decision.admission.admitted.items()),
        tuple(decision.routing.rates.items()),
        tuple(decision.curtailed),
    )


def _run_sharded_fingerprints(
    params: ScenarioParameters, num_shards: int
) -> Tuple[List, Dict]:
    sim = ShardedSlotSimulator(params, num_shards=num_shards)
    decisions = [
        _decision_fingerprint(sim.step(slot))
        for slot in range(params.num_slots)
    ]
    arrays = sim.state.arrays
    final = {
        "q": arrays.q.copy(),
        "g": arrays.g.copy(),
        "battery": arrays.battery_level.copy(),
    }
    return decisions, final


def _run_monolithic_fingerprints(params: ScenarioParameters) -> Tuple[List, Dict]:
    sim = SlotSimulator.integral(params, scheduler_kind=SchedulerKind.GREEDY)
    decisions = [
        _decision_fingerprint(sim.step(slot))
        for slot in range(params.num_slots)
    ]
    arrays = sim.state.arrays
    final = {
        "q": arrays.q.copy(),
        "g": arrays.g.copy(),
        "battery": arrays.battery_level.copy(),
    }
    return decisions, final


def check_shard_equivalence(num_users: int, num_slots: int) -> bool:
    """Monolithic vs sharded bit-identity of a full run."""
    params = scale_scenario(num_users, num_slots)
    mono_dec, mono_final = _run_monolithic_fingerprints(params)
    for num_shards in (1, 2, 4):
        shard_dec, shard_final = _run_sharded_fingerprints(params, num_shards)
        if shard_dec != mono_dec:
            return False
        if not all(
            np.array_equal(mono_final[key], shard_final[key])
            for key in mono_final
        ):
            return False
    return True


def check_backend_equivalence(num_users: int, num_slots: int) -> bool:
    """Serial vs process-pool byte-identity of one sharded sweep cell."""
    params = scale_scenario(num_users, num_slots)
    spec = SweepSpec.integral(
        params, v_values=(params.control_v,), num_shards=2
    )
    serial = run_sweep(spec, backend="serial")
    pooled = run_sweep(spec, max_workers=2, backend="process-pool")
    for key in serial.results:
        if serial.results[key].summary() != pooled.results[key].summary():
            return False
    return True


def bench_shards(
    num_users: int, num_slots: int, num_shards: int
) -> Dict:
    params = scale_scenario(num_users, num_slots)

    t0 = time.perf_counter()
    sim = ShardedSlotSimulator(params, num_shards=num_shards)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sim.step(0)
    first_slot_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for slot in range(1, num_slots):
        sim.step(slot)
    steady_s = time.perf_counter() - t0

    exchange = sim.exchange
    return {
        "num_users": num_users,
        "num_shards": num_shards,
        "num_slots": num_slots,
        "boundary_links": int(sim.plan.boundary_link_pos.size),
        "cross_arrivals_pkts": round(exchange.cross_arrivals_pkts, 1),
        "build_s": round(build_s, 3),
        "first_slot_s": round(first_slot_s, 3),
        "slots_per_sec": round((num_slots - 1) / steady_s, 3),
    }


def check_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Hardware-normalized regression check (module docstring)."""
    failures: List[str] = []
    anchor = report["shards"].get("S1")
    base_anchor = baseline.get("shards", {}).get("S1")
    if anchor is None or base_anchor is None:
        return ["baseline check needs the S1 (single-shard) row in both reports"]
    host_scale = anchor["slots_per_sec"] / base_anchor["slots_per_sec"]
    for name, current in report["shards"].items():
        base = baseline["shards"].get(name)
        if base is None or name == "S1":
            continue
        expected = base["slots_per_sec"] * host_scale
        floor = GATE_FRACTION * expected
        if current["slots_per_sec"] < floor:
            failures.append(
                f"{name}: {current['slots_per_sec']:.2f} slots/s is below"
                f" the regression floor {floor:.2f} (baseline"
                f" {base['slots_per_sec']:.2f} scaled by {host_scale:.2f}"
                f" for this host, gate {GATE_FRACTION:.0%})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI (U=2k, shards <= 4)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_shard.json"),
        help="where to write the report (default: ./BENCH_shard.json)",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if a shard count regresses >50%% against "
        "benchmarks/bench_shard_baseline.json (hardware-normalized)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="baseline file for --check-baseline",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    num_users, num_slots, shard_counts = CONFIGS[mode]

    print("checking monolithic/sharded bit-identity at U=200 ...", flush=True)
    shards_match = check_shard_equivalence(200, num_slots=4)
    print(f"  shards_match={shards_match}", flush=True)

    print("checking serial/process-pool backend bit-identity ...", flush=True)
    backends_match = check_backend_equivalence(200, num_slots=4)
    print(f"  backends_match={backends_match}", flush=True)

    shards: Dict[str, Dict] = {}
    for num_shards in shard_counts:
        name = f"S{num_shards}"
        print(
            f"benchmarking {name} (users={num_users}, slots={num_slots}) ...",
            flush=True,
        )
        shards[name] = bench_shards(num_users, num_slots, num_shards)
        row = shards[name]
        print(
            f"  boundary_links={row['boundary_links']}"
            f" build={row['build_s']}s first_slot={row['first_slot_s']}s"
            f" steady={row['slots_per_sec']} slots/s",
            flush=True,
        )

    report = {
        "schema": "bench_shard/v1",
        "mode": mode,
        "scheduler": "GREEDY",
        "num_users": num_users,
        "shards_match": bool(shards_match),
        "backends_match": bool(backends_match),
        "shards": shards,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    rc = 0
    if not shards_match:
        print("FAIL: sharded and monolithic paths diverged", file=sys.stderr)
        rc = 1
    if not backends_match:
        print("FAIL: serial and process-pool backends diverged", file=sys.stderr)
        rc = 1
    if args.check_baseline:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            rc = 1
        else:
            baseline = json.loads(args.baseline.read_text())
            failures = check_baseline(report, baseline)
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            if failures:
                rc = 1
            else:
                print("baseline check passed")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
