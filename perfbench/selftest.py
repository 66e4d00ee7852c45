"""Self-test of the benchmark harness: ``python3 perfbench/selftest.py``.

Covers the tracer's two promises — a wrap target that no longer
exists becomes a zero-call layer with a warning instead of a crash,
and an untraced run installs no wrappers — plus the isolated instance
processes, the per-code-version work-count record, and the agreement
between BENCHMARK.json and the metrics the harness prints.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (fixes the BLAS threads before numpy loads)

tracer_mod, workloads, _ = run._import_library()

from repro.types import SchedulerKind  # noqa: E402

TINY = workloads.SlotWorkload(
    name="tiny",
    users=20,
    scheduler=SchedulerKind.GREEDY,
    warmup_slots=2,
    timed_slots=3,
    setup_builds=1,
    instance_seconds=1.0,
)


def _targets_state():
    """The raw attribute every wrap target currently resolves to."""
    state = {}
    for target in tracer_mod.TARGETS:
        owner, name = tracer_mod._resolve(target.module, target.attr)
        state[(target.module, target.attr)] = vars(owner).get(name)
    return state


class TracerSelfTest(unittest.TestCase):
    def test_missing_target_is_a_zero_call_layer(self):
        # Rename one wrap target to a name that does not exist, as the
        # deletion of the scalar power-control path would.
        targets = tuple(
            t._replace(attr="deleted_function") if t.layer == "phy.power_control.scalar" else t
            for t in tracer_mod.TARGETS
        ) + (tracer_mod.Target("ghost", "repro.no_such_module", "f"),)
        untraced = TINY.run(seed=1, seconds=0.0)
        tracer = tracer_mod.Tracer(targets)
        with tracer:
            traced = TINY.run(seed=1, seconds=0.0, tracer=tracer)
        self.assertEqual(sorted(tracer.missing), ["ghost", "phy.power_control.scalar"])
        self.assertEqual(len(tracer.warnings), 2)
        metrics = run.per_layer(tracer, traced, untraced)
        self.assertEqual(metrics["phy.power_control.scalar.calls"]["value"], 0.0)
        self.assertEqual(metrics["trace.missing_layers"]["value"], 2.0)
        self.assertGreater(metrics["sim.engine.step.busy_s"]["value"], 0.0)
        self.assertEqual(set(metrics), {name for name, _ in run.PER_LAYER})

    def test_untraced_run_installs_no_wrappers(self):
        before = _targets_state()
        install = tracer_mod.Tracer.install

        def refuse(self):
            raise AssertionError("an untraced run installed wrappers")

        tracer_mod.Tracer.install = refuse
        try:
            outcome = TINY.run(seed=1, seconds=0.0)
        finally:
            tracer_mod.Tracer.install = install
        self.assertEqual(outcome.failed, 0)
        self.assertEqual(_targets_state(), before)

    def test_uninstall_restores_every_target(self):
        before = _targets_state()
        with tracer_mod.Tracer():
            during = _targets_state()
        self.assertTrue(all(during[key] is not before[key] for key in before))
        self.assertEqual(_targets_state(), before)


class HarnessSelfTest(unittest.TestCase):
    def test_isolated_instance_matches_in_process(self):
        isolated = TINY.run(seed=1, seconds=0.0)  # one instance, in a child process
        here = TINY.run_instance(1, 0)
        self.assertEqual(isolated.processes, 1)
        self.assertEqual(isolated.failed, 0)
        self.assertEqual(isolated.counts, here.counts)
        self.assertEqual(isolated.digest, here.digest)
        self.assertEqual(len(isolated.slot_s), TINY.timed_slots)
        self.assertEqual(len(isolated.setup_s), TINY.setup_builds)
        self.assertTrue(all(t > 0 for t in isolated.slot_s + isolated.setup_s))

    def test_counts_record_is_kept_per_code_version(self):
        run.STATE_DIR.mkdir(exist_ok=True)
        saved = run.STATE_DIR, run.code_fingerprint
        with tempfile.TemporaryDirectory(dir=run.STATE_DIR) as tmp:
            run.STATE_DIR = Path(tmp)
            try:
                run.code_fingerprint = lambda: "parent"
                self.assertTrue(run.check_counts_repeat("w", 1, [{"lp_solves": 10}])[0])
                self.assertFalse(run.check_counts_repeat("w", 1, [{"lp_solves": 9}])[0])
                # A change that solves fewer LPs starts a set of its own.
                run.code_fingerprint = lambda: "change"
                self.assertTrue(run.check_counts_repeat("w", 1, [{"lp_solves": 9}])[0])
                run.code_fingerprint = lambda: "parent"
                self.assertTrue(run.check_counts_repeat("w", 1, [{"lp_solves": 10}])[0])
            finally:
                run.STATE_DIR, run.code_fingerprint = saved


class BenchmarkFileSelfTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
