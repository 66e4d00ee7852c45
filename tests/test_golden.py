"""Golden regression tests.

These pin exact outputs of small deterministic runs.  They exist to
catch *unintended* behaviour changes: any edit to the default
parameters, the RNG stream layout, or the control algorithms will
trip them.  When a change is intentional, regenerate the constants
with::

    python - <<'PY'
    from repro.config import tiny_scenario
    from repro.sim import SlotSimulator
    r = SlotSimulator.integral(tiny_scenario(num_slots=12)).run()
    print(r.average_cost, r.average_penalty)
    PY

and update them here together with a changelog note.
"""

import pytest

from repro.config import tiny_scenario
from repro.sim import SlotSimulator

#: Pinned outputs of the integral controller on tiny_scenario(num_slots=12).
GOLDEN_TINY_COST = 360.1370896962028
GOLDEN_TINY_PENALTY = 358.88375636286946
GOLDEN_TINY_DELIVERED = 2256.0
GOLDEN_TINY_BS_BACKLOG_FINAL = 470.0
GOLDEN_TINY_BS_ENERGY_FINAL = 83511.39331245176

#: Pinned output of the relaxed LP controller on tiny_scenario(num_slots=6).
GOLDEN_RELAXED_PENALTY = 706.9341077946327


@pytest.fixture(scope="module")
def tiny_run():
    return SlotSimulator.integral(tiny_scenario(num_slots=12)).run()


class TestGoldenIntegral:
    def test_average_cost(self, tiny_run):
        assert tiny_run.average_cost == pytest.approx(GOLDEN_TINY_COST, rel=1e-9)

    def test_average_penalty(self, tiny_run):
        assert tiny_run.average_penalty == pytest.approx(
            GOLDEN_TINY_PENALTY, rel=1e-9
        )

    def test_delivered_packets(self, tiny_run):
        assert tiny_run.metrics.totals()["delivered_pkts"] == GOLDEN_TINY_DELIVERED

    def test_final_bs_backlog(self, tiny_run):
        assert float(
            tiny_run.backlog_series("bs_data_packets")[-1]
        ) == pytest.approx(GOLDEN_TINY_BS_BACKLOG_FINAL, rel=1e-9)

    def test_final_bs_energy(self, tiny_run):
        assert float(
            tiny_run.backlog_series("bs_energy_j")[-1]
        ) == pytest.approx(GOLDEN_TINY_BS_ENERGY_FINAL, rel=1e-9)


class TestGoldenRelaxed:
    def test_relaxed_penalty(self):
        result = SlotSimulator.relaxed(tiny_scenario(num_slots=6)).run()
        # HiGHS pivoting is deterministic but can shift across scipy
        # versions; allow a loose relative tolerance.
        assert result.average_penalty == pytest.approx(
            GOLDEN_RELAXED_PENALTY, rel=1e-6
        )
