"""Edge-case tests for the solver layer: the speculative-feasibility
sequential fix, power-control fallbacks, and TOU-aware S4 calls."""

import numpy as np
import pytest

from repro.control.energy_manager import EnergyManager, NodeEnergyInputs
from repro.energy.cost import QuadraticCost
from repro.phy.propagation import gain_matrix
from repro.solvers import LinearProgram, Sense, sequential_fix
from tests.fm_oracle import checked_min_powers


class TestCheckedSequentialFix:
    """SF with coupling constraints beyond the conflict sets."""

    @staticmethod
    def _coupled_instance(check):
        """Variables a and b share a <= 1.5 coupling cap (not a node
        conflict, so the conflict sets are empty): rounding b up after
        fixing a = 1 is infeasible.  A third capped variable c keeps
        the loop alive long enough for the infeasibility to surface in
        unchecked mode."""
        weights = {"a": 3.0, "b": 2.0, "c": 0.5}

        def build_lp(fixed):
            lp = LinearProgram()
            for key, weight in weights.items():
                lp.add_variable(key, objective=-weight, lower=0.0, upper=1.0)
            for key, value in fixed.items():
                lp.fix_variable(key, value)
            lp.add_constraint({"a": 1.0, "b": 1.0}, Sense.LE, 1.5)
            lp.add_constraint({"c": 1.0}, Sense.LE, 0.4)
            return lp

        return sequential_fix(
            ["a", "b", "c"], build_lp, lambda key: [], check_feasibility=check
        )

    def test_checked_mode_falls_back_to_zero(self):
        result = self._coupled_instance(check=True)
        assert result["a"] == 1
        assert result["b"] == 0  # rounding b would break the coupling

    def test_unchecked_mode_raises(self):
        from repro.exceptions import InfeasibleError

        with pytest.raises(InfeasibleError):
            self._coupled_instance(check=False)


class TestPowerControlFallbacks:
    def test_joint_infeasibility_drops_lowest_priority(self):
        # Four co-located links: every subset of >= 2 is infeasible at
        # Gamma = 5, so the solver must fall back to priority order.
        positions = np.array(
            [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]
        )
        d = np.sqrt(((positions[:, None] - positions[None, :]) ** 2).sum(axis=2))
        gains = gain_matrix(d, 62.5, 4.0)
        links = [(0, 1), (2, 3)]
        powers, dropped = checked_min_powers(
            links, gains, 1e-10, 5.0,
            {i: 1.0 for i in range(4)},
            priority={(0, 1): 1.0, (2, 3): 10.0},
        )
        assert dropped == [(0, 1)]
        assert (2, 3) in powers

    def test_joint_infeasibility_equal_priority_drops_first(self):
        # Every pair is infeasible at Gamma = 5; with equal priorities
        # the fallback drops in input order until one link is left.
        positions = np.array(
            [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0], [2.5, 2.5], [2.5, 0.0]]
        )
        d = np.sqrt(((positions[:, None] - positions[None, :]) ** 2).sum(axis=2))
        gains = gain_matrix(d, 62.5, 4.0)
        links = [(0, 1), (2, 3), (4, 5)]
        powers, dropped = checked_min_powers(
            links, gains, 1e-10, 5.0, {i: 1.0 for i in range(6)}
        )
        assert len(dropped) == 2
        assert list(powers) == [link for link in links if link not in dropped]


class TestEnergyManagerCostOverride:
    def test_explicit_cost_changes_price(self, tiny_model):
        manager = EnergyManager(tiny_model)
        inputs = [
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=500.0,
                renewable_j=0.0,
                grid_connected=True,
                grid_cap_j=2000.0,
                charge_cap_j=500.0,
                discharge_cap_j=0.0,
                z=-100.0,
            )
        ]
        cheap = manager.manage(inputs, cost=QuadraticCost(1e-9, 1e-9))
        dear = manager.manage(inputs, cost=QuadraticCost(1e-3, 1e-3))
        # The dear tariff prices the same draw far higher.
        assert dear.cost > cheap.cost
        # And discourages charging beyond serving demand.
        assert (
            dear.allocations[0].grid_charge_j
            <= cheap.allocations[0].grid_charge_j + 1e-6
        )

    def test_default_cost_is_models(self, tiny_model):
        manager = EnergyManager(tiny_model)
        inputs = [
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=500.0,
                renewable_j=0.0,
                grid_connected=True,
                grid_cap_j=2000.0,
                charge_cap_j=0.0,
                discharge_cap_j=0.0,
                z=0.0,
            )
        ]
        decision = manager.manage(inputs)
        assert decision.cost == pytest.approx(tiny_model.cost.value(500.0))


class TestSessionSatisfaction:
    def test_full_satisfaction_at_paper_load(self):
        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        simulator = SlotSimulator.integral(tiny_scenario(num_slots=15))
        result = simulator.run()
        demands = {
            s.session_id: float(s.demand_packets)
            for s in simulator.model.sessions
        }
        satisfaction = result.session_satisfaction(demands)
        assert set(satisfaction) == set(demands)
        for ratio in satisfaction.values():
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_zero_demand_counts_as_satisfied(self):
        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        result = SlotSimulator.integral(tiny_scenario(num_slots=3)).run()
        assert result.session_satisfaction({99: 0.0})[99] == 1.0


class TestRelaxedMultiRadio:
    def test_relaxed_lp_uses_radio_budgets(self):
        import dataclasses

        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        params = tiny_scenario(num_slots=4)
        multi = dataclasses.replace(
            params,
            bs_node=dataclasses.replace(params.bs_node, num_radios=3),
        )
        single_run = SlotSimulator.relaxed(params).run()
        multi_run = SlotSimulator.relaxed(multi).run()
        # More radios enlarge the feasible set: the relaxed optimum
        # cannot get worse.
        assert multi_run.average_penalty <= single_run.average_penalty * 1.05 + 1.0
