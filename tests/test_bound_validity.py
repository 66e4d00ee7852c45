"""Tests guarding the lower bound's validity arguments.

Theorem 5's bound survives our LP linearisations only because every
substitution under-approximates; these tests check those properties
directly rather than trusting the derivation in comments.
"""

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.core import RelaxedLpController, compute_constants
from repro.model import build_network_model
from repro.sim import SlotSimulator
from repro.state import NetworkState


@pytest.fixture(scope="module")
def relaxed_setup():
    params = tiny_scenario(num_slots=5)
    model = build_network_model(params, np.random.default_rng(params.seed))
    constants = compute_constants(model)
    state = NetworkState(model, constants, np.random.default_rng(42))
    controller = RelaxedLpController(model, constants)
    return model, constants, state, controller


class TestCostTangentsUnderapproximate:
    def test_tangents_below_f_everywhere(self, relaxed_setup):
        """Every epigraph tangent line lies below the convex cost."""
        model, _, state, controller = relaxed_setup
        observation = state.observe(0)
        lp, _ = controller._build_lp(observation, state)
        cost = model.cost_at(observation.slot)
        p_cap = model.total_grid_cap_j()
        tangents = [
            con for con in lp._constraints if con.name.startswith("tangent")
        ]
        assert tangents
        for con in tangents:
            slope = -con.coeffs[("P",)]
            intercept = con.rhs
            for p in np.linspace(0, p_cap, 17):
                assert slope * p + intercept <= cost.value(p) + 1e-9

    def test_lp_cost_epigraph_below_true_cost(self, relaxed_setup):
        """The solved phi value never exceeds the true f(P)."""
        model, _, state, controller = relaxed_setup
        observation = state.observe(1)
        lp, _ = controller._build_lp(observation, state)
        solution = lp.solve()
        phi = solution.values[("phi",)]
        p = solution.values[("P",)]
        assert phi <= model.cost_at(observation.slot).value(p) + 1e-6

    def test_quadratic_drift_tangents_underapproximate(self, relaxed_setup):
        """The w_i epigraphs lie below net^2/2 across the net range."""
        model, _, state, controller = relaxed_setup
        observation = state.observe(2)
        lp, _ = controller._build_lp(observation, state)
        qdrift = [
            con for con in lp._constraints if con.name.startswith("qdrift[0,")
        ]
        assert qdrift  # node 0 has a battery
        battery = state.batteries[0]
        for con in qdrift:
            # w >= point*net - point^2/2: the tangent of net^2/2.
            point_times = con.coeffs.get(("cr", 0), 0.0)
            point = -point_times / battery.charge_efficiency
            intercept = con.rhs  # equals -point^2/2
            for net in np.linspace(
                -battery.max_discharge_j(), battery.max_charge_j(), 9
            ):
                assert point * net + intercept <= 0.5 * net * net + 1e-6


class TestMinPowerUnderapproximatesDemand:
    def test_zero_interference_power_is_minimal(self, relaxed_setup):
        """The LP's energy term uses a power no real schedule can beat."""
        model, _, state, controller = relaxed_setup
        observation = state.observe(3)
        params = model.params
        gains = model.topology.gains_lookup()
        for tx, rx in model.topology.candidate_links[:10]:
            for band in model.spectrum.common_bands(tx, rx):
                power = controller._min_power_w(tx, gains[tx, rx], band, observation)
                if power is None:
                    continue
                noise = model.noise_power_w(observation.bands.bandwidth(band))
                sinr = gains[tx, rx] * power / noise
                # Exactly at threshold with zero interference: any
                # added interference forces a larger power.
                assert sinr == pytest.approx(params.sinr_threshold, rel=1e-9)


class TestBoundHoldsOnSharedPath:
    def test_formal_bound_below_achieved(self):
        """End-to-end: psi*_P3bar - B/V <= achieved P2 objective."""
        from repro.core import lower_bound_cost

        params = tiny_scenario(num_slots=10)
        integral = SlotSimulator.integral(params).run()
        relaxed = SlotSimulator.relaxed(params).run()
        bound = lower_bound_cost(
            relaxed.average_penalty,
            integral.constants.drift_b,
            params.control_v,
        )
        assert bound <= integral.average_penalty
