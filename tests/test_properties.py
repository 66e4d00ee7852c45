"""Property-based tests (hypothesis) on the core data structures and
invariants: queueing laws, battery bounds, cost convexity, solver
correctness, and the S4 allocation feasibility."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.control.energy_manager import NodeEnergyInputs, _node_response
from repro.energy.battery import Battery, BatteryAction
from repro.energy.cost import PiecewiseLinearCost, QuadraticCost
from repro.phy.capacity import link_capacity_bps
from repro.phy.propagation import propagation_gain
from repro.queueing.data_queue import DataQueue
from repro.queueing.virtual_queue import LinkVirtualQueue
from repro.solvers.bisection import bisect_root, minimize_convex_1d
from tests.fm_oracle import checked_min_powers

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQueueLawProperties:
    @given(
        backlog=finite,
        service=finite,
        arrivals=finite,
    )
    def test_data_queue_never_negative(self, backlog, service, arrivals):
        queue = DataQueue(node=0, session=0, backlog=backlog)
        new = queue.step(service, arrivals)
        assert new >= 0.0

    @given(backlog=finite, service=finite, arrivals=finite)
    def test_data_queue_lindley_bound(self, backlog, service, arrivals):
        """Eq. (15) never exceeds backlog - service + arrivals + service."""
        queue = DataQueue(node=0, session=0, backlog=backlog)
        new = queue.step(service, arrivals)
        assert new <= backlog + arrivals + 1e-9
        assert new >= backlog - service + arrivals - 1e-6

    @given(
        beta=st.floats(min_value=0.1, max_value=1e4),
        steps=st.lists(st.tuples(finite, finite), min_size=1, max_size=30),
    )
    def test_h_equals_beta_g_invariant(self, beta, steps):
        queue = LinkVirtualQueue(link=(0, 1), beta=beta)
        for arrivals, service in steps:
            queue.step(arrivals, service)
            assert queue.h_backlog == pytest.approx(beta * queue.g_backlog)
            assert queue.g_backlog >= 0.0


class TestBatteryProperties:
    @given(
        capacity=st.floats(min_value=10.0, max_value=1e6),
        fractions=st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_level_always_in_bounds(self, capacity, fractions):
        battery = Battery(capacity, capacity / 3, capacity / 3)
        for is_charge, fraction in fractions:
            if is_charge:
                action = BatteryAction(charge_j=fraction * battery.max_charge_j())
            else:
                action = BatteryAction(
                    discharge_j=fraction * battery.max_discharge_j()
                )
            level = battery.apply(action)
            assert 0.0 <= level <= capacity

    @given(
        capacity=st.floats(min_value=10.0, max_value=1e6),
        charge=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_overcharge_always_rejected(self, capacity, charge):
        battery = Battery(capacity, capacity / 3, capacity / 3)
        assume(charge > battery.max_charge_j() * (1 + 1e-6) + 1e-6)
        from repro.exceptions import EnergyError

        with pytest.raises(EnergyError):
            battery.apply(BatteryAction(charge_j=charge))


class TestCostProperties:
    quadratic = st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    ).filter(lambda abc: abc[0] + abc[1] > 0)

    @given(abc=quadratic, x=finite, y=finite)
    def test_quadratic_midpoint_convexity(self, abc, x, y):
        cost = QuadraticCost(*abc)
        mid = cost.value((x + y) / 2)
        assert mid <= (cost.value(x) + cost.value(y)) / 2 + 1e-6 * (
            1 + cost.value(x) + cost.value(y)
        )

    @given(abc=quadratic, x=finite, y=finite)
    def test_quadratic_derivative_monotone(self, abc, x, y):
        cost = QuadraticCost(*abc)
        lo, hi = min(x, y), max(x, y)
        assert cost.derivative(lo) <= cost.derivative(hi) + 1e-12

    @given(
        breaks=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=4
        ),
        rates=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=5
        ),
        x=finite,
        y=finite,
    )
    def test_piecewise_convexity(self, breaks, rates, x, y):
        breaks = sorted(set(breaks))
        rates = sorted(rates)[: len(breaks) + 1]
        assume(len(rates) == len(breaks) + 1)
        cost = PiecewiseLinearCost(breaks, rates)
        mid = cost.value((x + y) / 2)
        assert mid <= (cost.value(x) + cost.value(y)) / 2 + 1e-6 * (
            1 + cost.value(x) + cost.value(y)
        )


class TestPhyProperties:
    @given(
        d1=st.floats(min_value=1.0, max_value=1e5),
        d2=st.floats(min_value=1.0, max_value=1e5),
        gamma=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_gain_monotone_in_distance(self, d1, d2, gamma):
        lo, hi = min(d1, d2), max(d1, d2)
        assert propagation_gain(lo, 62.5, gamma) >= propagation_gain(hi, 62.5, gamma)

    @given(
        bandwidth=st.floats(min_value=0.0, max_value=1e8),
        sinr=st.floats(min_value=0.0, max_value=1e4),
        threshold=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_capacity_binary_structure(self, bandwidth, sinr, threshold):
        capacity = link_capacity_bps(bandwidth, sinr, threshold)
        if sinr >= threshold:
            assert capacity == pytest.approx(
                bandwidth * math.log2(1 + threshold)
            )
        else:
            assert capacity == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        positions=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.floats(min_value=0.0, max_value=2000.0),
            ),
            min_size=4,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_power_control_output_always_feasible(self, positions, seed):
        """Whatever survives power control truly meets the SINR."""
        rng = np.random.default_rng(seed)
        pts = np.asarray(positions)
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        from repro.phy.propagation import gain_matrix

        gains = gain_matrix(d, 62.5, 4.0)
        n = len(positions)
        pairs = [(i, (i + 1) % n) for i in range(0, n - 1, 2)]
        powers, _ = checked_min_powers(
            pairs, gains, 1e-10, 1.0, {i: 1.0 for i in range(n)}
        )
        for (tx, rx), power in powers.items():
            assert 0 < power <= 1.0 + 1e-9
            interference = sum(
                gains[otx, rx] * p
                for (otx, _), p in powers.items()
                if (otx, _) != (tx, rx)
            )
            sinr_val = gains[tx, rx] * power / (1e-10 + interference)
            assert sinr_val >= 1.0 - 1e-6


class TestSolverProperties:
    @given(
        root=st.floats(min_value=-100.0, max_value=100.0),
        slope=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_bisect_finds_linear_root(self, root, slope):
        found = bisect_root(lambda x: slope * (x - root), -200.0, 200.0)
        assert found == pytest.approx(root, abs=1e-5)

    @given(
        centre=st.floats(min_value=-50.0, max_value=50.0),
        curvature=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_golden_section_finds_quadratic_min(self, centre, curvature):
        found = minimize_convex_1d(
            lambda x: curvature * (x - centre) ** 2, -100.0, 100.0
        )
        assert found == pytest.approx(centre, abs=1e-4)


class TestEnergyAllocationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        demand=st.floats(min_value=0.0, max_value=1000.0),
        renewable=st.floats(min_value=0.0, max_value=500.0),
        charge_cap=st.floats(min_value=0.0, max_value=400.0),
        discharge_cap=st.floats(min_value=0.0, max_value=400.0),
        z=st.floats(min_value=-1e4, max_value=1e3),
        mu=st.floats(min_value=0.0, max_value=1.0),
        is_bs=st.booleans(),
        connected=st.booleans(),
    )
    def test_node_response_always_feasible(
        self, demand, renewable, charge_cap, discharge_cap, z, mu, is_bs, connected
    ):
        grid_cap = 2000.0
        inputs = NodeEnergyInputs(
            node=0,
            is_base_station=is_bs,
            demand_j=demand,
            renewable_j=renewable,
            grid_connected=connected or is_bs,
            grid_cap_j=grid_cap,
            charge_cap_j=charge_cap,
            discharge_cap_j=discharge_cap,
            z=z,
        )
        assume(inputs.demand_j <= inputs.max_supply_j)
        alloc, objective = _node_response(inputs, mu, control_v=1e4)
        assert alloc.demand_served_j == pytest.approx(demand, abs=1e-6)
        assert alloc.charge_j <= charge_cap + 1e-6
        assert alloc.discharge_j <= discharge_cap + 1e-6
        assert alloc.grid_draw_j <= inputs.usable_grid_j + 1e-6
        assert (
            alloc.renewable_serve_j + alloc.renewable_charge_j
            <= renewable + 1e-6
        )
        assert min(alloc.charge_j, alloc.discharge_j) <= 1e-6
        assert np.isfinite(objective)


class BatteryMachine(RuleBasedStateMachine):
    """Stateful battery test: no action sequence can break (10)-(13)."""

    def __init__(self):
        super().__init__()
        self.battery = Battery(
            capacity_j=1000.0,
            charge_cap_j=300.0,
            discharge_cap_j=300.0,
            charge_efficiency=0.9,
            discharge_efficiency=0.9,
        )
        self.shadow_level = 0.0

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def charge(self, fraction):
        amount = fraction * self.battery.max_charge_j()
        self.battery.apply(BatteryAction(charge_j=amount))
        self.shadow_level += self.battery.charge_efficiency * amount

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def discharge(self, fraction):
        amount = fraction * self.battery.max_discharge_j()
        self.battery.apply(BatteryAction(discharge_j=amount))
        self.shadow_level -= amount

    @invariant()
    def level_in_bounds(self):
        assert 0.0 <= self.battery.level_j <= self.battery.capacity_j

    @invariant()
    def level_matches_shadow(self):
        assert self.battery.level_j == pytest.approx(
            min(max(self.shadow_level, 0.0), self.battery.capacity_j),
            abs=1e-6,
        )

    @invariant()
    def caps_consistent(self):
        assert self.battery.max_charge_j() >= 0.0
        assert self.battery.max_discharge_j() >= 0.0
        assert (
            self.battery.max_deliverable_j()
            <= self.battery.max_discharge_j() + 1e-12
        )


TestBatteryStateMachine = BatteryMachine.TestCase
