"""Tests for the mobility extension."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import tiny_scenario, validate_parameters
from repro.exceptions import ConfigurationError
from repro.network.mobility import RandomWaypointMobility, StaticMobility
from repro.phy.propagation import ComputedPairGains
from repro.sim import SlotSimulator
from repro.types import MobilityKind, SchedulerKind
from tests.topology_oracle import build_topology_dense


class TestStaticMobility:
    def test_positions_never_change(self):
        initial = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = StaticMobility(initial)
        np.testing.assert_array_equal(model.positions_at(0), initial)
        np.testing.assert_array_equal(model.positions_at(100), initial)

    def test_returns_copies(self):
        initial = np.array([[1.0, 2.0]])
        model = StaticMobility(initial)
        got = model.positions_at(0)
        got[0, 0] = 9.0
        np.testing.assert_array_equal(model.positions_at(0), initial)


def _waypoint(seed=0, speed=(10.0, 10.0), area=1000.0):
    initial = np.array([[500.0, 500.0], [100.0, 100.0], [900.0, 900.0]])
    return RandomWaypointMobility(
        initial=initial,
        mobile=[1, 2],
        area_side_m=area,
        speed_range_mps=speed,
        slot_seconds=60.0,
        rng=np.random.default_rng(seed),
    )


def _distance(a, b):
    return float(np.hypot(*(np.asarray(a) - np.asarray(b))))


class TestRandomWaypoint:
    def test_fixed_nodes_stay(self):
        model = _waypoint()
        for slot in range(10):
            assert model.positions_at(slot)[0].tolist() == [500.0, 500.0]

    def test_mobile_nodes_move(self):
        model = _waypoint()
        start = model.positions_at(0)
        later = model.positions_at(5)
        assert later[1].tolist() != start[1].tolist()
        assert later[2].tolist() != start[2].tolist()

    def test_step_length_bounded_by_speed(self):
        model = _waypoint(speed=(5.0, 5.0))
        previous = model.positions_at(0)
        for slot in range(1, 20):
            current = model.positions_at(slot)
            for node in (1, 2):
                step = _distance(previous[node], current[node])
                assert step <= 5.0 * 60.0 + 1e-6
            previous = current

    def test_positions_stay_in_area(self):
        model = _waypoint(speed=(50.0, 100.0))
        for slot in range(50):
            positions = model.positions_at(slot)
            assert np.all((positions >= 0.0) & (positions <= 1000.0))

    def test_same_slot_idempotent(self):
        model = _waypoint()
        model.positions_at(7)
        np.testing.assert_array_equal(model.positions_at(7), model.positions_at(7))

    def test_each_step_returns_a_new_read_only_array(self):
        model = _waypoint()
        first = model.positions_at(3)
        snapshot = first.copy()
        with pytest.raises(ValueError):
            first[1, 0] = 0.0
        later = model.positions_at(4)
        assert later is not first
        np.testing.assert_array_equal(first, snapshot)

    def test_rewind_rejected(self):
        model = _waypoint()
        model.positions_at(5)
        with pytest.raises(ValueError, match="rewind"):
            model.positions_at(3)

    def test_bad_speed_range_rejected(self):
        with pytest.raises(ValueError):
            _waypoint(speed=(5.0, 1.0))


class TestMobileFingerprints:
    """Exact pins of the random-waypoint path and of mobile runs.

    Taken from the per-node ``Point`` stepping and the per-slot dense
    gain matrix before both were replaced by the vectorized step and
    the position-computed gain view; any drift is a bug.
    """

    def test_waypoint_positions(self):
        initial = np.random.default_rng(11).uniform(0.0, 1000.0, size=(300, 2))
        model = RandomWaypointMobility(
            initial=initial,
            mobile=range(4, 300),
            area_side_m=1000.0,
            speed_range_mps=(0.5, 10.0),
            slot_seconds=60.0,
            rng=np.random.default_rng(2014),
        )
        digest = hashlib.sha256()
        for slot in range(41):
            digest.update(np.ascontiguousarray(model.positions_at(slot)).tobytes())
        assert digest.hexdigest() == (
            "709cd2f3867eaf33fad233be27c7cf6436296397b3a81830ee98eeb5fab601ed"
        )

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (
                SchedulerKind.GREEDY,
                "96d999d34153b57ce0e935000b3d5b570572bb90b3784741bd80d4f7ffab5dd1",
            ),
            (
                SchedulerKind.SEQUENTIAL_FIX,
                "6b93c8d667eb474e7c0d2ff367333a2e00a781a2d8030ac5e45842b090800922",
            ),
            (
                SchedulerKind.SEQUENTIAL_FIX_SINR,
                "43ae3324825970cf9507d4a0fb487a099ea70563e6d0f121aa5aa70e48b85a22",
            ),
        ],
        ids=lambda v: getattr(v, "name", "digest"),
    )
    def test_mobile_run(self, kind, expected):
        params = tiny_scenario(
            num_users=10,
            num_slots=20,
            mobility=MobilityKind.RANDOM_WAYPOINT,
            user_speed_range_mps=(5.0, 20.0),
        )
        sim = SlotSimulator.integral(params, scheduler_kind=kind)
        record = []
        for slot in range(params.num_slots):
            schedule = sim.step(slot).schedule
            record.append(
                repr([(t.tx, t.rx, t.band, t.power_w) for t in schedule.transmissions])
            )
            record.append(repr(list(schedule.dropped)))
        state = sim.state
        record.append(repr(sorted(state.data_queues.snapshot().items())))
        record.append(repr(sorted(state.virtual_queues.snapshot().items())))
        record.append(repr(sorted(state.z_values().items())))
        digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
        assert digest == expected


class TestGainMatrixForPositions:
    """The slot's gains are the computed view over that slot's positions."""

    def test_matches_topology_builder(self, tiny_model):
        params = tiny_model.params
        oracle = build_topology_dense(params, tiny_model.nodes)
        view = ComputedPairGains(
            tiny_model.topology.positions,
            params.propagation_constant,
            params.path_loss_exponent,
        )
        every = np.arange(tiny_model.num_nodes)
        np.testing.assert_array_equal(view.submatrix(every, every), oracle.gains)

    def test_symmetric(self):
        view = ComputedPairGains(
            np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 300.0]]), 62.5, 4.0
        )
        every = np.arange(3)
        block = view.submatrix(every, every)
        np.testing.assert_array_equal(block, block.T)


class TestMobileSimulation:
    @pytest.fixture
    def mobile_params(self):
        return dataclasses.replace(
            tiny_scenario(num_slots=25),
            mobility=MobilityKind.RANDOM_WAYPOINT,
            user_speed_range_mps=(5.0, 20.0),
        )

    def test_run_completes_and_delivers(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        result = simulator.run()
        demand = sum(s.demand_packets for s in simulator.model.sessions)
        assert np.all(result.metrics.series("delivered_pkts") == demand)

    def test_observation_carries_gains(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        observation = simulator.state.observe(0)
        assert isinstance(observation.gains, ComputedPairGains)
        assert observation.gains.num_nodes == simulator.model.num_nodes
        assert observation.gains is not simulator.model.topology.gains_lookup()

    def test_static_observation_carries_topology_view(self):
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=3))
        observation = simulator.state.observe(0)
        assert observation.gains is simulator.model.topology.gains_lookup()

    def test_held_gains_survive_later_slots(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        every = np.arange(simulator.model.num_nodes)
        held = simulator.state.observe(3).gains
        before = held.submatrix(every, every)
        after = simulator.state.observe(4).gains
        assert after is not held
        assert not np.array_equal(after.submatrix(every, every), before)
        np.testing.assert_array_equal(held.submatrix(every, every), before)

    def test_static_sample_path_unchanged_by_mobility_feature(self):
        """Static scenarios must keep their historical randomness."""
        a = SlotSimulator.integral(tiny_scenario(num_slots=6)).run()
        b = SlotSimulator.integral(tiny_scenario(num_slots=6)).run()
        assert a.average_cost == pytest.approx(b.average_cost)

    def test_scheduled_powers_track_motion(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        for slot in range(10):
            observation = simulator.state.observe(slot)
            decision = simulator.controller.decide(observation, simulator.state)
            gains = observation.gains
            params = simulator.model.params
            for t in decision.schedule.transmissions:
                noise = simulator.model.noise_power_w(
                    observation.bands.bandwidth(t.band)
                )
                interference = sum(
                    gains[o.tx, t.rx] * o.power_w
                    for o in decision.schedule.transmissions
                    if o.band == t.band and o.link != t.link
                )
                sinr = gains[t.tx, t.rx] * t.power_w / (noise + interference)
                assert sinr >= params.sinr_threshold * (1 - 1e-9)
            simulator.state.apply(decision, slot)

    def test_speed_validation(self):
        params = dataclasses.replace(
            tiny_scenario(), user_speed_range_mps=(5.0, 1.0)
        )
        with pytest.raises(ConfigurationError, match="speed"):
            validate_parameters(params)
