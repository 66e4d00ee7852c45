"""Grid-builder bit-identity against the all-pairs oracle, and run pins.

The topology is built by the uniform-grid builder only, and every gain
read goes through the position-computed pair-gain view.  This suite
holds both to *bit-identity* — not approximate equality:

* topology level: the grid builder yields the oracle's candidate links
  in the oracle's order with bitwise-equal per-link gains, and the
  pair-gain view reproduces the oracle's dense matrix entries exactly,
  at a few hundred nodes (``tests/topology_oracle.py``);
* run level: full simulations across the scheduler / queue-semantics /
  mobility / dynamic-spectrum variants reproduce fingerprints taken
  from the all-pairs (dense-matrix) path before it was deleted — every
  per-slot decision, the trace rows and the final queue/battery state;
* LP level: the relaxed bound's and SF-SINR's LP coefficients, static
  and mobile, hash to the values the dense-matrix path produced.

Every comparison is exact: the computed view applies the same
elementwise IEEE-754 operations in the same order, so any drift is a
bug, not round-off.  When a change is intentional, print the new
digests with the helpers below and update them with a changelog note.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.network.node import build_nodes
from repro.network.topology import build_topology
from repro.sim import SlotSimulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.solvers.linprog import LinearProgram
from repro.types import MobilityKind, QueueSemantics, SchedulerKind
from tests.topology_oracle import build_topology_dense


def _decision_fingerprint(decision):
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


def _run_digest(params, scheduler_kind):
    """sha256 over every decision, the trace rows and the final state."""
    sim = SlotSimulator.integral(params, scheduler_kind=scheduler_kind)
    trace = TraceRecorder()
    record = [
        repr(_decision_fingerprint(sim.step(slot, trace=trace)))
        for slot in range(params.num_slots)
    ]
    record.append(repr(trace.rows))
    arrays = sim.state.arrays
    for final in (arrays.q, arrays.g, arrays.battery_level):
        record.append(final.tobytes().hex())
    return hashlib.sha256("\n".join(record).encode()).hexdigest()


def _lp_record(lp):
    """An LP's variables, bounds and constraints with plain-float values.

    Values are read through ``float`` so the record pins the numbers,
    not whether a coefficient happens to be a numpy scalar.
    """

    def num(value):
        return None if value is None else float(value)

    return (
        lp._order,
        [(key, num(value)) for key, value in lp._objective.items()],
        [(key, num(lo), num(hi)) for key, (lo, hi) in lp._bounds.items()],
        [
            (con.name, con.sense.name, num(con.rhs))
            + tuple((key, num(value)) for key, value in con.coeffs.items())
            for con in lp._constraints
        ],
    )


def _lp_digest(run, monkeypatch):
    """sha256 over every LP that ``run()`` hands to the solver."""
    digest = hashlib.sha256()
    solve = LinearProgram.solve

    def recording(lp):
        digest.update(repr(_lp_record(lp)).encode())
        return solve(lp)

    monkeypatch.setattr(LinearProgram, "solve", recording)
    run()
    return digest.hexdigest()


def _mobile(**kwargs):
    return tiny_scenario(
        num_users=10,
        mobility=MobilityKind.RANDOM_WAYPOINT,
        user_speed_range_mps=(5.0, 20.0),
        **kwargs,
    )


class TestTopologyEquivalence:
    """Builder-level identity at a few hundred nodes."""

    @pytest.fixture(scope="class")
    def built(self):
        scenario = tiny_scenario(
            num_users=200,
            num_sessions=4,
            area_side_m=2500.0,
            neighbor_limit=4,
        )
        nodes = build_nodes(
            scenario, RngStreams(scenario.seed, scenario.seed_spawn_key).topology
        )
        return build_topology_dense(scenario, nodes), build_topology(scenario, nodes)

    def test_candidate_links_identical(self, built):
        oracle, topology = built
        assert oracle.candidate_links == topology.candidate_links
        assert oracle.out_neighbors == topology.out_neighbors
        assert oracle.in_neighbors == topology.in_neighbors

    def test_link_arrays_identical(self, built):
        oracle, topology = built
        np.testing.assert_array_equal(oracle.link_tx, topology.link_tx)
        np.testing.assert_array_equal(oracle.link_rx, topology.link_rx)
        np.testing.assert_array_equal(oracle.link_gains, topology.link_gains)
        np.testing.assert_array_equal(
            oracle.link_gains, topology.pair_gains.pairs(oracle.link_tx, oracle.link_rx)
        )

    def test_pair_view_matches_dense_matrix(self, built):
        oracle, topology = built
        rng = np.random.default_rng(0)
        n = topology.num_nodes
        tx = rng.integers(0, n, size=300)
        rx = rng.integers(0, n, size=300)
        view = topology.gains_lookup()
        np.testing.assert_array_equal(view.pairs(tx, rx), oracle.gains[tx, rx])
        np.testing.assert_array_equal(
            view.submatrix(tx[:20], rx[:20]),
            oracle.gains[tx[:20, None], rx[None, :20]],
        )
        np.testing.assert_array_equal(
            view.column(int(rx[0])), oracle.gains[:, int(rx[0])]
        )
        for t, r in zip(tx[:25].tolist(), rx[:25].tolist()):
            assert view[t, r] == oracle.gains[t, r]
            assert topology.gain(t, r) == oracle.gains[t, r]

    def test_link_index_matrix_roundtrip(self, built):
        _, topology = built
        tx, rx = topology.link_arrays()
        np.testing.assert_array_equal(
            topology.link_positions_of(tx, rx), np.arange(tx.shape[0])
        )
        # A deliberately absent pair maps to -1.
        missing_tx = np.array([tx[0]])
        missing_rx = np.array([tx[0]])  # self-loop is never a candidate
        assert topology.link_positions_of(missing_tx, missing_rx)[0] == -1

    def test_positions_read_only(self, built):
        _, topology = built
        with pytest.raises(ValueError):
            topology.positions[0, 0] = 0.0


class TestRunEquivalence:
    """Full-run pins taken from the dense-matrix path, across variants."""

    def test_greedy(self):
        params = tiny_scenario(
            num_users=40,
            num_sessions=3,
            num_slots=8,
            area_side_m=1500.0,
        )
        assert _run_digest(params, SchedulerKind.GREEDY) == (
            "c1137450e68f99623f3b779fdf090be835d16f1341782d3b0d70aeab768f1c0a"
        )

    def test_sequential_fix(self):
        params = tiny_scenario(num_slots=8)
        assert _run_digest(params, SchedulerKind.SEQUENTIAL_FIX) == (
            "faa520cc071df3858b05529fc08df4bed9ebb476114d2a4ff22177e1334443dc"
        )

    def test_packet_accurate_semantics(self):
        params = tiny_scenario(
            num_users=25,
            num_sessions=2,
            num_slots=8,
            area_side_m=1200.0,
            queue_semantics=QueueSemantics.PACKET_ACCURATE,
        )
        assert _run_digest(params, SchedulerKind.GREEDY) == (
            "fb5fb489142163f34a55ba2004995f36354a94cd0482752ec36b39e9121fd44e"
        )

    def test_mobility(self):
        params = tiny_scenario(
            num_users=20,
            num_sessions=2,
            num_slots=8,
            area_side_m=1200.0,
            mobility=MobilityKind.RANDOM_WAYPOINT,
        )
        assert _run_digest(params, SchedulerKind.GREEDY) == (
            "f77ffc14f9901bf11250e8e7e7aef0c82046857b2be86e590717db0c9adbbc18"
        )

    def test_dynamic_spectrum(self):
        base = tiny_scenario(
            num_users=20, num_sessions=2, num_slots=8, area_side_m=1200.0
        )
        params = dataclasses.replace(
            base,
            spectrum=dataclasses.replace(
                base.spectrum, dynamic_availability=True
            ),
        )
        assert _run_digest(params, SchedulerKind.GREEDY) == (
            "9c2e9caa588fea9053fb9bfb407ed0d79fd6def25156b4c84b93e19b78a35d81"
        )


class TestLpCoefficientFingerprints:
    """The LPs that read gains per link keep bitwise-equal coefficients."""

    def test_relaxed_lp_static(self, monkeypatch):
        params = tiny_scenario(num_slots=8)
        digest = _lp_digest(SlotSimulator.relaxed(params).run, monkeypatch)
        assert digest == (
            "02c08d816709f71347b208667fa755d7905fd971573043d1f6397e16064618c1"
        )

    def test_relaxed_lp_mobile(self, monkeypatch):
        params = _mobile(num_slots=8)
        digest = _lp_digest(SlotSimulator.relaxed(params).run, monkeypatch)
        assert digest == (
            "e7307ad3ebfafdb4e27574cf3b11bab9f95ab64164d75e9f9648d78262ef2a71"
        )

    def test_sf_sinr_lp_static(self, monkeypatch):
        sim = SlotSimulator.integral(
            tiny_scenario(num_users=10, num_slots=12),
            scheduler_kind=SchedulerKind.SEQUENTIAL_FIX_SINR,
        )
        assert _lp_digest(sim.run, monkeypatch) == (
            "1a185e7ce766cdbb1616398d957f715332095df8e07d365ea32907c4e6d0ebd2"
        )

    def test_sf_sinr_lp_mobile(self, monkeypatch):
        sim = SlotSimulator.integral(
            _mobile(num_slots=12),
            scheduler_kind=SchedulerKind.SEQUENTIAL_FIX_SINR,
        )
        assert _lp_digest(sim.run, monkeypatch) == (
            "0ca2bab270b31f727f4007ff23e20cd2c010e454f23909a6d668009d6f0d5eb7"
        )
