"""Unit tests for S1 link scheduling (all three algorithms)."""

import numpy as np
import pytest

from repro.control import LinkScheduler
from repro.core.drift import compute_drift_terms  # noqa: F401  (import check)
from repro.types import SchedulerKind


@pytest.fixture
def observation(tiny_state):
    return tiny_state.observe(0)


def _h_for(model, value=10.0, links=None):
    chosen = links if links is not None else model.topology.candidate_links
    return {link: value for link in chosen}


class TestCandidateConstruction:
    def test_zero_backlog_schedules_nothing(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        decision = scheduler.schedule(observation, h_backlogs={})
        assert not decision.transmissions
        assert not decision.link_service_pkts

    def test_positive_backlog_schedules_something(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        decision = scheduler.schedule(observation, _h_for(tiny_model))
        assert decision.transmissions

    def test_forbidden_links_respected(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        all_links = list(tiny_model.topology.candidate_links)
        decision = scheduler.schedule(
            observation, _h_for(tiny_model), forbidden_links=all_links
        )
        assert not decision.transmissions


class TestSingleRadioConstraint:
    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_constraint_22_holds(
        self, tiny_model, tiny_constants, observation, kind
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants, kind=kind)
        rng = np.random.default_rng(4)
        h = {
            link: float(rng.uniform(1, 100))
            for link in tiny_model.topology.candidate_links
        }
        decision = scheduler.schedule(observation, h)
        busy = []
        for t in decision.transmissions:
            busy.extend([t.tx, t.rx])
        assert len(busy) == len(set(busy)), "a node appears in two transmissions"

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_all_transmissions_meet_sinr(
        self, tiny_model, tiny_constants, observation, kind
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants, kind=kind)
        decision = scheduler.schedule(observation, _h_for(tiny_model, 50.0))
        params = tiny_model.params
        gains = tiny_model.topology.gains_lookup()
        for target in decision.transmissions:
            noise = tiny_model.noise_power_w(
                observation.bands.bandwidth(target.band)
            )
            interference = sum(
                gains[other.tx, target.rx] * other.power_w
                for other in decision.transmissions
                if other.band == target.band and other.link != target.link
            )
            achieved = (
                gains[target.tx, target.rx]
                * target.power_w
                / (noise + interference)
            )
            assert achieved >= params.sinr_threshold * (1 - 1e-9)

    def test_powers_respect_caps(self, tiny_model, tiny_constants, observation):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        decision = scheduler.schedule(observation, _h_for(tiny_model, 50.0))
        for t in decision.transmissions:
            assert 0 < t.power_w <= tiny_model.max_power_w[t.tx] * (1 + 1e-9)


class TestAlgorithmQuality:
    @staticmethod
    def _weight_of(decision, h, beta):
        return sum(
            beta * h.get(link, 0.0) * service
            for link, service in decision.link_service_pkts.items()
        )

    def test_matching_beats_or_equals_greedy(
        self, tiny_model, tiny_constants, observation
    ):
        rng = np.random.default_rng(7)
        for trial in range(5):
            h = {
                link: float(rng.uniform(0, 100))
                for link in tiny_model.topology.candidate_links
            }
            exact = LinkScheduler(
                tiny_model, tiny_constants, kind=SchedulerKind.MAX_WEIGHT_MATCHING
            ).schedule(observation, h)
            greedy = LinkScheduler(
                tiny_model, tiny_constants, kind=SchedulerKind.GREEDY
            ).schedule(observation, h)
            # Compare pre-power-control activation weight: count only
            # served links (power control is shared).
            beta = tiny_constants.beta
            assert (
                self._weight_of(exact, h, beta)
                >= self._weight_of(greedy, h, beta) - 1e-6
            )

    def test_sequential_fix_close_to_matching(
        self, tiny_model, tiny_constants, observation
    ):
        rng = np.random.default_rng(11)
        h = {
            link: float(rng.uniform(1, 100))
            for link in tiny_model.topology.candidate_links
        }
        exact = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.MAX_WEIGHT_MATCHING
        ).schedule(observation, h)
        sf = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX
        ).schedule(observation, h)
        beta = tiny_constants.beta
        exact_weight = self._weight_of(exact, h, beta)
        sf_weight = self._weight_of(sf, h, beta)
        assert sf_weight >= 0.5 * exact_weight

    def test_greedy_picks_heaviest_link(
        self, tiny_model, tiny_constants, observation
    ):
        links = list(tiny_model.topology.candidate_links)
        heavy = links[0]
        h = {link: 1.0 for link in links}
        h[heavy] = 1e6
        decision = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.GREEDY
        ).schedule(observation, h)
        scheduled_links = {t.link for t in decision.transmissions}
        assert heavy in scheduled_links


class TestEnergyAwareWeights:
    def test_high_price_suppresses_scheduling(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 1.0)  # tiny backlog value
        expensive = {
            node: 1e18 for node in range(tiny_model.num_nodes)
        }
        decision = scheduler.schedule(
            observation, h, energy_prices=expensive
        )
        assert not decision.transmissions

    def test_zero_price_matches_paper_weights(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 25.0)
        free = {node: 0.0 for node in range(tiny_model.num_nodes)}
        with_prices = scheduler.schedule(observation, h, energy_prices=free)
        without = scheduler.schedule(observation, h, energy_prices=None)
        assert with_prices.link_service_pkts == without.link_service_pkts

    def test_price_diverts_to_cheap_transmitter(
        self, tiny_model, tiny_constants, observation
    ):
        # Price only the base station: user-to-user links win ties.
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 1e-3)
        prices = {node: 0.0 for node in range(tiny_model.num_nodes)}
        for bs in tiny_model.bs_ids:
            prices[bs] = 1e15
        decision = scheduler.schedule(observation, h, energy_prices=prices)
        assert all(
            t.tx not in tiny_model.bs_ids and t.rx not in tiny_model.bs_ids
            for t in decision.transmissions
        )


class TestSinrAwareSequentialFix:
    def test_selection_survives_power_control(
        self, tiny_model, tiny_constants, observation
    ):
        """The interference-aware relaxation should not pick link sets
        that power control must then drop."""
        scheduler = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX_SINR
        )
        rng = np.random.default_rng(8)
        for _ in range(3):
            h = {
                link: float(rng.uniform(1, 100))
                for link in tiny_model.topology.candidate_links
            }
            decision = scheduler.schedule(observation, h)
            assert not decision.dropped

    def test_matches_plain_sf_when_interference_free(
        self, tiny_model, tiny_constants, observation
    ):
        # A single backlogged link has no co-band coupling: both SF
        # variants must schedule it.
        link = tiny_model.topology.candidate_links[0]
        h = {link: 50.0}
        plain = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX
        ).schedule(observation, h)
        aware = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX_SINR
        ).schedule(observation, h)
        assert {t.link for t in plain.transmissions} == {link}
        assert {t.link for t in aware.transmissions} == {link}
