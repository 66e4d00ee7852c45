"""Unit tests for the PHY substrate: propagation, SINR, capacity,
interference helpers, and power control."""

import math

import numpy as np
import pytest

from repro.phy import (
    big_m_coefficient,
    gain_matrix,
    link_capacity_bps,
    max_link_capacity_bps,
    minimal_power_assignment_vec,
    propagation_gain,
    sinr,
    total_interference,
    zero_interference_feasible,
)
from repro.phy.propagation import MIN_DISTANCE_M
from repro.phy.sinr import sinr_of_transmission
from repro.types import Transmission
from tests.fm_oracle import MatrixGains, checked_min_powers


class TestPropagation:
    def test_follows_power_law(self):
        g1 = propagation_gain(100.0, 62.5, 4.0)
        g2 = propagation_gain(200.0, 62.5, 4.0)
        assert g1 / g2 == pytest.approx(16.0)

    def test_near_field_clamped(self):
        assert propagation_gain(0.0, 62.5, 4.0) == propagation_gain(
            MIN_DISTANCE_M, 62.5, 4.0
        )

    def test_invalid_constant_raises(self):
        with pytest.raises(ValueError):
            propagation_gain(10.0, 0.0, 4.0)
        with pytest.raises(ValueError):
            propagation_gain(10.0, 62.5, -1.0)

    def test_matrix_matches_scalar(self):
        distances = np.array([[0.0, 100.0], [100.0, 0.0]])
        gains = gain_matrix(distances, 62.5, 4.0)
        assert gains[0, 1] == pytest.approx(propagation_gain(100.0, 62.5, 4.0))
        assert np.all(np.isfinite(gains))

    def test_matrix_invalid_args(self):
        with pytest.raises(ValueError):
            gain_matrix(np.ones((2, 2)), -1.0, 4.0)


class TestSinr:
    def test_no_interference(self):
        gains = np.array([[1.0, 0.01], [0.01, 1.0]])
        value = sinr(gains, 0, 1, tx_power_w=1.0, noise_power_w=1e-3)
        assert value == pytest.approx(0.01 / 1e-3)

    def test_interference_reduces_sinr(self):
        gains = np.array([[1.0, 0.01], [0.01, 1.0]])
        clean = sinr(gains, 0, 1, 1.0, 1e-3)
        noisy = sinr(gains, 0, 1, 1.0, 1e-3, interference_w=1e-3)
        assert noisy == pytest.approx(clean / 2)

    def test_total_interference_sums_gains(self):
        gains = np.array([[0, 0.5, 0.2], [0.5, 0, 0.1], [0.2, 0.1, 0]])
        value = total_interference(gains, 2, [(0, 2.0), (1, 1.0)])
        assert value == pytest.approx(0.2 * 2.0 + 0.1 * 1.0)

    def test_invalid_noise_raises(self):
        gains = np.ones((2, 2))
        with pytest.raises(ValueError):
            sinr(gains, 0, 1, 1.0, 0.0)

    def test_sinr_of_transmission_ignores_other_bands(self):
        gains = np.array(
            [[0, 1e-6, 1e-7], [1e-6, 0, 1e-7], [1e-7, 1e-7, 0]]
        )
        target = Transmission(tx=0, rx=1, band=0, power_w=1.0)
        same_band = Transmission(tx=2, rx=0, band=0, power_w=1.0)
        other_band = Transmission(tx=2, rx=0, band=1, power_w=1.0)
        clean = sinr_of_transmission(gains, target, [other_band], 1e-9)
        dirty = sinr_of_transmission(gains, target, [same_band], 1e-9)
        assert dirty < clean


class TestCapacity:
    def test_capacity_above_threshold(self):
        # Gamma = 1 -> spectral efficiency log2(2) = 1 bit/s/Hz.
        assert link_capacity_bps(1e6, 2.0, 1.0) == pytest.approx(1e6)

    def test_capacity_below_threshold_is_zero(self):
        assert link_capacity_bps(1e6, 0.99, 1.0) == 0.0

    def test_capacity_exactly_at_threshold(self):
        assert link_capacity_bps(1e6, 1.0, 1.0) > 0

    def test_capacity_scales_with_bandwidth(self):
        one = max_link_capacity_bps(1e6, 3.0)
        two = max_link_capacity_bps(2e6, 3.0)
        assert two == pytest.approx(2 * one)

    def test_spectral_efficiency(self):
        assert max_link_capacity_bps(1.0, 3.0) == pytest.approx(math.log2(4.0))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            link_capacity_bps(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            max_link_capacity_bps(1e6, 0.0)


class TestInterferenceHelpers:
    def test_zero_interference_feasible(self):
        assert zero_interference_feasible(1e-8, 1.0, 1e-9, 1.0)
        assert not zero_interference_feasible(1e-12, 1.0, 1e-9, 10.0)

    def test_big_m_covers_worst_case(self):
        gains = np.full((3, 3), 1e-6)
        np.fill_diagonal(gains, 0.0)
        caps = {0: 1.0, 1: 2.0, 2: 4.0}
        m = big_m_coefficient(MatrixGains(gains), 0, 1, 1e-9, 1.0, caps)
        # Only node 2 interferes with link (0, 1).
        assert m == pytest.approx(1.0 * (1e-9 + 1e-6 * 4.0))


class TestPowerControl:
    """The batched assignment, each case checked against the scalar oracle."""

    @staticmethod
    def _gains(positions, c=62.5, gamma=4.0):
        pts = np.asarray(positions, dtype=float)
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        return gain_matrix(d, c, gamma)

    def test_single_link_hits_threshold_exactly(self):
        gains = self._gains([[0, 0], [100, 0]])
        powers, dropped = checked_min_powers(
            [(0, 1)], gains, noise_power_w=1e-10, sinr_threshold=1.0,
            max_power_w={0: 1.0, 1: 1.0},
        )
        assert not dropped
        achieved = gains[0, 1] * powers[(0, 1)] / 1e-10
        assert achieved == pytest.approx(1.0, rel=1e-9)

    def test_two_distant_links_both_feasible(self):
        gains = self._gains([[0, 0], [100, 0], [5000, 0], [5100, 0]])
        powers, _ = checked_min_powers(
            [(0, 1), (2, 3)], gains, 1e-10, 1.0,
            {i: 5.0 for i in range(4)},
        )
        assert set(powers) == {(0, 1), (2, 3)}
        # Both links must meet the SINR including mutual interference.
        for link in powers:
            tx, rx = link
            interference = sum(
                gains[otx, rx] * powers[(otx, orx)]
                for otx, orx in powers
                if (otx, orx) != link
            )
            achieved = gains[tx, rx] * powers[link] / (1e-10 + interference)
            assert achieved >= 1.0 - 1e-9

    def test_conflicting_links_drop_lower_priority(self):
        # Two co-located links cannot both meet Gamma = 1: each
        # receiver hears the other transmitter as loudly as its own.
        gains = self._gains([[0, 0], [10, 0], [0, 10], [10, 10]])
        powers, dropped = checked_min_powers(
            [(0, 1), (2, 3)], gains, 1e-10, 5.0,
            {i: 1.0 for i in range(4)},
            priority={(0, 1): 10.0, (2, 3): 1.0},
        )
        assert dropped == [(2, 3)]
        assert (0, 1) in powers

    def test_power_cap_respected(self):
        gains = self._gains([[0, 0], [3000, 0]])
        powers, dropped = checked_min_powers(
            [(0, 1)], gains, 1e-6, 1.0, {0: 0.001, 1: 0.001}
        )
        assert dropped == [(0, 1)]
        assert not powers

    def test_empty_link_set(self):
        gains = self._gains([[0, 0], [10, 0]])
        powers, dropped = checked_min_powers([], gains, 1e-10, 1.0, {0: 1.0, 1: 1.0})
        assert not powers and not dropped

    @pytest.mark.parametrize(
        "priority,order",
        [
            ({(0, 1): 2.0, (2, 3): 1.0}, [(2, 3), (0, 1)]),
            ({(0, 1): 1.0, (2, 3): 2.0}, [(0, 1), (2, 3)]),
            (None, [(0, 1), (2, 3)]),
        ],
    )
    def test_equal_overshoot_tie_breaks_on_priority(self, priority, order):
        # Decoupled links with identical direct gains overshoot their
        # equal caps by exactly the same ratio: the lower priority goes
        # first, and equal priorities fall back to input order.
        gains = np.zeros((4, 4))
        gains[0, 1] = gains[2, 3] = 1e-6
        _, dropped = checked_min_powers(
            [(0, 1), (2, 3)], gains, 1e-6, 1.0, {0: 0.5, 2: 0.5}, priority
        )
        assert dropped == order

    def test_cancelling_solve_still_meets_threshold(self):
        # Nodes 0 and 1 coincide, so link (0, 1) needs a power twelve
        # orders below link (2, 3)'s.  Partial pivoting then cancels the
        # small power against the large one; without the refinement
        # step its SINR came out 2.4e-5 short of Gamma.
        gains = self._gains([[1559, 453], [1559, 453], [773, 0], [858, 766]])
        powers, dropped = checked_min_powers(
            [(0, 1), (2, 3)], gains, 1e-10, 1.0, {i: 1.0 for i in range(4)}
        )
        assert not dropped
        for (tx, rx), power in powers.items():
            interference = sum(
                gains[otx, rx] * p for (otx, orx), p in powers.items() if otx != tx
            )
            assert gains[tx, rx] * power / (1e-10 + interference) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_minimality_against_uniform_scaling(self):
        # Scaling all powers down by any factor breaks at least one SINR.
        gains = self._gains([[0, 0], [200, 0], [900, 0], [1100, 0]])
        powers, _ = checked_min_powers(
            [(0, 1), (2, 3)], gains, 1e-10, 1.0, {i: 50.0 for i in range(4)}
        )
        assert set(powers) == {(0, 1), (2, 3)}
        scaled = {k: v * 0.99 for k, v in powers.items()}
        ok = True
        for (tx, rx), power in scaled.items():
            interference = sum(
                gains[otx, rx] * p
                for (otx, orx), p in scaled.items()
                if (otx, orx) != (tx, rx)
            )
            if gains[tx, rx] * power / (1e-10 + interference) < 1.0 - 1e-9:
                ok = False
        assert not ok


class TestPowerControlVec:
    """minimal_power_assignment_vec vs the scalar oracle, bitwise."""

    def test_fuzz_matches_scalar(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            num_nodes = int(rng.integers(4, 12))
            positions = rng.uniform(0.0, 2000.0, (num_nodes, 2))
            gains = TestPowerControl._gains(positions)
            n_links = int(rng.integers(1, 7))
            pairs = set()
            while len(pairs) < n_links:
                tx, rx = rng.integers(0, num_nodes, 2)
                if tx != rx:
                    pairs.add((int(tx), int(rx)))
            links = sorted(pairs)
            caps_map = {i: float(rng.uniform(0.01, 5.0)) for i in range(num_nodes)}
            priority = {link: float(rng.uniform(0.0, 10.0)) for link in links}
            threshold = float(rng.uniform(0.5, 4.0))
            checked_min_powers(links, gains, 1e-10, threshold, caps_map, priority)

    def test_empty_set(self):
        gains = TestPowerControl._gains([[0, 0], [10, 0]])
        kept, powers, dropped = minimal_power_assignment_vec(
            np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
            MatrixGains(gains), 1e-10, 1.0, np.zeros(0), np.zeros(0),
        )
        assert kept.size == 0 and powers.size == 0 and dropped == []
