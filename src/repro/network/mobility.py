"""User mobility models.

The paper's evaluation keeps users static; these models add motion as
an extension (the system model explicitly targets *mobile* users).
Mobility is quasi-static with respect to the candidate-link set: the
pruned links are fixed from the initial placement, but the propagation
gains follow the current positions every slot — the state hands the
controller a :class:`~repro.phy.propagation.ComputedPairGains` view over
the slot's ``(N, 2)`` positions array — so link quality, and through
power control link feasibility, tracks the motion.

``RandomWaypointMobility`` is the classical model: each user picks a
uniform waypoint in the area and a uniform speed, walks there in
straight-line per-slot steps, then repeats.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

import numpy as np

from repro.constants import FEASIBILITY_EPS
from repro.types import NodeId


def _frozen(positions: np.ndarray) -> np.ndarray:
    positions.setflags(write=False)
    return positions


class MobilityModel(abc.ABC):
    """Interface: per-slot positions of every node."""

    @abc.abstractmethod
    def positions_at(self, slot: int) -> np.ndarray:
        """``(N, 2)`` positions of all nodes at the start of ``slot``.

        Must be callable with non-decreasing slots; calling twice with
        the same slot returns identical positions.
        """


class StaticMobility(MobilityModel):
    """No motion: the initial placement forever (the paper's setup)."""

    def __init__(self, positions: np.ndarray) -> None:
        self._positions = np.array(positions, dtype=float)

    def positions_at(self, slot: int) -> np.ndarray:
        del slot
        return self._positions.copy()


class RandomWaypointMobility(MobilityModel):
    """Random-waypoint motion for users; base stations stay fixed.

    All mobile nodes step at once over arrays.  Each step writes a new
    read-only ``(N, 2)`` array, so a gain view built over one slot's
    positions never changes afterwards.  The draws match per-node
    stepping exactly: legs are drawn as ``(x, y, speed)`` rows for the
    arriving nodes in ``mobile`` order, and the distance to the waypoint
    is ``(dx*dx + dy*dy) ** 0.5`` (``np.float_power``, not ``np.sqrt``,
    which rounds differently on a small share of values).

    Args:
        initial: ``(N, 2)`` starting positions of all nodes.
        mobile: ids of the nodes that move (users).
        area_side_m: the square deployment area.
        speed_range_mps: uniform speed draw per leg (m/s).
        slot_seconds: slot duration (step length = speed * slot).
        rng: generator for waypoints and speeds.
    """

    def __init__(
        self,
        initial: np.ndarray,
        mobile: Sequence[NodeId],
        area_side_m: float,
        speed_range_mps: Tuple[float, float],
        slot_seconds: float,
        rng: np.random.Generator,
    ) -> None:
        low, high = speed_range_mps
        if not 0 <= low <= high:
            raise ValueError(f"bad speed range {speed_range_mps!r}")
        if area_side_m <= 0:
            raise ValueError(f"area must be positive, got {area_side_m}")
        self._positions = _frozen(np.array(initial, dtype=float))
        self._mobile = np.asarray(list(mobile), dtype=np.intp)
        self._area = area_side_m
        self._speeds = speed_range_mps
        self._slot_seconds = slot_seconds
        self._rng = rng
        self._last_slot = -1
        #: Per-mobile-node ``(x, y, speed)`` legs, in ``mobile`` order.
        self._legs = self._new_legs(self._mobile.shape[0])

    def _new_legs(self, count: int) -> np.ndarray:
        low, high = self._speeds
        return self._rng.uniform(
            [0.0, 0.0, low], [self._area, self._area, high], size=(count, 3)
        )

    def _step(self) -> None:
        current = self._positions[self._mobile]
        waypoint = self._legs[:, :2]
        step = self._legs[:, 2] * self._slot_seconds
        delta = current - waypoint
        distance = np.float_power(
            delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1], 0.5
        )
        arrived = (distance <= step) | (np.abs(distance) <= FEASIBILITY_EPS)
        moving = ~arrived
        fraction = step[moving] / distance[moving]
        moved = current.copy()
        moved[moving] = current[moving] + fraction[:, None] * (
            waypoint[moving] - current[moving]
        )
        moved[arrived] = waypoint[arrived]
        positions = self._positions.copy()
        positions[self._mobile] = moved
        self._positions = _frozen(positions)
        if arrived.any():
            self._legs[arrived] = self._new_legs(int(arrived.sum()))

    def positions_at(self, slot: int) -> np.ndarray:
        if slot < self._last_slot:
            raise ValueError(
                f"mobility cannot rewind: asked for slot {slot} after "
                f"{self._last_slot}"
            )
        while self._last_slot < slot:
            self._last_slot += 1
            if self._last_slot == 0:
                continue  # slot 0 uses the initial placement
            self._step()
        return self._positions
