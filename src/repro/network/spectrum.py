"""Spectrum bands: static access sets and stochastic bandwidths.

The paper models each band's bandwidth ``W_m(t)`` as a random process
observed at the start of every slot.  Band 0 is the fixed-bandwidth
cellular band that every node can access; the remaining bands have
i.i.d. uniform bandwidths, and each mobile user is granted access to a
random (static) subset of them, while base stations access all bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.exceptions import SpectrumError
from repro.types import BandId, NodeId


@dataclass(frozen=True)
class SpectrumBand:
    """Static description of one spectrum band.

    Attributes:
        band_id: dense integer id; 0 is the cellular band.
        fixed_bandwidth_hz: bandwidth if deterministic, else None.
        bandwidth_range_hz: (low, high) of the uniform draw if random.
    """

    band_id: BandId
    fixed_bandwidth_hz: float = 0.0
    bandwidth_range_hz: Tuple[float, float] = (0.0, 0.0)

    @property
    def is_random(self) -> bool:
        """True when the bandwidth is redrawn every slot."""
        return self.fixed_bandwidth_hz <= 0.0

    @property
    def max_bandwidth_hz(self) -> float:
        """Largest bandwidth this band can take in any slot."""
        if self.is_random:
            return self.bandwidth_range_hz[1]
        return self.fixed_bandwidth_hz


@dataclass(frozen=True)
class BandState:
    """Realised bandwidths ``W_m(t)`` for one slot."""

    slot: int
    bandwidths_hz: Tuple[float, ...]

    def bandwidth(self, band: BandId) -> float:
        """Bandwidth of ``band`` in this slot (Hz)."""
        if not 0 <= band < len(self.bandwidths_hz):
            raise SpectrumError(f"unknown band id {band}")
        return self.bandwidths_hz[band]


class MarkovBandAvailability:
    """Per-(user, band) Markov on/off availability (extension).

    The paper keeps each node's accessible set ``M_i`` static; its
    cognitive-radio references model primary-user activity that
    blocks a band at a location for stretches of time.  Each (user,
    random band) pair carries a two-state Markov chain: with
    probability ``persistence`` the state survives a slot, otherwise
    it resamples to "on" with probability ``on_prob``.  Base stations
    and the cellular band are never blocked.
    """

    def __init__(
        self,
        users: Iterable[NodeId],
        random_bands: Iterable[BandId],
        rng: np.random.Generator,
        on_prob: float = 0.7,
        persistence: float = 0.9,
    ) -> None:
        if not 0.0 <= on_prob <= 1.0:
            raise SpectrumError(f"on_prob must be in [0, 1], got {on_prob}")
        if not 0.0 <= persistence <= 1.0:
            raise SpectrumError(
                f"persistence must be in [0, 1], got {persistence}"
            )
        self._users = list(users)
        self._bands = list(random_bands)
        self._rng = rng
        self._on_prob = on_prob
        self._persistence = persistence
        self._state: Dict[Tuple[NodeId, BandId], bool] = {
            (user, band): bool(rng.random() < on_prob)
            for user in self._users
            for band in self._bands
        }
        self._last_slot = 0

    def advance_to(self, slot: int) -> None:
        """Step every chain forward to ``slot`` (monotone slots only)."""
        if slot < self._last_slot:
            raise SpectrumError(
                f"availability cannot rewind: slot {slot} after {self._last_slot}"
            )
        while self._last_slot < slot:
            self._last_slot += 1
            for key in self._state:
                if self._rng.random() >= self._persistence:
                    self._state[key] = bool(self._rng.random() < self._on_prob)

    def blocked(self, user: NodeId, band: BandId) -> bool:
        """True when the primary user currently occupies the band."""
        return not self._state.get((user, band), True)

    def mask(self, access: Dict[NodeId, FrozenSet[BandId]]) -> Dict[NodeId, FrozenSet[BandId]]:
        """Apply the current blocks to static access sets."""
        users = set(self._users)
        out: Dict[NodeId, FrozenSet[BandId]] = {}
        for node, bands in access.items():
            if node in users:
                out[node] = frozenset(
                    b for b in bands if not self.blocked(node, b)
                )
            else:
                out[node] = bands
        return out


class SpectrumModel:
    """Band population, per-node access sets, and the bandwidth process.

    Access sets are drawn once at construction (geography is static in
    the paper's model); bandwidths are redrawn from ``rng`` each slot.
    """

    def __init__(
        self,
        bands: List[SpectrumBand],
        access: Dict[NodeId, FrozenSet[BandId]],
        rng: np.random.Generator,
    ) -> None:
        if not bands:
            raise SpectrumError("at least one band is required")
        self._bands = tuple(bands)
        self._access = dict(access)
        self._rng = rng

    @property
    def bands(self) -> Tuple[SpectrumBand, ...]:
        """All bands ordered by id."""
        return self._bands

    @property
    def num_bands(self) -> int:
        """Number of bands ``M``."""
        return len(self._bands)

    def accessible_bands(self, node: NodeId) -> FrozenSet[BandId]:
        """``M_i``: bands node ``node`` may use."""
        try:
            return self._access[node]
        except KeyError:
            raise SpectrumError(f"node {node} has no spectrum access set") from None

    def access_sets(self) -> Dict[NodeId, FrozenSet[BandId]]:
        """A copy of every node's static access set."""
        return dict(self._access)

    def common_bands(self, tx: NodeId, rx: NodeId) -> FrozenSet[BandId]:
        """``M_i ∩ M_j``: bands usable on link ``(tx, rx)``."""
        return self.accessible_bands(tx) & self.accessible_bands(rx)

    def max_bandwidth_hz(self) -> float:
        """The largest bandwidth any band can realise (for ``beta``)."""
        return max(band.max_bandwidth_hz for band in self._bands)

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the generator driving the per-slot bandwidth draws.

        The model is built with the topology stream (which also draws
        the static access sets); the simulator re-seeds it with a
        dedicated environment child stream so band realisations stay
        aligned across configuration variants.
        """
        self._rng = rng

    def sample(self, slot: int) -> BandState:
        """Draw ``W_m(t)`` for one slot."""
        bandwidths = []
        for band in self._bands:
            if band.is_random:
                low, high = band.bandwidth_range_hz
                bandwidths.append(float(self._rng.uniform(low, high)))
            else:
                bandwidths.append(band.fixed_bandwidth_hz)
        return BandState(slot=slot, bandwidths_hz=tuple(bandwidths))


def build_spectrum_model(
    params: ScenarioParameters, rng: np.random.Generator
) -> SpectrumModel:
    """Construct the paper's spectrum population.

    Band 0 is the always-available cellular band; bands 1..M-1 are the
    random bands.  Base stations access every band; each user draws an
    independent Bernoulli(``user_band_access_prob``) access indicator
    per random band.
    """
    spectrum = params.spectrum
    bands: List[SpectrumBand] = [
        SpectrumBand(band_id=0, fixed_bandwidth_hz=spectrum.cellular_bandwidth_hz)
    ]
    for k in range(spectrum.num_random_bands):
        bands.append(
            SpectrumBand(
                band_id=1 + k,
                bandwidth_range_hz=spectrum.random_bandwidth_range_hz,
            )
        )

    all_bands = frozenset(band.band_id for band in bands)
    access: Dict[NodeId, FrozenSet[BandId]] = {}
    for bs in params.base_station_ids():
        access[bs] = all_bands
    for user in params.user_ids():
        granted = {0}
        for band in bands[1:]:
            if rng.random() < spectrum.user_band_access_prob:
                granted.add(band.band_id)
        access[user] = frozenset(granted)

    return SpectrumModel(bands=bands, access=access, rng=rng)
