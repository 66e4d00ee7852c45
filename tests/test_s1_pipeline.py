"""S1 pipeline pins: per-kind trajectory fingerprints and input parity.

Every ``SchedulerKind`` runs through one pipeline — candidate arrays,
a selector, batched Foschini–Miljanic power control.  The fingerprints
below pin multi-slot trajectories (transmissions with their float
powers, the dropped list, the final Q/H/z) so any refactor of that
pipeline must stay bit-identical.  Each trajectory is pinned for both
state classes: the array-backed state hands S1 a ``LinkArrayMapping``,
the reference state a plain dict.

When a change is intentional, print the new digests with
``_fingerprint`` and update them together with a changelog note.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.control import LinkScheduler
from repro.core.arraystate import LinkArrayMapping
from repro.sim import SlotSimulator
from repro.state import NetworkState, ReferenceNetworkState
from repro.types import SchedulerKind

SF = SchedulerKind.SEQUENTIAL_FIX
SF_SINR = SchedulerKind.SEQUENTIAL_FIX_SINR
MATCHING = SchedulerKind.MAX_WEIGHT_MATCHING
GREEDY = SchedulerKind.GREEDY


def _multi_radio(**kwargs):
    params = tiny_scenario(**kwargs)
    return dataclasses.replace(
        params, bs_node=dataclasses.replace(params.bs_node, num_radios=3)
    )


def _dynamic(**kwargs):
    params = tiny_scenario(**kwargs)
    return dataclasses.replace(
        params,
        spectrum=dataclasses.replace(
            params.spectrum,
            dynamic_availability=True,
            availability_on_prob=0.5,
            availability_persistence=0.8,
        ),
    )


SCENARIOS = {
    "tiny": lambda: tiny_scenario(num_slots=20),
    "dense": lambda: tiny_scenario(num_users=14, num_slots=12),
    "multi_radio": lambda: _multi_radio(num_slots=20),
    "dynamic": lambda: _dynamic(num_slots=20),
}

#: sha256 of the trajectory record built by ``_fingerprint``.
FINGERPRINTS = {
    ("tiny", SF): (
        "77838dbebd668166a19a342ed328c31a2e61614a25f61607c72040003d772f00"
    ),
    ("tiny", SF_SINR): (
        "32bb26cbd8c7e981cbc5c887839ac469d2a460c37b9a1d59ac21a759b9563f9d"
    ),
    ("tiny", MATCHING): (
        "21c8dde8cf974ae4e808dedf4838e013def7ee7f37e41328439378d9c234844c"
    ),
    ("tiny", GREEDY): (
        "bcf6fdf1cabb0c782223d66492d3689cab894ef57fb21a3b8ade76c413d90f09"
    ),
    ("dense", SF): (
        "f0bf54b218c0b9e1b4edc8a8190587684ca492cba0968a24dd8d0229eada4dc4"
    ),
    ("dense", MATCHING): (
        "2e29e00a8c84d9117ba44ec07e90a469d62ad84844a2f697d51cec7a0544ef0c"
    ),
    ("dense", GREEDY): (
        "05e5bb10c9d7f4179290dd2f70ee0961a3769676cfd3fcb4f04541bb3011a5b4"
    ),
    ("multi_radio", SF_SINR): (
        "aa8f8724148ed607f3b7a50ba4534b32b47c26728a7a94c85dbc78366ffc2e35"
    ),
    ("multi_radio", GREEDY): (
        "c2bbb0186d50a0cffa4929ff4a1e1123d6a8ad5b05009610dfe1386ce78949a0"
    ),
    ("dynamic", SF): (
        "44e153ef66879bdb88429d2d6b3d06fc1733da39abc8b589ba5f27d67605edbd"
    ),
    ("dynamic", SF_SINR): (
        "bf4d2f0a3307b9a8354e9904414daa273f9a4ae4a513bb2a05253331ec4ff594"
    ),
    ("dynamic", MATCHING): (
        "908d8a3e59fbdec6df9813764a81178b890dbba0a85fc0cd3d174c64b0b6cdab"
    ),
    ("dynamic", GREEDY): (
        "c60498cfe3f02ebac360d4ccdc4a4199eb4697384719fcef085ed1e9d1e88e4b"
    ),
}


def _fingerprint(scenario, kind, state_cls=NetworkState):
    params = SCENARIOS[scenario]()
    sim = SlotSimulator.integral(params, scheduler_kind=kind, state_cls=state_cls)
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
    return hashlib.sha256("\n".join(record).encode()).hexdigest()


@pytest.mark.parametrize(
    "scenario,kind", list(FINGERPRINTS), ids=lambda v: getattr(v, "name", v)
)
@pytest.mark.parametrize(
    "state_cls", [NetworkState, ReferenceNetworkState], ids=["arrays", "reference"]
)
def test_trajectory_fingerprint(scenario, kind, state_cls):
    assert _fingerprint(scenario, kind, state_cls) == FINGERPRINTS[(scenario, kind)]


def _decision_record(decision):
    return (
        [(t.tx, t.rx, t.band, t.power_w) for t in decision.transmissions],
        list(decision.dropped),
        sorted(decision.link_service_pkts.items()),
    )


@pytest.mark.parametrize("kind", list(SchedulerKind), ids=lambda k: k.name)
@pytest.mark.parametrize("priced", [False, True], ids=["unpriced", "priced"])
def test_dict_and_array_backlogs_decide_identically(
    tiny_model, tiny_constants, tiny_state, kind, priced
):
    observation = tiny_state.observe(0)
    links = tiny_model.topology.candidate_links
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 80.0, len(links))
    values[::3] = 0.0  # below the backlog floor: never a candidate
    as_dict = {link: float(v) for link, v in zip(links, values)}
    as_array = LinkArrayMapping(
        values, links, {link: pos for pos, link in enumerate(links)}
    )
    prices = None
    if priced:
        prices = {node: 1e-3 * node for node in range(tiny_model.num_nodes)}
    forbidden = [links[1]]
    decisions = [
        LinkScheduler(tiny_model, tiny_constants, kind=kind).schedule(
            observation, h, forbidden_links=forbidden, energy_prices=prices
        )
        for h in (as_dict, as_array)
    ]
    assert decisions[0].transmissions
    assert _decision_record(decisions[0]) == _decision_record(decisions[1])
