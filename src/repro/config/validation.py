"""Scenario-parameter validation.

``validate_parameters`` performs every structural check that the rest of
the library relies on, raising :class:`ConfigurationError` with a message
naming the offending field.  The simulator calls it once at start-up, so
downstream modules may assume validated inputs.
"""

from __future__ import annotations

from typing import List

from repro.config.parameters import ScenarioParameters
from repro.constants import approx_eq
from repro.exceptions import ConfigurationError


def _positive(value: float, name: str, errors: List[str]) -> None:
    if not value > 0:
        errors.append(f"{name} must be positive, got {value!r}")


def _non_negative(value: float, name: str, errors: List[str]) -> None:
    if value < 0:
        errors.append(f"{name} must be non-negative, got {value!r}")


def _probability(value: float, name: str, errors: List[str]) -> None:
    if not 0.0 <= value <= 1.0:
        errors.append(f"{name} must be in [0, 1], got {value!r}")


def validate_parameters(params: ScenarioParameters) -> None:
    """Validate a scenario, raising ``ConfigurationError`` on failure.

    All violations are collected and reported together so a user fixing a
    hand-written scenario sees every problem at once.
    """
    errors: List[str] = []

    _positive(params.area_side_m, "area_side_m", errors)
    if params.num_users < 1:
        errors.append(f"num_users must be >= 1, got {params.num_users}")
    if params.num_base_stations < 1:
        errors.append("at least one base station position is required")
    for idx, pos in enumerate(params.base_station_positions):
        inside = (
            0.0 <= pos.x <= params.area_side_m
            and 0.0 <= pos.y <= params.area_side_m
        )
        if not inside:
            errors.append(
                f"base_station_positions[{idx}] = {pos} lies outside the "
                f"{params.area_side_m} m square area"
            )
    if params.user_positions is not None:
        if len(params.user_positions) != params.num_users:
            errors.append(
                f"user_positions has {len(params.user_positions)} entries "
                f"but num_users={params.num_users}"
            )
        for idx, pos in enumerate(params.user_positions):
            inside = (
                0.0 <= pos.x <= params.area_side_m
                and 0.0 <= pos.y <= params.area_side_m
            )
            if not inside:
                errors.append(
                    f"user_positions[{idx}] = {pos} lies outside the "
                    f"{params.area_side_m} m square area"
                )

    _positive(params.path_loss_exponent, "path_loss_exponent", errors)
    _positive(params.propagation_constant, "propagation_constant", errors)
    _positive(params.sinr_threshold, "sinr_threshold", errors)
    _positive(params.noise_density_w_per_hz, "noise_density_w_per_hz", errors)

    for label, node in (("user_node", params.user_node), ("bs_node", params.bs_node)):
        _positive(node.max_tx_power_w, f"{label}.max_tx_power_w", errors)
        _non_negative(node.recv_power_w, f"{label}.recv_power_w", errors)
        _non_negative(node.const_power_w, f"{label}.const_power_w", errors)
        _non_negative(node.idle_power_w, f"{label}.idle_power_w", errors)

    for label, energy in (
        ("user_energy", params.user_energy),
        ("bs_energy", params.bs_energy),
    ):
        _non_negative(energy.renewable_max_w, f"{label}.renewable_max_w", errors)
        _positive(energy.battery_capacity_j, f"{label}.battery_capacity_j", errors)
        _non_negative(energy.charge_cap_j, f"{label}.charge_cap_j", errors)
        _non_negative(energy.discharge_cap_j, f"{label}.discharge_cap_j", errors)
        _non_negative(energy.grid_cap_j, f"{label}.grid_cap_j", errors)
        _probability(energy.grid_connect_prob, f"{label}.grid_connect_prob", errors)

    if not approx_eq(params.bs_energy.grid_connect_prob, 1.0):
        errors.append(
            "bs_energy.grid_connect_prob must be 1.0: the paper assumes "
            "base stations are always grid-connected"
        )

    _non_negative(params.cost_a, "cost_a", errors)
    _non_negative(params.cost_b, "cost_b", errors)
    _non_negative(params.cost_c, "cost_c", errors)
    if params.cost_a == 0 and params.cost_b == 0:
        errors.append("cost function is identically constant (a = b = 0)")
    _positive(params.cost_energy_unit_j, "cost_energy_unit_j", errors)
    if params.tou_multipliers is not None:
        if not params.tou_multipliers:
            errors.append("tou_multipliers must be None or non-empty")
        elif any(m <= 0 for m in params.tou_multipliers):
            errors.append("tou_multipliers must all be positive")

    spectrum = params.spectrum
    _positive(spectrum.cellular_bandwidth_hz, "spectrum.cellular_bandwidth_hz", errors)
    if spectrum.num_random_bands < 0:
        errors.append(
            f"spectrum.num_random_bands must be >= 0, got {spectrum.num_random_bands}"
        )
    low, high = spectrum.random_bandwidth_range_hz
    if not 0 < low <= high:
        errors.append(
            "spectrum.random_bandwidth_range_hz must satisfy 0 < low <= high, "
            f"got {spectrum.random_bandwidth_range_hz!r}"
        )
    _probability(spectrum.user_band_access_prob, "spectrum.user_band_access_prob", errors)
    _probability(spectrum.availability_on_prob, "spectrum.availability_on_prob", errors)
    _probability(
        spectrum.availability_persistence,
        "spectrum.availability_persistence",
        errors,
    )

    sessions = params.sessions
    if sessions.num_sessions < 1:
        errors.append(f"sessions.num_sessions must be >= 1, got {sessions.num_sessions}")
    _positive(sessions.demand_kbps, "sessions.demand_kbps", errors)
    _positive(sessions.packet_size_bits, "sessions.packet_size_bits", errors)
    if sessions.num_sessions > params.num_users:
        errors.append(
            "each session needs a distinct destination user: "
            f"num_sessions={sessions.num_sessions} > num_users={params.num_users}"
        )
    if sessions.pattern_period_slots < 2:
        errors.append(
            "sessions.pattern_period_slots must be >= 2, got "
            f"{sessions.pattern_period_slots}"
        )

    _non_negative(params.control_v, "control_v", errors)
    _non_negative(params.admission_lambda, "admission_lambda", errors)
    _positive(params.slot_seconds, "slot_seconds", errors)
    if params.num_slots < 1:
        errors.append(f"num_slots must be >= 1, got {params.num_slots}")
    if params.neighbor_limit is not None and params.neighbor_limit < 1:
        errors.append(
            f"neighbor_limit must be >= 1 or None, got {params.neighbor_limit}"
        )
    if params.topology_mode != "sparse":
        errors.append(
            f"topology_mode must be 'sparse', got {params.topology_mode!r}"
        )
    low, high = params.user_speed_range_mps
    if not 0 <= low <= high:
        errors.append(
            f"user_speed_range_mps must satisfy 0 <= low <= high, got "
            f"{params.user_speed_range_mps!r}"
        )

    if errors:
        raise ConfigurationError(
            "invalid scenario parameters:\n  - " + "\n  - ".join(errors)
        )
