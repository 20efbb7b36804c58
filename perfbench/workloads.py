"""Scenario documents for the benchmark workloads, built from a seed.

The seed goes into ``sim.seed`` and nowhere else, so every workload is a
pure function of (name, seed, size).  ``size`` is the frame count; the
duration-bounded workload converts it into the ``duration_ns`` that
generates exactly that many frames.
"""

from __future__ import annotations

CAMERA_1MPX = {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000}

# 32 KiB frames at 8 Gb/s: the frame period is exactly 32,768 ns.
CAMERA_32K = {"resolution_pixels": 32_768, "bit_depth": 8, "frame_rate": 30517.578125}
PERIOD_32K_NS = 32_768


def _pcie(generation: int, lanes: int) -> dict:
    return {
        "kind": "pcie",
        "generation": generation,
        "lanes": lanes,
        "cable_length_m": 0.0,
        "protocol_efficiency": 1.0,
    }


def direct_steady(seed: int, size: int) -> dict:
    return {
        "schema_version": 1,
        "name": "direct-steady",
        "camera": CAMERA_1MPX,
        "architecture": "direct",
        "pcie": _pcie(5, 16),
        "camera_buffer_forwarding": "cut_through",
        "clock": {"offset_ns": 0.0, "drift_ppm": 0.0, "jitter_sigma_ns": 20.0},
        "processing_time_ns": {"distribution": "uniform", "low_ns": 20_000, "high_ns": 60_000},
        "sim": {"seed": seed, "n_frames": size, "drop_policy": "drop_newest"},
    }


def classic_congested(seed: int, size: int) -> dict:
    return {
        "schema_version": 1,
        "name": "classic-congested",
        "camera": CAMERA_1MPX,
        "architecture": "classic",
        "camera_interface": {
            "kind": "camera_link",
            "config": "full",
            "cable_length_m": 0.0,
            "protocol_efficiency": 1.0,
        },
        "pcie": _pcie(3, 4),
        "camera_buffer_capacity_bytes": 64 * 2**20,
        "camera_buffer_forwarding": "store_and_forward",
        "sim": {"seed": seed, "n_frames": size, "drop_policy": "drop_newest"},
    }


def overload_oldest(seed: int, size: int) -> dict:
    return {
        "schema_version": 1,
        "name": "overload-oldest",
        "camera": CAMERA_32K,
        "architecture": "classic",
        "camera_interface": _pcie(1, 4),
        "pcie": _pcie(1, 2),
        "grabber_capacity_bytes": 2**20,
        "processing_time_ns": {"distribution": "normal", "mean_ns": 20_000.0, "sigma_ns": 2_000.0},
        "deadlines": {"safety_ns": 10**9, "control_ns": 10**10, "timestamp_rms_ns": 50.0},
        # Frames are generated at k * period for every k * period <= duration.
        "sim": {"seed": seed, "duration_ns": size * PERIOD_32K_NS - 1, "drop_policy": "drop_oldest"},
    }


SCENARIOS = {
    "direct-steady": direct_steady,
    "classic-congested": classic_congested,
    "overload-oldest": overload_oldest,
}

# A run ends with violations (exit code 2) only where the chain is congested.
EXPECTED_EXIT = {"direct-steady": 0, "classic-congested": 2, "overload-oldest": 0}
