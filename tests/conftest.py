"""Shared fixtures: one cheap calibration per test session."""

from __future__ import annotations

import pytest

from repro.hw import HardwareGpu
from repro.micro import calibrate
from repro.model import PerformanceModel

#: Reduced warp grid keeps session calibration fast while covering the
#: knee and the saturated region of every curve.
TEST_WARP_COUNTS = (1, 2, 4, 6, 8, 12, 16, 24, 32)


@pytest.fixture(scope="session")
def gpu() -> HardwareGpu:
    return HardwareGpu()


@pytest.fixture(scope="session")
def tables(gpu):
    return calibrate(gpu, warp_counts=TEST_WARP_COUNTS, iterations=30)


@pytest.fixture(scope="session")
def model(tables) -> PerformanceModel:
    return PerformanceModel(tables)
