import numpy as np
import pytest

from omcool.params import SystemParams

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for the acceptance suite's per-criterion result lines."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fig1_params():
    return SystemParams(
        omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5, n_b=2.0,
        delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
        delta_targets=(2000.0,), n_targets=(12.0,),
    )


@pytest.fixture
def small_params():
    return SystemParams(
        omega_b=10.0, g=2.0, kappa=8.0, gamma=0.5, n_a=0.1, n_b=0.2,
        delta_i=-30.0, delta_f=-3.0, omega_0=5.0,
        delta_targets=(10.0,), n_targets=(0.25,),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240711)
