import numpy as np
import pytest

from omcool.params import SystemParams
from omcool.polariton import hamiltonian_matrix, symplectic_form

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
def fock_checks(monkeypatch):
    """(trace error, hermiticity error, min eigenvalue) of every carried rho
    whose checks pass in ``_Generator.observe`` while the test runs, in call
    order: one row per Fock output sample."""
    from omcool._fock_engine import _Generator

    rows = []
    observe = _Generator.observe

    def recorded(self, buf, time):
        sample = observe(self, buf, time)
        rows.append(sample[-1])
        return sample

    monkeypatch.setattr(_Generator, "observe", recorded)
    return rows


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
def quad_moments():
    """(mu0, mu1) = the integrals of delta(t + s) and (s - h/2) delta(t + s)
    over s in [0, h], for a span's substep (t, h) in local time, by scipy's
    quad, with the ramp-table knots inside the substep as break points."""
    from scipy.integrate import quad

    def moments(span, t, h):
        def delta(s):
            return float(span.delta_values_local(np.array([t + s]))[0])

        knots = () if span.knots is None else span.duration * span.knots[0][1:-1] - t
        points = [k for k in knots if 0.0 < k < h]
        opts = dict(points=points or None, limit=2 * len(points) + 50, epsabs=0.0, epsrel=1e-13)
        return (quad(delta, 0.0, h, **opts)[0],
                quad(lambda s: (s - 0.5 * h) * delta(s), 0.0, h, **opts)[0])

    return moments


@pytest.fixture
def rng():
    return np.random.default_rng(20240711)


def _reference_drift_diffusion(params, delta, target=None, amplitude=0.0):
    """(A, D) of the moment equations, built from the quadratic Hamiltonian.

    A = J H - diag(rates)/2 with H = z^T H z / 2 over (a, b, targets...):
    the (a, b) pair's ``hamiltonian_matrix``, each target rotating at its
    detuning and, with ``target`` set, the beam splitter
    amplitude (x_b x_c + p_b p_c).  D = rate (n_bath + 1/2) per quadrature.
    """
    n = params.n_modes
    H = np.zeros((2 * n, 2 * n))
    H[:4, :4] = hamiltonian_matrix(delta, params.omega_b, params.g)
    for k, freq in enumerate(params.delta_targets):
        H[4 + 2 * k:6 + 2 * k, 4 + 2 * k:6 + 2 * k] = freq * np.eye(2)
    if target is not None:
        c = 4 + 2 * target
        H[2:4, c:c + 2] = H[c:c + 2, 2:4] = amplitude * np.eye(2)
    rates = np.repeat([params.kappa] + [params.gamma] * (n - 1), 2)
    baths = np.repeat([params.n_a, params.n_b, *params.n_targets], 2)
    return symplectic_form(n) @ H - np.diag(rates) / 2, np.diag(rates * (baths + 0.5))


@pytest.fixture
def reference_drift_diffusion():
    """Test-side (A, D) builder, independent of the engine's generator assembly."""
    return _reference_drift_diffusion
