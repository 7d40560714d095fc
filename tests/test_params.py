import dataclasses

import pytest

from omcool.errors import StabilityError
from omcool.params import MeanFieldInputs, SystemParams, mean_field_reduce


class TestMeanFieldReduce:
    def test_no_drive(self):
        out = mean_field_reduce(MeanFieldInputs(alpha_in=0.0, g0=1.0, omega_b=1.0,
                                                delta_bare=-1.0))
        assert out == (0.0, 0.0, 0.0, -1.0)

    def test_direct_substitution(self):
        out = mean_field_reduce(MeanFieldInputs(alpha_in=-2.0, g0=0.1, omega_b=1.0,
                                                delta_bare=-2.0))
        assert out.alpha == pytest.approx(1.0, rel=1e-14)
        assert out.beta == pytest.approx(-0.1, rel=1e-14)
        assert out.g == pytest.approx(0.1, rel=1e-14)
        assert out.delta == pytest.approx(-1.98, rel=1e-14)

    def test_direct_substitution_second_point(self):
        out = mean_field_reduce(MeanFieldInputs(alpha_in=-10.0, g0=0.02, omega_b=2.0,
                                                delta_bare=-5.0))
        assert out.alpha == pytest.approx(2.0, rel=1e-14)
        assert out.beta == pytest.approx(-0.04, rel=1e-14)
        assert out.g == pytest.approx(0.04, rel=1e-14)
        assert out.delta == pytest.approx(-4.9984, rel=1e-14)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="delta_bare"):
            MeanFieldInputs(alpha_in=1.0, g0=0.1, omega_b=1.0, delta_bare=0.0)


class TestSystemParams:
    def good(self, **over):
        kwargs = dict(omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5,
                      n_b=2.0, delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
                      delta_targets=(2000.0,), n_targets=(12.0,))
        kwargs.update(over)
        return SystemParams(**kwargs)

    def test_accepts_reference_point(self):
        p = self.good()
        assert p.n_modes == 3
        assert p.mode_labels == ("a", "b", "c")

    def test_detuning_ordering_enforced(self):
        with pytest.raises(ValueError, match="delta_i < delta_f < 0"):
            self.good(delta_i=-600.0, delta_f=-6000.0)
        with pytest.raises(ValueError, match="delta_i < delta_f < 0"):
            self.good(delta_f=1.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            self.good(kappa=-1.0)
        with pytest.raises(ValueError):
            self.good(gamma=-0.1)

    def test_zero_rates_allowed_for_dissipation_free_checks(self):
        p = self.good(kappa=0.0, gamma=0.0)
        assert p.kappa == 0.0

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            self.good(n_a=-0.1)
        with pytest.raises(ValueError):
            self.good(n_targets=(-1.0,))

    def test_stability_enforced_at_final_detuning(self):
        # limit at delta_f=-600, omega_b=2000 is 0.5*sqrt(1.2e6) ~ 547.7
        with pytest.raises(StabilityError, match="-600"):
            self.good(g=600.0)

    def test_target_list_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            self.good(delta_targets=(2000.0, 3000.0))

    @pytest.mark.parametrize("field", ["omega_b", "g", "kappa", "gamma", "n_a", "n_b",
                                       "omega_0", "delta_targets", "n_targets"])
    def test_non_finite_rejected(self, field):
        for bad in (float("nan"), float("inf")):
            value = (bad,) if field in ("delta_targets", "n_targets") else bad
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                self.good(**{field: value})

    def test_immutable(self):
        p = self.good()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.g = 0.0
