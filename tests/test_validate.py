"""The self-check battery's report."""

import pytest

from twrnoma import validate as battery
from twrnoma.model import ConfigError, SystemConfig


def test_a_raising_check_is_reported_under_its_own_name(monkeypatch):
    def broken(scale):
        raise ValueError("no expint today")

    monkeypatch.setattr(battery, "_check_expint", broken)
    report = battery.validate(SystemConfig(), iterations=2000)
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["expint_vs_scipy"]
    assert failed[0].line() == ("FAIL expint_vs_scipy: observed nan against "
                                "tolerance 0.000e+00 (ValueError: no expint today)")
    assert [r.name for r in report.results][:2] == ["outage_closed_vs_mc",
                                                    "outage_floor_vs_asymptote"]


def test_too_few_iterations_are_refused_up_front():
    with pytest.raises(ConfigError, match="1000"):
        battery.validate(SystemConfig(), iterations=999)


def test_negative_seed_is_refused_up_front(monkeypatch):
    def unreachable(*args):
        raise AssertionError("no check may run")

    monkeypatch.setattr(battery, "_check_outage_vs_mc", unreachable)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        battery.validate(SystemConfig(), seed=-1)


@pytest.mark.parametrize("seed", [battery.DEFAULT_VALIDATE_SEED, 1, 2])
@pytest.mark.parametrize("profile", sorted(battery.PROFILES))
def test_laplace_check_passes_at_three_seeds(seed, profile):
    passed, band, gap, _ = battery._check_laplace(battery.PROFILES[profile], seed)
    assert passed and 0.0 <= gap <= band


def test_laplace_check_catches_a_wrong_transform(monkeypatch):
    """Dropping one rate's factor, or mishandling the tie or the empty
    sum, moves the transform far outside the sample-mean band."""
    real = battery.hypoexp_laplace
    for wrong in (lambda rates, s: real(rates[:-1], s),
                  lambda rates, s: real(tuple(set(rates)), s),
                  lambda rates, s: real(rates, s) if rates else 0.0):
        monkeypatch.setattr(battery, "hypoexp_laplace", wrong)
        assert not battery._check_laplace(1.0, battery.DEFAULT_VALIDATE_SEED)[0]
