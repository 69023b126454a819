"""The self-check battery's report."""

import dataclasses

import pytest

from twrnoma import ergodic, montecarlo
from twrnoma import validate as battery
from twrnoma.model import ConfigError, SystemConfig
from twrnoma.montecarlo import mc_grid


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


def test_rate_quadrature_check_catches_wrong_rate_intermediates(monkeypatch):
    """The quadrature builds its CCDF from the config's interference rates,
    not from compute_rate_intermediates, so an error there moves the closed
    form alone and the check sees it."""
    assert battery._check_rate_quadrature(SystemConfig(), 1.0)[0]
    real = ergodic.compute_rate_intermediates

    def skewed(config, idx, mode):
        inter = real(config, idx, mode)
        return dataclasses.replace(inter, lambda2=inter.lambda2 * 1.01)

    monkeypatch.setattr(ergodic, "compute_rate_intermediates", skewed)
    passed, band, gap, _ = battery._check_rate_quadrature(SystemConfig(), 1.0)
    assert not passed and gap > band


def test_outage_check_draws_once_for_all_three_snrs(monkeypatch):
    calls = []
    real = montecarlo.sample_channel_draw

    def counting(*args, **kwargs):
        calls.append(kwargs.get("size"))
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_channel_draw", counting)
    assert battery._check_outage_vs_mc(SystemConfig(), 1.0, 2000,
                                       battery.DEFAULT_VALIDATE_SEED, 1)[0]
    assert calls == [2000]
    # the whole battery draws channels for the outage and the rate check only
    calls.clear()
    assert battery.validate(SystemConfig(), iterations=2000).passed
    assert calls == [2000, 2000]


def test_outage_check_reads_point_index_zero_at_10_db(monkeypatch):
    """The 10 dB cells are the one-point estimates of point index 0, bit for
    bit: a grid adds SNRs to a draw, it does not change the draw."""
    grids = []
    real = battery.mc_grid

    def keep(*args, **kwargs):
        grids.append(real(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(battery, "mc_grid", keep)
    cfg = SystemConfig()
    battery._check_outage_vs_mc(cfg, 1.0, 3000, 11, 1)
    assert len(grids) == 1 and len(grids[0]) == 3
    assert grids[0][0] == mc_grid(cfg, [10.0], 3000, 11, point_index=0,
                                  metric="outage", targets=(1, 2),
                                  modes=("ipsic", "psic"))[0]


def test_battery_moves_the_snr_by_argument(monkeypatch):
    """The checks read the grid routes at their SNRs: a battery builds four
    configs, the residual-power variant, the leakage-free config of the
    rate simulation and one for each one-point route it checks (the
    quadrature reference and the baseline's closed form), not a copy per
    operating point."""
    built = []
    original = SystemConfig.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    config = SystemConfig()
    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    assert battery.validate(config, iterations=2000).passed
    assert len(built) <= 4


@pytest.mark.parametrize("seed", [battery.DEFAULT_VALIDATE_SEED, 1, 2])
def test_outage_check_passes_at_three_seeds(seed):
    passed, band, gap, _ = battery._check_outage_vs_mc(
        SystemConfig(), battery.PROFILES["default"], 200_000, seed, 1)
    assert passed and 0.0 <= gap <= band
