"""The self-check battery's report."""

import dataclasses
import math

import pytest

from twrnoma import cli, ergodic, montecarlo
from twrnoma import validate as battery
from twrnoma.model import ConfigError, SystemConfig
from twrnoma.montecarlo import mc_grid


def test_a_raising_check_is_reported_under_its_own_name(monkeypatch):
    def broken(scale):
        raise ValueError("no expint today")

    monkeypatch.setattr(battery, "_check_expint", broken)
    report = battery.validate(SystemConfig())
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["expint_vs_scipy"]
    assert failed[0].line() == ("FAIL expint_vs_scipy: observed nan against "
                                "tolerance 0.000e+00 (ValueError: no expint today)")
    assert [r.name for r in report.results][:2] == ["outage_closed_vs_mc",
                                                    "outage_floor_vs_asymptote"]


def test_a_raising_pass_is_reported_under_each_simulation_check(monkeypatch):
    """The outage, rate and baseline checks share one pass; when it raises,
    each of them reports the error under its own name, and the other checks
    still run."""
    def broken(*args, **kwargs):
        raise RuntimeError("no draws today")

    monkeypatch.setattr(battery, "mc_grids", broken)
    report = battery.validate(SystemConfig(), iterations=2000)
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["outage_closed_vs_mc", "rate_closed_vs_mc",
                                        "oma_baseline_mc_vs_exact"]
    assert {r.detail for r in failed} == {"RuntimeError: no draws today"}


def test_too_few_iterations_are_refused_up_front():
    with pytest.raises(ConfigError, match="1000"):
        battery.validate(SystemConfig(), iterations=999)


def test_negative_seed_is_refused_up_front(monkeypatch):
    def unreachable(*args):
        raise AssertionError("no check may run")

    monkeypatch.setattr(battery, "_check_outage_vs_mc", unreachable)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        battery.validate(SystemConfig(), seed=-1)


@pytest.mark.parametrize("workers", [0, -3, 2.5, None])
def test_bad_worker_counts_are_refused_up_front(monkeypatch, workers):
    def unreachable(*args):
        raise AssertionError("no check may run")

    monkeypatch.setattr(battery, "_check_outage_vs_mc", unreachable)
    with pytest.raises(ConfigError, match="workers must be an int of at least 1"):
        battery.validate(SystemConfig(), workers=workers)


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


def _draw_sizes(monkeypatch):
    """The sizes of every NOMA draw and baseline fades draw, as they are made."""
    sizes = {"gains": [], "fades": []}
    draw, fades = montecarlo.sample_channel_draw, montecarlo._oma_fades

    def counting_draw(*args, **kwargs):
        sizes["gains"].append(kwargs["size"])
        return draw(*args, **kwargs)

    def counting_fades(config, stream, size):
        sizes["fades"].append(size)
        return fades(config, stream, size)

    monkeypatch.setattr(montecarlo, "sample_channel_draw", counting_draw)
    monkeypatch.setattr(montecarlo, "_oma_fades", counting_fades)
    return sizes


def test_outage_check_draws_once_for_all_three_snrs(monkeypatch):
    """The battery's one pass draws the gains once per chunk for the outage
    check's three SNRs and the rate check alike, and the baseline's fades
    once per chunk: 200 000 draws are two chunks."""
    sizes = _draw_sizes(monkeypatch)
    assert battery.validate(SystemConfig()).passed
    chunks = [montecarlo.CHUNK, 200_000 - montecarlo.CHUNK]
    assert sizes == {"gains": chunks, "fades": chunks}


def test_a_battery_draws_once_per_chunk(monkeypatch):
    """One chunk of 2000 draws: one gain draw and one fades draw serve the
    whole battery."""
    sizes = _draw_sizes(monkeypatch)
    battery.validate(SystemConfig(), iterations=2000)
    assert sizes == {"gains": [2000], "fades": [2000]}


def test_outage_check_reads_the_seed_alone_at_10_db():
    """The battery's three grids are those ``mc_grid`` gives each request
    alone at the same seed, bit for bit, and the outage check's 10 dB cells
    are the one-point estimates: a grid adds SNRs to a draw, it does not
    change the draw."""
    cfg = SystemConfig()
    outage, rate, oma = battery._simulate(cfg, 3000, 11, 1)
    assert (len(outage), len(rate), len(oma)) == (3, 1, 1)
    assert outage[0] == mc_grid(cfg, [10.0], 3000, 11, metric="outage",
                                targets=(1, 2), modes=("ipsic", "psic"))[0]
    assert rate == mc_grid(cfg.without_leakage(), [100.0], 3000, 11,
                           metric="ergodic_rate", targets=(1, 2), modes=("ipsic", "psic"))
    assert oma == mc_grid(cfg, [10.0], 3000, 11, metric="outage",
                          targets=(), modes=(), oma=True)


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
    assert battery.validate(config).passed
    assert len(built) <= 4


@pytest.mark.parametrize("seed", [battery.DEFAULT_VALIDATE_SEED, 1, 2])
def test_outage_check_passes_at_three_seeds(seed):
    """The outage, rate and baseline checks pass on the shared pass at the
    default 200 000 draws, where their bands are sized."""
    cfg, scale = SystemConfig(), battery.PROFILES["default"]
    outage, rate, oma = battery._simulate(cfg, 200_000, seed, 1)
    for passed, band, gap, _ in (battery._check_outage_vs_mc(cfg, scale, outage),
                                 battery._check_rate_vs_mc(cfg, scale, rate),
                                 battery._check_oma(cfg, scale, oma)):
        assert passed and 0.0 <= gap <= band


def test_rate_check_band_holds_at_2000_draws():
    """At 2000 draws three standard errors of a rate exceed 2% of it, and
    the band follows them: seeds 0..59 fail none, where a fixed 2% band
    failed 39.  A band of three standard errors still fails a healthy build
    now and then: 2 of seeds 0..299, at 3.8 and 3.1 of them."""
    cfg, scale = SystemConfig(), battery.PROFILES["default"]
    failed = []
    for seed in range(60):
        _, rate, _ = battery._simulate(cfg, 2000, seed, 1)
        passed, band, gap, _ = battery._check_rate_vs_mc(cfg, scale, rate)
        assert band > 0.02 and gap >= 0.0
        if not passed:
            failed.append(seed)
    assert len(failed) <= 3, failed


@pytest.mark.parametrize("profile", sorted(battery.PROFILES))
def test_rate_check_band_is_its_floor_at_the_default_draws(profile):
    """At 200 000 draws three standard errors stay under 2% of each rate, so
    the band is the 2% floor, scaled by the profile."""
    scale = battery.PROFILES[profile]
    _, rate, _ = battery._simulate(SystemConfig(), 200_000, battery.DEFAULT_VALIDATE_SEED, 1)
    assert battery._check_rate_vs_mc(SystemConfig(), scale, rate)[1] == 0.02 * scale


def test_verdict_reports_the_pair_furthest_outside_its_band():
    """One rule judges every check: the largest gap/band wins, the first of
    equals is kept, a zero band is passed by a zero gap alone, and a NaN
    gap or band is furthest out and fails."""
    assert battery._verdict([(1.0, 2.0), (3.0, 4.0), (1.5, 2.0)]) == (True, 4.0, 3.0)
    assert battery._verdict([(1.0, 2.0), (2.0, 4.0)]) == (True, 2.0, 1.0)
    assert battery._verdict([(0.0, 5.0), (0.0, 1.0)]) == (True, 5.0, 0.0)
    assert battery._verdict([(0.5, 1.0), (0.0, 0.0)]) == (True, 1.0, 0.5)
    assert battery._verdict([(0.5, 1.0), (1e-300, 0.0)]) == (False, 0.0, 1e-300)
    assert battery._verdict([(3.0, 1.0)]) == (False, 1.0, 3.0)
    passed, band, gap = battery._verdict([(3.0, 1.0), (math.nan, 2.0), (5.0, 1.0)])
    assert (passed, band) == (False, 2.0) and math.isnan(gap)
    passed, band, gap = battery._verdict([(0.0, 1.0), (0.0, math.nan)])
    assert (passed, gap) == (False, 0.0) and math.isnan(band)


def _nan_values(real):
    """``analytic_grid`` with every value and asymptote NaN."""
    def grid(*args, **kwargs):
        return [{key: (math.nan, math.nan, feasible) for key, (_, _, feasible) in point.items()}
                for point in real(*args, **kwargs)]
    return grid


# each closed form or reference the battery reads, and the checks that read
# it, in the battery's order
NAN_SOURCES = {
    "analytic_grid": ("outage_closed_vs_mc", "outage_floor_vs_asymptote",
                      "diversity_order_zero", "psic_limit_recovery", "rate_closed_vs_mc",
                      "throughput_ceiling", "energy_efficiency_modes"),
    "ergodic_rate_strong_quadrature": ("strong_rate_closed_vs_quadrature",),
    "expint_ei": ("expint_vs_scipy",),
    "hypoexp_laplace": ("hypoexp_laplace_vs_mc",),
    "oma_outage_exact": ("oma_baseline_mc_vs_exact",),
}


@pytest.mark.parametrize("source", sorted(NAN_SOURCES))
def test_a_nan_fails_every_check_that_reads_it(monkeypatch, capsys, source):
    """A NaN from any source fails each check that reads it, reported as
    observed nan, and the battery exits 2; every other check still passes."""
    real = getattr(battery, source)
    monkeypatch.setattr(battery, source, _nan_values(real) if source == "analytic_grid"
                        else lambda *args, **kwargs: math.nan)
    assert cli.main(["validate", "--iterations", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL {name}" for name in NAN_SOURCES[source]]
    assert all(line.split(": ", 1)[1].startswith("observed nan against") for line in failed)
    assert len(lines) == 12 and lines[-1] == (f"profile default: {len(failed)} "
                                              f"check(s) failed")
