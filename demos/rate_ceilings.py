"""Ergodic rate routes and their high-SNR limits.

The strong signal has a closed form (validated here against direct
quadrature and simulation); the weak signal is integrated numerically.
At high SNR every curve saturates: the weak user hits a hard ceiling
and the strong user's asymptote levels off because uplink interference
from the paired signal never vanishes.
"""

from twrnoma import (SIC_MODES, SignalIndex, SystemConfig,
                     ergodic_rate_strong_asymptotic, ergodic_rate_strong_closed,
                     ergodic_rate_strong_quadrature,
                     ergodic_rate_weak_highsnr, ergodic_rate_weak_numeric,
                     high_snr_slope_estimate, mc_grid)

IDX1 = SignalIndex.for_signal(1)
IDX2 = SignalIndex.for_signal(2)


def rate_table(cfg):
    # one simulation serves every SNR: x1 and x2 read the same channel draws
    grid = (10, 20, 30)
    rhos = [10.0 ** (db / 10.0) for db in grid]
    grid_sims = mc_grid(cfg, rhos, 400_000, 7, workers=4,
                        metric="ergodic_rate", targets=(1, 2), modes=SIC_MODES)
    # the closed form, its quadrature reference and the weak integral are
    # one-point routes: each reads the SNR of its config
    points = [(db, cfg.with_rho(rho), sims) for db, rho, sims in zip(grid, rhos, grid_sims)]

    print("strong signal x1, bits/s/Hz (closed vs quadrature vs simulated):")
    for db, c, sims in points:
        for mode in SIC_MODES:
            closed = ergodic_rate_strong_closed(c, IDX1, mode)
            quad = ergodic_rate_strong_quadrature(c, IDX1, mode)
            sim = sims[mode, 1]
            print(f"  {db} dB {mode}: {closed:.6f}  {quad:.6f}  "
                  f"{sim.mean:.6f} (+/- {sim.half_width_95:.1e})")

    print("weak signal x2 (numeric integral vs simulated):")
    for db, c, sims in points:
        for mode in SIC_MODES:
            val = ergodic_rate_weak_numeric(c, IDX2, mode)
            print(f"  {db} dB {mode}: {val:.6f}  {sims[mode, 2].mean:.6f}")


def ceilings(cfg):
    print("\nhigh-SNR limits:")
    c50 = cfg.with_rho(1e5)
    ceiling = ergodic_rate_weak_highsnr(c50, IDX2, "ipsic")
    direct = ergodic_rate_weak_numeric(c50, IDX2, "ipsic")
    print(f"  weak ceiling (ipsic): {ceiling:.6f}  integral at 50 dB: "
          f"{direct:.6f}")
    for mode in SIC_MODES:
        asym = ergodic_rate_strong_asymptotic(c50, IDX1, mode)
        closed = ergodic_rate_strong_closed(c50, IDX1, mode)
        print(f"  strong asymptote ({mode}): {asym:.6f}  closed: {closed:.6f}")

    rhos = [1e5, 1e6]
    cs = [cfg.with_rho(r) for r in rhos]
    for mode in SIC_MODES:
        s = high_snr_slope_estimate(rhos, [ergodic_rate_strong_closed(c, IDX1, mode)
                                           for c in cs])
        w = high_snr_slope_estimate(rhos, [ergodic_rate_weak_numeric(c, IDX2, mode)
                                           for c in cs])
        print(f"  slope 50-60 dB ({mode}): strong {s:+.4f}, weak {w:+.4f}")


if __name__ == "__main__":
    # closed rate routes need the relay's residual leakage terms at zero
    cfg = SystemConfig().without_leakage()
    rate_table(cfg)
    ceilings(cfg)
