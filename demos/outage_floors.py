"""Outage behaviour of the two-way relay link across the SNR range.

Prints closed-form outage next to a seeded Monte Carlo estimate for the
near and far user in both SIC modes, then shows the high-SNR error
floors and the resulting zero diversity order.  Run with --iterations
to trade accuracy for speed.
"""

import argparse

from twrnoma import SIC_MODES, SystemConfig, diversity_order_estimate, mc_grid, metrics
from twrnoma.analysis import FLOOR_RHO


def sweep(cfg, n_mc, seed=1729):
    print(f"{'SNR dB':>6} {'sig':>4} {'mode':>6} {'closed':>12} "
          f"{'simulated':>12} {'ci half':>10}")
    grid = range(0, 45, 5)
    rhos = [10.0 ** (db / 10.0) for db in grid]
    # one closed-form call and one simulation serve every SNR, both signals
    # and both SIC modes
    closed = metrics.analytic_grid(cfg, rhos, "outage", (1, 2), SIC_MODES)
    grid_sims = mc_grid(cfg, rhos, n_mc, seed, workers=4,
                        metric="outage", targets=(1, 2), modes=SIC_MODES)
    for db, exact, sims in zip(grid, closed, grid_sims):
        for mode in SIC_MODES:
            for sig in (1, 2):
                est = sims[mode, sig]
                print(f"{db:>6} {sig:>4} {mode:>6} {exact[mode, sig][0]:>12.6f} "
                      f"{est.mean:>12.6f} {est.half_width_95:>10.2e}")


def floors(cfg):
    print("\nerror floors at 60 dB (exact vs asymptotic):")
    at60, at_floor = metrics.analytic_grid(cfg, (1e6, FLOOR_RHO), "outage", (1, 2),
                                           SIC_MODES, asymptotic=True)
    for mode in SIC_MODES:
        for sig in (1, 2):
            print(f"  x{sig} {mode}: exact {at60[mode, sig][0]:.6e}  "
                  f"floor {at_floor[mode, sig][1]:.6e}")

    rhos = [1e5, 1e6]
    values = metrics.analytic_grid(cfg, rhos, "outage", (1,), SIC_MODES)
    for mode in SIC_MODES:
        d = diversity_order_estimate(rhos, [point[mode, 1][0] for point in values])
        print(f"  diversity order, x1 {mode}: {d:+.4f}")


def oma_crossover(cfg):
    # the orthogonal baseline keeps its diversity, so it wins eventually
    print("\northogonal baseline comparison (system outage):")
    dbs = (10, 20, 30, 40)
    closed = metrics.analytic_grid(cfg, [10.0 ** (db / 10.0) for db in dbs], "outage",
                                   (1,), ("ipsic",), oma=True)
    for db, point in zip(dbs, closed):
        noma, oma = point["ipsic", 1][0], point["oma", "system"][0]
        tag = "noma ahead" if noma < oma else "baseline ahead"
        print(f"  {db} dB: noma x1 {noma:.5f}  baseline {oma:.5f}  ({tag})")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iterations", type=int, default=200_000)
    args = ap.parse_args()
    cfg = SystemConfig()
    sweep(cfg, args.iterations)
    floors(cfg)
    oma_crossover(cfg)
