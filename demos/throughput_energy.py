"""System throughput and energy efficiency in both service modes.

Delay-limited throughput pays for outages at fixed target rates;
delay-tolerant throughput follows the ergodic rates.  Both flatten at
high SNR, so energy efficiency collapses once transmit power keeps
rising against a capped throughput.
"""

from twrnoma import SIC_MODES, SystemConfig, metrics

SYSTEM_METRICS = ("throughput_dl", "throughput_dt", "ee_dl", "ee_dt")


def main():
    cfg = SystemConfig()
    dbs = range(0, 65, 10)
    # delay-tolerant values are the leakage-free closed forms, as in the
    # reference curves; metrics.analytic_grid applies that convention
    values = {m: metrics.analytic_grid(cfg, [10.0 ** (db / 10.0) for db in dbs],
                                       m, ("system",), SIC_MODES)
              for m in SYSTEM_METRICS}

    def system(metric, i, mode):
        return values[metric][i][mode, "system"][0]

    print(f"{'SNR dB':>6} {'mode':>6} {'T delay-lim':>12} {'T delay-tol':>12} "
          f"{'EE dl':>10} {'EE dt':>10}")
    for i, db in enumerate(dbs):
        for mode in SIC_MODES:
            dl, dt, ee_dl, ee_dt = (system(m, i, mode) for m in SYSTEM_METRICS)
            print(f"{db:>6} {mode:>6} {dl:>12.5f} {dt:>12.5f} "
                  f"{ee_dl:>10.5f} {ee_dt:>10.5f}")

    print("\nsaturation between 50 and 60 dB:")
    for mode in SIC_MODES:
        d50 = system("throughput_dt", dbs.index(50), mode)
        d60 = system("throughput_dt", dbs.index(60), mode)
        print(f"  delay-tolerant {mode}: {d50:.5f} -> {d60:.5f} "
              f"({abs(d60 - d50) / d50:.2%} change)")


if __name__ == "__main__":
    main()
