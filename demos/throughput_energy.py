"""System throughput and energy efficiency in both service modes.

Delay-limited throughput pays for outages at fixed target rates;
delay-tolerant throughput follows the ergodic rates.  Both flatten at
high SNR, so energy efficiency collapses once transmit power keeps
rising against a capped throughput.
"""

from twrnoma import SIC_MODES, SystemConfig, metrics

SYSTEM_METRICS = ("throughput_dl", "throughput_dt", "ee_dl", "ee_dt")


def system(cfg, metric, rho, mode):
    # delay-tolerant values are the leakage-free closed forms, as in the
    # reference curves; metrics.analytic applies that convention
    return metrics.analytic(cfg.with_rho(rho), metric, "system", mode)[0]


def main():
    cfg = SystemConfig()

    print(f"{'SNR dB':>6} {'mode':>6} {'T delay-lim':>12} {'T delay-tol':>12} "
          f"{'EE dl':>10} {'EE dt':>10}")
    for db in range(0, 65, 10):
        rho = 10.0 ** (db / 10.0)
        for mode in SIC_MODES:
            dl, dt, ee_dl, ee_dt = (system(cfg, m, rho, mode)
                                    for m in SYSTEM_METRICS)
            print(f"{db:>6} {mode:>6} {dl:>12.5f} {dt:>12.5f} "
                  f"{ee_dl:>10.5f} {ee_dt:>10.5f}")

    print("\nsaturation between 50 and 60 dB:")
    for mode in SIC_MODES:
        d50 = system(cfg, "throughput_dt", 1e5, mode)
        d60 = system(cfg, "throughput_dt", 1e6, mode)
        print(f"  delay-tolerant {mode}: {d50:.5f} -> {d60:.5f} "
              f"({abs(d60 - d50) / d50:.2%} change)")


if __name__ == "__main__":
    main()
