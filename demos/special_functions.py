"""Numerical backbone: exponential integral and the hypoexponential transform.

Checks Ei against scipy on both half-lines, then the Laplace transform
E[exp(-sZ)] of a sum Z of independent exponentials, the one quantity the
closed-form outages read: against a large simulated sample, and at tied
rates, where it stays exact with no rate separation.
"""

import math

import numpy as np
from scipy import integrate, special

from twrnoma import expint_ei, hypoexp_laplace


def check_ei():
    pts = [-30.0, -5.0, -0.5, -1e-4, 1e-4, 0.5, 5.0, 30.0]
    worst = 0.0
    for x in pts:
        mine = expint_ei(x)
        ref = special.expi(x)
        worst = max(worst, abs(mine - ref) / abs(ref))
    print(f"Ei vs scipy over {len(pts)} points: worst rel {worst:.2e}")


def check_laplace_sample():
    rates = (0.8, 2.0, 9.0)
    rng = np.random.default_rng(99)
    n = 500_000
    z = sum(rng.exponential(1.0 / lam, size=n) for lam in rates)
    print(f"rates {rates}: sample mean of exp(-sZ) over {n} draws")
    for s in (0.5, 2.0, 8.0):
        sample = np.exp(-s * z)
        half = 1.96 * sample.std() / math.sqrt(n)
        print(f"  s = {s}: transform {hypoexp_laplace(rates, s):.6f}  "
              f"sample {sample.mean():.6f} +- {half:.6f}")


def check_tie():
    # Z = Erlang(2, lam) + Exp(mu) has the density
    # lam^2 mu (e^{-mu z} - e^{-lam z} (1 + d z)) / d^2 with d = lam - mu
    lam, mu = 2.0, 5.0
    d = lam - mu

    def density(z):
        return lam * lam * mu * (math.exp(-mu * z)
                                 - math.exp(-lam * z) * (1.0 + d * z)) / (d * d)

    print(f"tied rates ({lam}, {lam}, {mu}): transform against the "
          "integral over the Erlang-stage density")
    for s in (0.5, 2.0, 8.0):
        ref, _ = integrate.quad(lambda z: math.exp(-s * z) * density(z),
                                0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        got = hypoexp_laplace((lam, lam, mu), s)
        print(f"  s = {s}: transform {got:.15f}  integral {ref:.15f}  "
              f"rel gap {abs(got - ref) / ref:.1e}")
    # no separation of near-equal rates: the product moves continuously
    for rel in (1e-6, 1e-12):
        near = hypoexp_laplace((lam, lam * (1.0 + rel), mu), 2.0)
        tied = hypoexp_laplace((lam, lam, mu), 2.0)
        print(f"  second rate {lam} (1 + {rel:.0e}): transform at s = 2 "
              f"moves by {abs(near - tied) / tied:.1e} relative")


if __name__ == "__main__":
    check_ei()
    check_laplace_sample()
    check_tie()
