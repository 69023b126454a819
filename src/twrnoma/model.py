"""System model for a two-way relay serving two NOMA user groups.

Two user pairs exchange messages through one half-duplex decode-and-forward
relay in two slots.  Slot 1 is an uplink NOMA phase (both groups transmit to
the relay), slot 2 a downlink NOMA phase (the relay broadcasts the re-encoded
superpositions).  All links are quasi-static Rayleigh, so the channel power
gains |h_i|^2 are exponentially distributed with means Omega_i = d_i^-alpha,
and reciprocity makes the slot-1 and slot-2 coefficients of a given user
identical within a block.

Imperfect SIC is modelled two ways:

* cross-antenna leakage at the relay (level ``varpi1``) and at the user nodes
  (level ``varpi2``), always present when the levels are nonzero;
* a residual channel g (variance ``omega_I``) left behind by the SIC stage,
  active only in ipSIC mode (epsilon = 1) and absent under pSIC (epsilon = 0).

This module owns the configuration record, the signal-index convention,
the SINR thresholds of a target rate, the channel sampler and the five SINR
expressions every other module consumes, evaluated for one pairing under
several SIC modes at once (``sinr_sets``) or under the config's own
(``sinr_set``), and the same expressions read as per-draw inverse critical
SNRs (``inverse_critical_snrs``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a named model invariant."""


# residual-SIC switch per mode: the residual channel is present under ipSIC
_EPSILON = {"ipsic": 1.0, "psic": 0.0}


def _positive(name, value):
    if not (value > 0) or not math.isfinite(value):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Every model parameter in one immutable record.

    ``rho`` is the linear transmit SNR.  It is stored linear; dB conversion
    happens once, at the command-line boundary.  ``a1..a4`` are the uplink
    power-allocation coefficients.  ``b1`` and ``b3`` are the downlink
    power shares of x1 and x3, the near users' signals, each in (0, 0.5).
    The far users' shares are not settable: ``b(2)`` is 1 - b1 and ``b(4)``
    is 1 - b3, so each downlink split sums to one and favours the far user.
    Nor are the link variances: ``omega(i)`` derives Omega_i = d^-alpha from
    the distance of user i (``d1`` for users 1 and 3, ``d2`` for users 2
    and 4), and the constructor refuses a distance whose d^-alpha is zero
    or not finite.  ``sic_mode`` is the mode of the single-mode routes;
    sweeps set it per row, and config files do not set it.

    ``t_slot``, ``pu_watts`` and ``pr_watts`` only matter for the energy
    efficiency metric and never enter the statistical model.
    """

    rho: float = 1.0
    a1: float = 0.8
    a2: float = 0.2
    a3: float = 0.8
    a4: float = 0.2
    b1: float = 0.2
    b3: float = 0.2
    varpi1: float = 0.01
    varpi2: float = 0.01
    omega_I: float = 0.01
    alpha: float = 2.0
    d1: float = 2.0
    d2: float = 10.0
    r1: float = 0.1
    r2: float = 0.01
    r3: float = 0.1
    r4: float = 0.01
    sic_mode: str = "ipsic"
    t_slot: float = 1.0
    pu_watts: float = 10.0
    pr_watts: float = 10.0

    def __post_init__(self):
        _positive("rho", self.rho)
        _positive("alpha", self.alpha)
        _positive("d1", self.d1)
        _positive("d2", self.d2)
        _positive("omega_I", self.omega_I)
        _positive("t_slot", self.t_slot)
        _positive("pu_watts", self.pu_watts)
        _positive("pr_watts", self.pr_watts)
        for i in (1, 2, 3, 4):
            _positive(f"a{i}", getattr(self, f"a{i}"))
            rate = getattr(self, f"r{i}")
            if rate < 0 or not math.isfinite(rate):
                raise ConfigError(f"r{i} must be a finite rate >= 0, got {rate!r}")
            try:
                oma_threshold(rate)     # the steepest threshold a rate sets
            except OverflowError:
                raise ConfigError(f"r{i} = {rate!r} is too large: the SINR "
                                  f"threshold 2^(5 r{i}) - 1 overflows") from None
        for name in ("b1", "b3"):
            share = getattr(self, name)
            if not 0.0 < share < 0.5:
                raise ConfigError(f"{name} must lie in (0, 0.5) so the far user "
                                  f"gets more downlink power, got {share!r}")
        for name in ("varpi1", "varpi2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v!r}")
        if self.sic_mode not in _EPSILON:
            raise ConfigError(f"sic_mode must be 'ipsic' or 'psic', got {self.sic_mode!r}")
        for user, name in ((1, "d1"), (2, "d2")):
            try:
                gain = self.omega(user)
            except OverflowError:
                gain = math.inf
            if not 0.0 < gain < math.inf:
                raise ConfigError(f"{name}^-alpha must be positive and finite, "
                                  f"got {name}={getattr(self, name)!r}, "
                                  f"alpha={self.alpha!r}")

    @property
    def epsilon(self) -> float:
        """SIC-mode switch: 1.0 under ipSIC, 0.0 under pSIC."""
        return _EPSILON[self.sic_mode]

    def a(self, i):
        return getattr(self, f"a{i}")

    def b(self, i):
        """Downlink power share of signal i; the far user's is 1 - b1 or 1 - b3."""
        if i in (2, 4):
            return 1.0 - getattr(self, f"b{i - 1}")
        return getattr(self, f"b{i}")

    def omega(self, i):
        """Mean gain of user i's link, d^-alpha of its distance."""
        return (self.d1 if i in (1, 3) else self.d2) ** -self.alpha

    def rate(self, i):
        return getattr(self, f"r{i}")

    def with_rho(self, rho: float) -> "SystemConfig":
        return dataclasses.replace(self, rho=rho)

    def with_mode(self, sic_mode: str) -> "SystemConfig":
        return dataclasses.replace(self, sic_mode=sic_mode)

    def without_leakage(self) -> "SystemConfig":
        """This config with both leakage levels at zero; self if they are."""
        if self.varpi1 == 0.0 and self.varpi2 == 0.0:
            return self
        return dataclasses.replace(self, varpi1=0.0, varpi2=0.0)


_STRONG_PAIRS = {(1, 3), (3, 1)}
_WEAK_PAIRS = {(2, 4), (4, 2)}


@dataclass(frozen=True)
class SignalIndex:
    """Which group's signal pair is under analysis.

    ``l`` is the stronger uplink signal the relay decodes first, ``k`` the
    near user of the receiving group, ``t`` the weaker signal decoded after
    SIC, ``r`` the far user that ultimately wants it.  Only (l, k) in
    {(1,3), (3,1)} combined with (t, r) in {(2,4), (4,2)} are constructible.
    """

    l: int
    k: int
    t: int
    r: int

    def __post_init__(self):
        if (self.l, self.k) not in _STRONG_PAIRS:
            raise ValueError(f"(l, k) must be one of {sorted(_STRONG_PAIRS)}, got ({self.l}, {self.k})")
        if (self.t, self.r) not in _WEAK_PAIRS:
            raise ValueError(f"(t, r) must be one of {sorted(_WEAK_PAIRS)}, got ({self.t}, {self.r})")

    @classmethod
    def for_signal(cls, signal: int) -> "SignalIndex":
        """Index tuple under which signal ``signal`` is analysed.

        Signals 1 and 3 are the strong members of their exchanges, signals
        2 and 4 the weak ones: a signal is its index's ``l`` when strong and
        its ``t`` when weak.  x1 and x2 travel toward group two, x3 and x4
        back the other way.
        """
        if signal in (1, 2):
            return cls(l=1, k=3, t=2, r=4)
        if signal in (3, 4):
            return cls(l=3, k=1, t=4, r=2)
        raise ValueError(f"signal must be 1..4, got {signal!r}")


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of the five channel power gains.

    ``g1..g4`` are the user-link gains |h_i|^2, ``gI`` the residual-SIC
    channel gain |g|^2.  Fields may be scalars or equal-shape arrays, every
    consumer broadcasts elementwise.
    """

    g1: object
    g2: object
    g3: object
    g4: object
    gI: object

    def gain(self, i):
        return getattr(self, f"g{i}")


@dataclass(frozen=True)
class SinrSet:
    """The five SINRs of one exchange, for a fixed SignalIndex.

    relay_strong      : relay decoding x_l, weak signal still superposed
    relay_weak        : relay decoding x_t after SIC of x_l
    near_decodes_weak : near user D_k stripping x_t before its own signal
    near_decodes_own  : D_k decoding x_l after that SIC step
    far_decodes_weak  : far user D_r decoding x_t directly
    """

    relay_strong: object
    relay_weak: object
    near_decodes_weak: object
    near_decodes_own: object
    far_decodes_weak: object


def gamma_threshold(rate_bpcu):
    """Linear SINR threshold for a target rate: 2^(2 R) - 1.

    The factor 2 in the exponent pays for the two-slot exchange.
    """
    if rate_bpcu < 0:
        raise ValueError(f"target rate must be >= 0, got {rate_bpcu!r}")
    return 2.0 ** (2.0 * rate_bpcu) - 1.0


def oma_threshold(rate_bpcu: float) -> float:
    """SNR threshold of the orthogonal baseline for a target rate: 2^(5 R) - 1.

    The baseline spends five slots on the exchange that NOMA does in two.
    It is the steepest threshold a rate sets, so a rate whose baseline
    threshold is finite has a finite ``gamma_threshold`` too.
    """
    return 2.0 ** (5.0 * rate_bpcu) - 1.0


def sample_channel_draw(config: SystemConfig, stream, size=None) -> ChannelDraw:
    """Draw the five exponential channel gains from ``stream``.

    ``stream`` is a numpy Generator.  With ``size=None`` the fields are
    scalars, otherwise arrays of that shape.  Identical stream state yields
    identical draws, which is what the reproducibility contract rests on.
    """
    return ChannelDraw(
        g1=stream.exponential(config.omega(1), size),
        g2=stream.exponential(config.omega(2), size),
        g3=stream.exponential(config.omega(3), size),
        g4=stream.exponential(config.omega(4), size),
        gI=stream.exponential(config.omega_I, size),
    )


def sinr_sets(config: SystemConfig, draw: ChannelDraw, idx: SignalIndex,
              modes) -> tuple:
    """Evaluate the five SINR expressions of one pairing under each SIC mode.

    With rho the transmit SNR, eps the SIC switch and w1, w2 the leakage
    levels, the uplink pair is

        relay_strong = rho a_l g_l / (rho a_t g_t + rho w1 (a_k g_k + a_r g_r) + 1)
        relay_weak   = rho a_t g_t / (eps rho gI + rho w1 (a_k g_k + a_r g_r) + 1)

    and the downlink triple is

        near_decodes_weak = rho g_k b_t / (rho g_k b_l + rho w2 g_k + 1)
        near_decodes_own  = rho g_k b_l / (eps rho gI + rho w2 g_k + 1)
        far_decodes_weak  = rho g_r b_t / (rho g_r b_l + rho w2 g_r + 1)

    The user-node leakage term scales the user's own gain, which is kept
    verbatim rather than reinterpreted as an independent cross link.

    Only the two residual-SIC denominators depend on the mode (eps is 1
    under "ipsic", 0 under "psic"), so every other term is formed once and
    the returned SinrSets, one per entry of ``modes`` in order, share those
    arrays.  Under pSIC the residual term is 0 * rho * gI, which adds
    exactly zero, so each set equals a one-mode evaluation bit for bit.
    Scalar and array gains are both accepted.
    """
    rho = config.rho
    a_l, a_k, a_t, a_r = (config.a(idx.l), config.a(idx.k),
                          config.a(idx.t), config.a(idx.r))
    b_l, b_t = config.b(idx.l), config.b(idx.t)
    g_l, g_k = draw.gain(idx.l), draw.gain(idx.k)
    g_t, g_r = draw.gain(idx.t), draw.gain(idx.r)

    cross = rho * config.varpi1 * (a_k * g_k + a_r * g_r)
    weak_up = rho * a_t * g_t
    relay_strong = rho * a_l * g_l / (weak_up + cross + 1.0)

    own_down = rho * g_k * b_l
    leak_k = rho * config.varpi2 * g_k
    near_decodes_weak = rho * g_k * b_t / (own_down + leak_k + 1.0)
    far_decodes_weak = (rho * g_r * b_t
                        / (rho * g_r * b_l + rho * config.varpi2 * g_r + 1.0))

    sets = []
    for mode in modes:
        residual = _EPSILON[mode] * rho * draw.gI
        sets.append(SinrSet(relay_strong, weak_up / (residual + cross + 1.0),
                            near_decodes_weak,
                            own_down / (residual + leak_k + 1.0),
                            far_decodes_weak))
    return tuple(sets)


def sinr_set(config: SystemConfig, draw: ChannelDraw, idx: SignalIndex) -> SinrSet:
    """The five SINRs of one pairing under the config's own SIC mode.

    The one-mode view of ``sinr_sets``, which holds the expressions.
    """
    return sinr_sets(config, draw, idx, (config.sic_mode,))[0]


def inverse_threshold(gamma):
    """1/gamma, and +inf for a zero target, which every positive SINR clears."""
    return 1.0 / gamma if gamma > 0 else math.inf


def inverse_critical_snrs(config: SystemConfig, draw: ChannelDraw,
                          idx: SignalIndex, modes) -> tuple:
    """Per draw, the inverse critical SNR of one pairing's two signals under
    each SIC mode.

    Every SINR of ``sinr_sets`` has the form rho A / (rho B + 1) with A and B
    free of rho, so it exceeds gamma exactly when 1/rho < A/gamma - B.  A
    signal's chain succeeds at rho exactly when 1/rho is below u, the least
    of these margins over its decodes; its critical SNR is rho* = 1/u, and
    +inf where u <= 0, when some decode fails at every SNR.  The strong
    signal x_l needs the relay's decode of x_l and both of the near user's
    decodes; the weak signal x_t needs the relay's two decodes, the near
    user's strip of x_t and the far user's decode.  ``config.rho`` is not
    read.

    Returns one (u_l, u_t) pair of arrays per entry of ``modes``; the terms
    no mode changes are formed once for all of them.
    """
    a_l, a_k, a_t, a_r = (config.a(idx.l), config.a(idx.k),
                          config.a(idx.t), config.a(idx.r))
    b_l, b_t = config.b(idx.l), config.b(idx.t)
    g_l, g_k = draw.gain(idx.l), draw.gain(idx.k)
    g_t, g_r = draw.gain(idx.t), draw.gain(idx.r)
    inv_l = inverse_threshold(gamma_threshold(config.rate(idx.l)))
    inv_t = inverse_threshold(gamma_threshold(config.rate(idx.t)))

    cross = config.varpi1 * (a_k * g_k + a_r * g_r)
    # the downlink decodes scale with the decoding user's own gain alone
    strip = b_t * inv_t - b_l - config.varpi2       # x_t beside x_l, per unit gain
    shared = np.minimum(a_l * inv_l * g_l - (a_t * g_t + cross),  # relay: x_l
                        strip * g_k)                              # D_k strips x_t
    weak_free = np.minimum(shared, strip * g_r)                   # D_r: x_t
    own = (b_l * inv_l - config.varpi2) * g_k                     # D_k: x_l
    relay_weak = a_t * inv_t * g_t - cross                        # relay: x_t
    pairs = []
    for mode in modes:
        residual = _EPSILON[mode] * draw.gI
        pairs.append((np.minimum(shared, own - residual),
                      np.minimum(weak_free, relay_weak - residual)))
    return tuple(pairs)
