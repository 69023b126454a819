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

The SIC mode, like the SNR, is an operating point and not a config field:
every route that depends on it takes one of ``SIC_MODES`` as an argument.

This module owns the configuration record, the SIC modes, the signal-index
convention, the check of an SNR grid, the SINR thresholds of a target rate,
the channel sampler and the five SINR expressions the simulator reads: per
draw, for every SIC mode at once, as the rho-free (A, B) of each decode,
whose SINR is A / (B + 1/rho) at any SNR (``sinr_coefficients``), and as
inverse critical SNRs (``inverse_critical_snrs``), each mode's taken from
one residual-free margin base per pairing (``margin_base``).  ``sinr_set`` rebuilds
them under one mode, for the tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a named model invariant."""


SIC_MODES = ("ipsic", "psic")


def sic_epsilon(mode) -> float:
    """The residual-SIC switch eps of a mode, the one check of a mode name:
    the residual channel is present under ipSIC (1.0), absent under pSIC."""
    if mode not in SIC_MODES:
        raise ConfigError(f"SIC mode must be one of {SIC_MODES}, got {mode!r}")
    return 1.0 if mode == "ipsic" else 0.0


def is_linear_snr(rho) -> bool:
    """rho and 1/rho are positive and finite, as every A / (B + 1/rho) needs."""
    return 0.0 < rho < math.inf and 1.0 / rho < math.inf


def linear_snr_grid(rhos) -> np.ndarray:
    """``rhos`` as a one-dimensional float array, once it is a nonempty grid
    of linear SNRs (``is_linear_snr``); ValueError otherwise."""
    grid = np.asarray(rhos, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not all(map(is_linear_snr, grid.tolist())):
        raise ValueError("rhos must be a nonempty list of positive SNRs with "
                         "finite reciprocals")
    return grid


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
    or not finite.  ``rho`` must have a finite reciprocal as well.  The SIC
    mode is not a field: the routes that depend on it take it as an argument.

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
    t_slot: float = 1.0
    pu_watts: float = 10.0
    pr_watts: float = 10.0

    def __post_init__(self):
        if not is_linear_snr(self.rho):
            raise ConfigError(f"rho must be positive with a finite reciprocal, "
                              f"got {self.rho!r}")
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
        for user, name in ((1, "d1"), (2, "d2")):
            try:
                gain = self.omega(user)
            except OverflowError:
                gain = math.inf
            if not 0.0 < gain < math.inf:
                raise ConfigError(f"{name}^-alpha must be positive and finite, "
                                  f"got {name}={getattr(self, name)!r}, "
                                  f"alpha={self.alpha!r}")

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

    def without_leakage(self) -> "SystemConfig":
        """This config with both leakage levels at zero; self if they are."""
        if self.varpi1 == 0.0 and self.varpi2 == 0.0:
            return self
        return dataclasses.replace(self, varpi1=0.0, varpi2=0.0)


# (l, k, t, r) of the model's two pairings: x1 with x2, x3 with x4
_PAIRINGS = {(1, 3, 2, 4), (3, 1, 4, 2)}


@dataclass(frozen=True)
class SignalIndex:
    """Which group's signal pair is under analysis.

    ``l`` is the stronger uplink signal the relay decodes first, ``k`` the
    near user of the receiving group, ``t`` the weaker signal decoded after
    SIC, ``r`` the far user that ultimately wants it.  Only the model's two
    pairings, (l, k, t, r) = (1, 3, 2, 4) and (3, 1, 4, 2), are constructible.
    """

    l: int
    k: int
    t: int
    r: int

    def __post_init__(self):
        if (self.l, self.k, self.t, self.r) not in _PAIRINGS:
            raise ValueError(f"(l, k, t, r) must be one of {sorted(_PAIRINGS)}, "
                             f"got ({self.l}, {self.k}, {self.t}, {self.r})")

    @classmethod
    def for_signal(cls, signal: int) -> "SignalIndex":
        """Index tuple under which signal ``signal`` is analysed.

        Signals 1 and 3 are the strong members of their exchanges, signals
        2 and 4 the weak ones: a signal is its index's ``l`` when strong and
        its ``t`` when weak.  x1 and x2 travel toward group two, x3 and x4
        back the other way.
        """
        if signal in (1, 2):
            return _X1_X2
        if signal in (3, 4):
            return _X3_X4
        raise ValueError(f"signal must be 1..4, got {signal!r}")


# the two pairings, built once: ``for_signal`` hands out these instances
_X1_X2 = SignalIndex(l=1, k=3, t=2, r=4)
_X3_X4 = SignalIndex(l=3, k=1, t=4, r=2)


def mirror_sources(config: SystemConfig, signals) -> dict:
    """Each of ``signals`` mapped to the first of them in the same role (strong
    or weak) whose pairing has equal parameters: a, Omega, b and r of its
    (l, k, t, r), the only per-user fields a closed form or a decode reads.

    In a symmetric config x3 and x4 map to x1 and x2, whose values they
    equal bit for bit, since every route forms a signal's value from
    these parameters and the config-wide fields alone; a signal with no
    earlier match maps to itself.
    """
    first, sources = {}, {}
    for s in signals:
        idx = SignalIndex.for_signal(s)
        key = (s == idx.l, tuple((config.a(i), config.omega(i), config.b(i), config.rate(i))
                                 for i in (idx.l, idx.k, idx.t, idx.r)))
        sources[s] = first.setdefault(key, s)
    return sources


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


def sample_channel_draw(config: SystemConfig, stream, size: int,
                        unit=()) -> ChannelDraw:
    """Draw ``size`` of each of the five exponential channel gains from ``stream``.

    ``stream`` is a numpy Generator, and each field is an array of ``size``
    gains.  Identical stream state yields identical draws, which is what the
    reproducibility contract rests on.

    One standard-exponential call fills all five gains, g1's first, and each
    is scaled by its mean in place: the variates, their stream order and
    their values equal five ``stream.exponential(Omega, size)`` calls bit
    for bit, since numpy forms exponential(Omega) as Omega times a standard
    exponential.  The fields are the rows of one array.  The rows ``unit``
    names (0..4 for g1..g4, gI) keep unit mean, for a caller that scales
    them to several configs; one multiplication by a mean later gives the
    same bits.
    """
    scale = np.array([config.omega(1), config.omega(2), config.omega(3),
                      config.omega(4), config.omega_I])
    scale[list(unit)] = 1.0
    gains = stream.standard_exponential((5, size))
    gains *= scale.reshape(5, 1)
    return ChannelDraw(*gains)


def _pairing(config, draw, idx):
    """(a_l, a_k, a_t, a_r, b_l, b_t) and (g_l, g_k, g_t, g_r) of one pairing."""
    order = (idx.l, idx.k, idx.t, idx.r)
    return ((*(config.a(i) for i in order), config.b(idx.l), config.b(idx.t)),
            tuple(draw.gain(i) for i in order))


def sinr_set(config: SystemConfig, draw: ChannelDraw, idx: SignalIndex,
             mode: str) -> SinrSet:
    """The five SINRs of one pairing under SIC mode ``mode``.

    With rho the transmit SNR, eps the SIC switch and w1, w2 the leakage
    levels, the uplink pair is

        relay_strong = rho a_l g_l / (rho a_t g_t + rho w1 (a_k g_k + a_r g_r) + 1)
        relay_weak   = rho a_t g_t / (eps rho gI + rho w1 (a_k g_k + a_r g_r) + 1)

    and the downlink triple is

        near_decodes_weak = rho g_k b_t / (rho g_k b_l + rho w2 g_k + 1)
        near_decodes_own  = rho g_k b_l / (eps rho gI + rho w2 g_k + 1)
        far_decodes_weak  = rho g_r b_t / (rho g_r b_l + rho w2 g_r + 1)

    The user-node leakage term scales the user's own gain, which is kept
    verbatim rather than reinterpreted as an independent cross link.  Only
    the two residual-SIC denominators depend on the mode (eps is 1 under
    "ipsic", 0 under "psic").  Scalar and array gains are both accepted.

    No library route calls it: the tests check ``sinr_coefficients`` and
    ``inverse_critical_snrs`` against this independent per-draw rebuild.
    """
    rho = config.rho
    (a_l, a_k, a_t, a_r, b_l, b_t), (g_l, g_k, g_t, g_r) = _pairing(config, draw, idx)

    cross = rho * config.varpi1 * (a_k * g_k + a_r * g_r)
    weak_up = rho * a_t * g_t
    own_down = rho * g_k * b_l
    leak_k = rho * config.varpi2 * g_k
    residual = sic_epsilon(mode) * rho * draw.gI
    return SinrSet(
        relay_strong=rho * a_l * g_l / (weak_up + cross + 1.0),
        relay_weak=weak_up / (residual + cross + 1.0),
        near_decodes_weak=rho * g_k * b_t / (own_down + leak_k + 1.0),
        near_decodes_own=own_down / (residual + leak_k + 1.0),
        far_decodes_weak=rho * g_r * b_t / (rho * g_r * b_l + rho * config.varpi2 * g_r + 1.0))


def sinr_coefficients(config: SystemConfig, draw: ChannelDraw, idx: SignalIndex,
                      modes) -> tuple:
    """Per draw, the rho-free (A, B) of each decode in one pairing's two
    chains: every SINR of ``sinr_set`` is A / (B + 1/rho), and a chain's
    SINR is the least over its decodes.  ``config.rho`` is not read.

    Returns (mode_free, per_mode).  mode_free holds the strong chain's relay
    decode of x_l, (a_l g_l, a_t g_t + cross), and the weak chain's strips
    of x_t, b_t g / ((b_l + w2) g + 1/rho) at g = g_k and g_r, which rises
    with g and so folds into (b_t m, (b_l + w2) m) on m = min(g_k, g_r).
    per_mode holds, per mode, the near user's own decode (b_l g_k,
    eps gI + w2 g_k) and the relay's decode of x_t (a_t g_t, eps gI + cross),
    cross = w1 (a_k g_k + a_r g_r); arrays no mode changes are shared.
    """
    (a_l, a_k, a_t, a_r, b_l, b_t), (g_l, g_k, g_t, g_r) = _pairing(config, draw, idx)
    cross = config.varpi1 * (a_k * g_k + a_r * g_r)
    weak_up = a_t * g_t
    weaker = np.minimum(g_k, g_r)
    mode_free = ((a_l * g_l, weak_up + cross),
                 (b_t * weaker, (b_l + config.varpi2) * weaker))
    own_down, leak_k = b_l * g_k, config.varpi2 * g_k
    per_mode = tuple(((own_down, draw.gI + leak_k), (weak_up, draw.gI + cross))
                     if sic_epsilon(mode) else ((own_down, leak_k), (weak_up, cross))
                     for mode in modes)
    return mode_free, per_mode


def inverse_threshold(gamma):
    """1/gamma, and +inf for a zero target, which every positive SINR clears."""
    return 1.0 / gamma if gamma > 0 else math.inf


def margin_base(config: SystemConfig, draw: ChannelDraw, idx: SignalIndex) -> tuple:
    """Per draw, the residual-free decode margins of one pairing that
    ``inverse_critical_snrs`` combines: (shared, weak_free, own, relay_weak).

    Each SINR, A / (B + 1/rho) as in ``sinr_coefficients``, exceeds gamma
    exactly when 1/rho < A/gamma - B, its margin.  ``shared`` is the least
    margin of the relay's decode of x_l and the near user's strip of x_t,
    ``weak_free`` adds the far user's decode of x_t, ``own`` is the near
    user's decode of x_l and ``relay_weak`` the relay's decode of x_t, the
    last two before the residual eps gI is taken off.  Reads g1..g4, the
    a, b and r of the pairing and both leakage levels, never gI or
    ``config.rho``, so draws that differ only in the residual channel share
    one base.
    """
    (a_l, a_k, a_t, a_r, b_l, b_t), (g_l, g_k, g_t, g_r) = _pairing(config, draw, idx)
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
    return shared, weak_free, own, relay_weak


def mode_margins(base, gI, modes) -> tuple:
    """One (u_l, u_t) pair per entry of ``modes`` from a ``margin_base``: the
    residual eps gI comes off the near user's own decode and the relay's
    decode of x_t.  Under pSIC eps gI is 0.0, and x - 0.0 is x bit for bit,
    so that mode subtracts nothing."""
    shared, weak_free, own, relay_weak = base
    return tuple((np.minimum(shared, own - gI), np.minimum(weak_free, relay_weak - gI))
                 if sic_epsilon(mode) else
                 (np.minimum(shared, own), np.minimum(weak_free, relay_weak))
                 for mode in modes)


def inverse_critical_snrs(config: SystemConfig, draw: ChannelDraw,
                          idx: SignalIndex, modes) -> tuple:
    """Per draw, the inverse critical SNR of one pairing's two signals under
    each SIC mode.

    A signal's chain succeeds at rho exactly when 1/rho is below u, the
    least margin A/gamma - B (``margin_base``) over its decodes; its
    critical SNR is rho* = 1/u, and +inf where u <= 0, when some decode
    fails at every SNR.  The strong signal x_l needs the relay's decode of
    x_l and both of the near user's decodes; the weak signal x_t needs the
    relay's two decodes, the near user's strip of x_t and the far user's
    decode.  ``config.rho`` is not read.

    Returns one (u_l, u_t) pair of arrays per entry of ``modes``; the terms
    no mode changes are formed once for all of them.
    """
    return mode_margins(margin_base(config, draw, idx), draw.gI, modes)
