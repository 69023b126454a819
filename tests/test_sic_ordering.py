"""Perfect SIC never does worse than imperfect SIC on the same channels.

Removing the residual term eps rho |g|^2 from the two SINRs it enters can
only raise them, so on shared draws the pSIC failure set is a subset of the
ipSIC one, draw by draw, and the closed forms keep the same order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twrnoma.analysis import outage_probability
from twrnoma.model import SystemConfig
from twrnoma.montecarlo import mc_point


@st.composite
def configs(draw):
    """Configs that pass SystemConfig's checks, over the model's ranges."""
    fields = dict(
        rho=10.0 ** (draw(st.floats(-10.0, 60.0)) / 10.0),
        b1=draw(st.floats(0.01, 0.49)), b3=draw(st.floats(0.01, 0.49)),
        varpi1=draw(st.floats(0.0, 0.2)), varpi2=draw(st.floats(0.0, 0.2)),
        omega_I=10.0 ** draw(st.floats(-4.0, 0.0)),
        d1=draw(st.floats(1.0, 20.0)), d2=draw(st.floats(1.0, 20.0)))
    for i in (1, 2, 3, 4):
        fields[f"a{i}"] = draw(st.floats(0.05, 1.0))
        fields[f"r{i}"] = draw(st.floats(0.0, 0.5))
    return SystemConfig(**fields)


@given(cfg=configs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_psic_fails_on_a_subset_of_the_ipsic_draws(cfg, seed):
    ests = mc_point(cfg, 1000, seed, kind="outage", modes=("ipsic", "psic"))
    for s in (1, 2, 3, 4):
        assert ests["outage", "psic", s].mean <= ests["outage", "ipsic", s].mean


# a zero target rate (tau_l = 0 divided the ipSIC near-user term by zero),
# and a leakage level whose term's mean power underflows to zero
@example(cfg=SystemConfig(r1=0.0, r2=0.0, r3=0.0, r4=0.0))
@example(cfg=SystemConfig(rho=1.0, a2=0.5, varpi1=5e-324, varpi2=0.0))
@given(cfg=configs())
@settings(max_examples=200, deadline=None)
def test_closed_form_outage_is_ordered_and_a_probability(cfg):
    for s in (1, 2, 3, 4):
        ip = outage_probability(cfg, s, "ipsic").p_exact
        p = outage_probability(cfg, s, "psic").p_exact
        assert 0.0 <= p <= ip <= 1.0
