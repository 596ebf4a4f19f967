"""Random mutation walks on random A_n^ell, n, ell <= 6, covering cases
included: at every step a mutation followed by the opposite mutation at the
replaced orbit returns the start, on both sides of the correspondence."""

from hypothesis import given, settings, strategies as st

from smstilt import complexes as cx, smscfg, transport
from smstilt.modcat import Algebra

OPPOSITE = {"minus": "plus", "plus": "minus"}
WALKS = settings(derandomize=True, deadline=None, max_examples=100)
ALGEBRAS = st.builds(Algebra, st.integers(1, 6), st.integers(1, 6))
SIGNS = st.sampled_from(("minus", "plus"))


@WALKS
@given(ALGEBRAS, st.integers(1, 4), st.data())
def test_complex_mutation_walk_returns(A, steps, data):
    T = data.draw(st.sampled_from(transport.two_term_objects(A)))
    for _ in range(steps):
        orbit = data.draw(st.sampled_from(cx.nu_orbits(T)))
        sign = data.draw(SIGNS)
        U, replaced = cx.two_term_mutate_tracked(T, orbit, sign)
        if U is None:  # the mutation leaves the two-term window
            continue
        assert cx.two_term_mutate(U, set(replaced.values()), OPPOSITE[sign]) == T, (T, orbit, sign)
        T = U


@WALKS
@given(ALGEBRAS, st.integers(1, 4), st.data())
def test_sms_mutation_walk_returns(A, steps, data):
    C = data.draw(st.sampled_from(smscfg.enumerate_configurations(A)))
    for _ in range(steps):
        K = data.draw(st.sampled_from(smscfg.nu_orbits_points(C)))
        sign = data.draw(SIGNS)
        D, rep = smscfg.sms_mutate_tracked(C, K, sign)
        assert smscfg.sms_mutate(D, {rep[q] for q in K}, OPPOSITE[sign]) == C, (C, K, sign)
        C = D
