"""Property tests: production routes against their oracles on random slopes."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlab as sl


@settings(max_examples=100, deadline=None, database=None)
@given(
    a0=st.integers(-3, 3),
    block=st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    n=st.integers(1, 2000),
)
def test_pi_sos_equals_pi_direct_on_periodic_cfs(a0, block, n):
    alpha = sl.ExplicitCF([a0, *block], repeat=block)
    assert sl.pi_sos(alpha, n).one_line == sl.pi_direct(alpha, n).one_line


@settings(max_examples=100, deadline=None, database=None)
@given(
    a0=st.integers(-3, 3),
    head=st.lists(st.integers(1, 10**5), max_size=3),
    block=st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    start=st.integers(1, 10**6),
    step=st.integers(1, 5),
)
def test_floor_stream_equals_kernel_on_periodic_cfs(a0, head, block, start, step):
    stream, kernel = (sl.ExplicitCF([a0, *head, *block], repeat=block) for _ in range(2))
    got = list(islice(stream.floors(start, step), 300))
    assert got == [kernel.floor_multiple(start + i * step) for i in range(300)]
