"""Property tests: production routes against their oracles on random slopes,
and the matrix representation's laws on random permutations."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlab as sl
from sturmlab.matrep import mat_mul


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


def random_perms(max_n, count):
    """count random permutations of one size n <= max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=count, max_size=count)
    )


@settings(max_examples=100, deadline=None, database=None)
@given(lines=random_perms(30, 2))
def test_matrix_law_on_random_sn(lines):
    tau, sigma = (sl.FracPermutation(len(line), tuple(line)) for line in lines)
    prod = mat_mul(sl.factor_matrix(tau).rows(), sl.factor_matrix(sigma).rows())
    assert prod == sl.factor_matrix(tau.compose(sigma)).rows()


@settings(max_examples=100, deadline=None, database=None)
@given(lines=random_perms(150, 1))
def test_reconstruct_roundtrip_on_random_sn(lines):
    sigma = sl.FracPermutation(len(lines[0]), tuple(lines[0]))
    assert sl.reconstruct_sigma(sl.factor_matrix(sigma)).one_line == sigma.one_line
