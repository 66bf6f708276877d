"""Property tests for the shared walk, the single matcher and the guards.

Each property compares the package against the brute-force oracles in
``conftest`` (or against the unsplit walk) on random small inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_count, naive_count_vincular
from dumont.kinds import DumontKind, generate, split_prefixes
from dumont.patterns import (_INF, _AvoidGuard, _count, _Exact321Guard,
                             _ExactCountGuard, _Fast2143Guard, _Fast3421Guard)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def perms(lo, hi):
    return st.integers(lo, hi).flatmap(lambda n: st.permutations(range(1, n + 1)))


@st.composite
def vincular(draw):
    pat = tuple(draw(perms(1, 5)))
    adjacent = draw(st.frozensets(st.integers(1, len(pat) - 1))) \
        if len(pat) > 1 else frozenset()
    return pat, adjacent


@PROPERTY
@given(full=perms(1, 11), vq=vincular(), limit=st.integers(1, 4) | st.just(_INF))
def test_matcher_agrees_with_naive_count(full, vq, limit):
    pat, adjacent = vq
    host, last = list(full[:-1]), full[-1]
    whole = naive_count_vincular(host, pat, adjacent)
    assert _count(host, pat, adjacent, limit) == min(whole, limit)
    # Anchored at ``last``: the occurrences of host + [last] that end there.
    ending = naive_count_vincular(full, pat, adjacent) - whole
    assert _count(host, pat, adjacent, limit, last) == min(ending, limit)
    if not adjacent:
        assert _count(host, pat, adjacent, limit) == min(naive_count(host, pat), limit)


@st.composite
def guard_cases(draw):
    """A guard, its oracle for one push, and an op sequence over 1..size."""
    size = draw(st.integers(0, 10))
    target = draw(st.integers(0, 3))
    which = draw(st.sampled_from(["avoid", "2143", "3421", "exact", "321"]))
    if which == "avoid":
        pats = tuple(sorted({tuple(draw(perms(1, 4))) for _ in range(draw(st.integers(1, 2)))}))
        guard = _AvoidGuard(pats)
        rejects = lambda h: any(naive_count(h, p) for p in pats)  # noqa: E731
        leaf = None
    elif which in ("2143", "3421"):
        pat = tuple(int(c) for c in which)
        guard = (_Fast2143Guard if which == "2143" else _Fast3421Guard)(size)
        rejects = lambda h: naive_count(h, pat) > 0  # noqa: E731
        leaf = None
    else:
        pat = (3, 2, 1) if which == "321" else tuple(draw(perms(1, 4)))
        guard = _Exact321Guard(size, target) if which == "321" \
            else _ExactCountGuard(pat, target)
        rejects = lambda h: naive_count(h, pat) > target  # noqa: E731
        leaf = lambda h: naive_count(h, pat) == target  # noqa: E731
    values = draw(st.permutations(range(1, size + 1)))
    pops = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return guard, rejects, leaf, values, pops


@PROPERTY
@given(case=guard_cases())
def test_guards_reject_exactly_when_the_prefix_would_match(case):
    guard, rejects, leaf, values, pops = case
    accepted: list[int] = []
    for w, npop in zip(values, pops):
        for _ in range(min(npop, len(accepted))):
            guard.pop()
            accepted.pop()
        ok = guard.push(w)
        assert ok == (not rejects(accepted + [w]))
        if ok:
            accepted.append(w)
        if leaf is not None:
            assert guard.leaf_ok() == leaf(accepted)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(DumontKind)), size=st.sampled_from([0, 2, 4, 6, 8]),
       depth=st.integers(0, 9))
def test_split_prefixes_partition_generate(kind, size, depth):
    whole = [p.values for p in generate(kind, size)]
    merged = []
    for prefix in split_prefixes(kind, size, depth):
        assert len(prefix) == min(depth, size)
        merged.extend(p.values for p in generate(kind, size, prefix=prefix))
    assert merged == whole
