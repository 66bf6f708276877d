"""Property tests for the shared walk, the layered DP, the single matcher,
the pattern transitions and the series kernels.

Each property compares the package against the brute-force oracles in
``conftest`` (or the DP against the walk, or the series kernels against
its schoolbook loops) on random small inputs.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (naive_count, naive_count_vincular, schoolbook_product,
                      schoolbook_quotient)
from dumont import kinds
from dumont.gfseries import TruncatedSeries
from dumont.kinds import DumontKind, _walk, generate
from dumont.patterns import (_INF, AvoidanceQuery, ClassicalPattern, VincularPattern, _count,
                             _run, _runs, _step_maker, count_avoiders, count_exact_occurrences,
                             count_occurrences, count_vincular, generate_avoiders,
                             vincular_histogram)
from dumont.permcore import Permutation, _block_texts

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def query_transition(query):
    """(step, initial state) of a query: a run of one size."""
    return _step_maker(query.forbidden, query.occurrence_target, [query.size])(query.size)


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
    host = list(full[:-1])
    whole = naive_count_vincular(host, pat, adjacent)
    assert _count(host, pat, adjacent, limit) == min(whole, limit)
    assert _count(full, pat, adjacent, limit) == \
        min(naive_count_vincular(full, pat, adjacent), limit)
    if not adjacent:
        assert _count(host, pat, adjacent, limit) == min(naive_count(host, pat), limit)


@st.composite
def transition_cases(draw):
    """A query's transition, its oracle for one placement, and an op
    sequence over 1..size."""
    size = draw(st.integers(0, 10))
    target = draw(st.integers(0, 3))
    which = draw(st.sampled_from(["avoid", "2143", "3421", "exact", "321"]))

    def transition_for(pats, target=None):
        return query_transition(AvoidanceQuery(
            DumontKind.D1, size, frozenset(ClassicalPattern(Permutation(p)) for p in pats),
            target))

    if which == "avoid":
        pats = tuple(sorted({tuple(draw(perms(1, 4))) for _ in range(draw(st.integers(1, 2)))}))
        transition = transition_for(pats)
        rejects = lambda h: any(naive_count(h, p) for p in pats)  # noqa: E731
        leaf = None
    elif which in ("2143", "3421"):
        pat = tuple(int(c) for c in which)
        transition = transition_for([pat])
        rejects = lambda h: naive_count(h, pat) > 0  # noqa: E731
        leaf = None
    else:
        pat = (3, 2, 1) if which == "321" else tuple(draw(perms(1, 4)))
        transition = transition_for([pat], target)
        rejects = lambda h: naive_count(h, pat) > target  # noqa: E731
        leaf = lambda h: naive_count(h, pat) == target  # noqa: E731
    values = draw(st.permutations(range(1, size + 1)))
    pops = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return size, transition, rejects, leaf, values, pops


@PROPERTY
@given(case=transition_cases())
def test_transitions_reject_exactly_when_the_prefix_would_match(case):
    replay(case)


def replay(case):
    """Place ``values`` in turn, each after popping its number of ``pops``
    from the accepted prefix, and check every answer against the oracle."""
    # A full-length prefix is a leaf: in exact mode the transition also
    # rejects one that misses the target, and at size 0 the empty word.
    size, (step, state), rejects, leaf, values, pops = case
    if leaf is not None and size == 0:
        assert (state is not None) == leaf([])
        return
    accepted: list[int] = []
    saved = [(state, 0)]  # (state, used mask) after each accepted prefix
    for w, npop in zip(values, pops):
        for _ in range(min(npop, len(accepted))):
            saved.pop()
            accepted.pop()
        state, used = saved[-1]
        new = step(state, w, used)
        h = accepted + [w]
        ok = not rejects(h) and (leaf is None or len(h) < size or leaf(h))
        assert (new is not None) == ok
        if ok:
            accepted.append(w)
            saved.append((new, used | 1 << w))


# Placements chosen to reach states whose reject mask is easy to get wrong:
# (pattern, target, size, values, pops).
CHOSEN_PLACEMENTS = {
    # The empty occurrence of a length-1 pattern closes at every rank, so
    # the third value is refused wherever it falls.
    "length_1": ((1,), 2, 6, [3, 1, 5, 2, 4, 6], [0, 0, 0, 1, 0, 0]),
    # After 3 and 2 the two copies of one partial 12 close at every rank
    # above them, where one copy alone would be allowed.
    "two_copies": ((1, 2), 1, 6, [3, 2, 4, 1, 5, 4], [0, 0, 0, 0, 0, 2]),
    # The 1 of a 12 closes in the top gap.  The partial occurrence of 1 is
    # first interned with two unused values above it, then met again with
    # five, where the rank of 6 is 4.
    "top_gap": ((1, 2), 0, 6, [6, 5, 4, 1, 1, 6], [0, 0, 0, 0, 4, 0]),
}


@pytest.mark.parametrize("name", sorted(CHOSEN_PLACEMENTS))
def test_transitions_reject_chosen_placements(name):
    pat, target, size, values, pops = CHOSEN_PLACEMENTS[name]
    query = AvoidanceQuery(DumontKind.D1, size,
                           frozenset([ClassicalPattern(Permutation(pat))]), target)
    replay((size, query_transition(query), lambda h: naive_count(h, pat) > target,
            lambda h: naive_count(h, pat) == target, values, pops))


DP_PATTERNS = {"2143": VincularPattern.parse("2-31"), "3421": VincularPattern.parse("13-2")}
# Every length-3 statistic with one adjacency has a DP form.
DP_STATS = [VincularPattern.parse(f"{a}-{b}{c}" if split else f"{a}{b}-{c}")
            for a, b, c in ("123", "132", "213", "231", "312", "321") for split in (0, 1)]


@st.composite
def dp_cases(draw):
    """A kind, a size, one of the DP patterns and a statistic."""
    kind = draw(st.sampled_from(list(DumontKind)))
    size = draw(st.sampled_from([0, 2, 4, 6, 8, 10]))
    pat = draw(st.sampled_from(sorted(DP_PATTERNS)))
    return kind, size, pat, draw(st.sampled_from(DP_STATS))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=dp_cases())
def test_dp_agrees_with_the_walk(case):
    kind, size, pat, extra = case
    forbidden = ClassicalPattern.parse(pat)
    query = AvoidanceQuery(kind, size, frozenset([forbidden]))
    members = list(generate_avoiders(query))
    assert count_avoiders(query) == len(members)
    for stat in [*DP_PATTERNS.values(), extra]:
        walked = Counter(count_vincular(p, stat) for p in members)
        assert vincular_histogram(kind, size, forbidden, stat) == dict(walked)


@st.composite
def generic_cases(draw):
    """A kind, a size and one or two classical patterns of length 1..5."""
    kind = draw(st.sampled_from(list(DumontKind)))
    size = draw(st.sampled_from([0, 2, 4, 6, 8, 10]))
    # Length 4 is the simplest draw: a length-1 pattern empties every
    # nonempty set, so it should come up rarely.
    lengths = st.sampled_from((4, 5, 3, 4, 5, 2, 1))
    pats = {tuple(draw(lengths.flatmap(lambda k: st.permutations(range(1, k + 1)))))
            for _ in range(draw(st.integers(1, 2)))}
    return kind, size, sorted(pats)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=generic_cases(), stat=st.sampled_from(DP_STATS))
def test_generic_dp_agrees_with_the_walk(case, stat, small_dumont_sets):
    kind, size, pats = case
    forbidden = [ClassicalPattern(Permutation(p)) for p in pats]
    query = AvoidanceQuery(kind, size, frozenset(forbidden))
    members = list(generate_avoiders(query))
    assert count_avoiders(query) == len(members)
    if size <= 8:
        brute = [vals for vals in small_dumont_sets[(kind.value, size)]
                 if not any(naive_count(vals, p) for p in pats)]
        assert [p.values for p in members] == brute
    for q in forbidden:
        if str(q) in DP_PATTERNS:
            continue  # 2143 and 3421 keep their own transitions
        alone = generate_avoiders(AvoidanceQuery(kind, size, frozenset([q])))
        walked = Counter(count_vincular(p, stat) for p in alone)
        assert vincular_histogram(kind, size, q, stat) == dict(walked)


@st.composite
def run_cases(draw):
    """A kind, increasing even sizes up to 10, one or two classical patterns
    of length 3 or 4 and a target (None, or 0..2 with the first pattern
    alone)."""
    kind = draw(st.sampled_from(list(DumontKind)))
    sizes = sorted(draw(st.sets(st.sampled_from(range(0, 11, 2)), min_size=1)))
    pats = {tuple(draw(st.sampled_from((3, 4)).flatmap(
        lambda k: st.permutations(range(1, k + 1))))) for _ in range(draw(st.integers(1, 2)))}
    target = draw(st.sampled_from((None, 0, 1, 2)))
    pats = sorted(pats)[:1] if target is not None else sorted(pats)
    return kind, sizes, pats, target


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=run_cases())
@example(case=(DumontKind.D1, list(range(0, 11, 2)), [(1, 3, 4, 2), (2, 4, 1, 3)], None))
@example(case=(DumontKind.D4, list(range(0, 11, 2)), [(3, 2, 1)], 2))
def test_a_run_of_sizes_counts_each_size_alone(case):
    # A run shares one transition across its sizes; each size must count
    # and list what a fresh single-size query does, and up to size 8 what
    # the walk filtered by the matcher gives.
    kind, sizes, pats, target = case
    forbidden = [ClassicalPattern(Permutation(p)) for p in pats]
    queries = [AvoidanceQuery(kind, size, frozenset(forbidden), target) for size in sizes]

    def member(p):
        if target is None:
            return not any(count_occurrences(p, q) for q in forbidden)
        return count_occurrences(p, forbidden[0]) == target

    listings = _runs(_walk, kind, frozenset(forbidden), target, sizes)
    counts = _runs(kinds._count_layers, kind, frozenset(forbidden), target, sizes)
    for query, got in zip(queries, counts):
        assert got == count_avoiders(query)
        listed = [p.values for p in kinds._permutations(next(listings))]
        assert listed == [p.values for p in generate_avoiders(query)]
        if query.size <= 8:
            assert listed == [p.values for p in generate(kind, query.size) if member(p)]
    assert next(listings, None) is None


@st.composite
def fold_cases(draw):
    """D1 or D3, an even size up to 12, one or two classical patterns of
    length 1..4 and a target (None, or 0..2 for the patterns in all)."""
    kind = draw(st.sampled_from((DumontKind.D1, DumontKind.D3)))
    size = draw(st.sampled_from(range(0, 13, 2)))
    lengths = st.sampled_from((4, 3, 4, 3, 2, 1))
    pats = {tuple(draw(lengths.flatmap(lambda k: st.permutations(range(1, k + 1)))))
            for _ in range(draw(st.integers(1, 2)))}
    return kind, size, sorted(pats), draw(st.sampled_from((None, 0, 1, 2)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=fold_cases())
@example(case=(DumontKind.D1, 12, [(1, 3, 4, 2), (2, 4, 1, 3)], None))
@example(case=(DumontKind.D3, 12, [(3, 2, 1)], 2))
@example(case=(DumontKind.D1, 0, [(1, 2)], 1))
def test_folded_counts_agree_with_value_keys(case):
    # The DP of D1 and D3 folds its keys to ranks when the transition has a
    # rank form; a plain wrapper of the same step has none, so the DP keeps
    # value keys.  Up to size 10 the walk's members count the same.
    kind, size, pats, target = case
    forbidden = frozenset(ClassicalPattern(Permutation(p)) for p in pats)

    def transition():
        return _step_maker(forbidden, target, [size])(size)

    step, state = transition()
    assert hasattr(step, "by_rank") or (target is None and pats in ([(2, 1, 4, 3)], [(3, 4, 2, 1)]))
    folded = kinds._count_layers(kind, size, step, state)
    step, state = transition()
    assert kinds._count_layers(kind, size, lambda s, w, used: step(s, w, used), state) == folded
    if size <= 10:
        assert sum(len(tails) for _, tails in _walk(kind, size, *transition())) == folded


@st.composite
def exact_cases(draw):
    """A kind, a size, one classical pattern of length 1..4 and a target."""
    kind = draw(st.sampled_from(list(DumontKind)))
    size = draw(st.sampled_from([0, 2, 4, 6, 8]))
    pat = tuple(draw(st.sampled_from((4, 3, 2, 1)).flatmap(
        lambda k: st.permutations(range(1, k + 1)))))
    return kind, size, pat, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=exact_cases())
@example(case=(DumontKind.D1, 0, (1,), 1))
@example(case=(DumontKind.D4, 0, (2, 1), 0))
@example(case=(DumontKind.D2, 6, (3, 2, 1), 1))
@example(case=(DumontKind.D4, 8, (1, 3, 4, 2), 1))
def test_exact_queries_agree_with_filtering(case, small_dumont_sets):
    kind, size, pat, target = case
    q = ClassicalPattern(Permutation(pat))
    walked = [p.values for p in generate(kind, size) if count_occurrences(p, q) == target]
    brute = [vals for vals in small_dumont_sets[(kind.value, size)]
             if naive_count(vals, pat) == target]
    assert walked == brute
    query = AvoidanceQuery(kind, size, frozenset([q]), target)
    assert [p.values for p in generate_avoiders(query)] == brute
    assert count_exact_occurrences(kind, size, q, target) == len(brute)


# ---------------------------------------------------------------------------
# Listings as text against the text of each Permutation

# Cuts of the walk: masks alone, suffixes from one or four positions left,
# and (None) suffixes from the first position on.
CUTS = st.sampled_from([0, 1, 4, None])


def texts_both_ways(size, tail, blocks, perms):
    """The listing formatter's lines for ``blocks()`` and the to_text of each
    of ``perms()``, both walked with ``kinds._TAIL`` set to ``tail``."""
    saved = kinds._TAIL
    kinds._TAIL = size if tail is None else tail
    try:
        return list(_block_texts(blocks(), size)), [p.to_text() for p in perms()]
    finally:
        kinds._TAIL = saved


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(DumontKind)), size=st.sampled_from(range(0, 13, 2)),
       tail=CUTS)
def test_listing_lines_are_the_members_texts(kind, size, tail):
    # Sizes 0-12 straddle the switch to commas between 8 and 10.
    got, want = texts_both_ways(size, tail, lambda: _walk(kind, size),
                                lambda: generate(kind, size))
    assert got == want


@st.composite
def listing_queries(draw):
    """A query of :func:`generic_cases`, or one of its patterns with an
    occurrence target."""
    kind, size, pats = draw(generic_cases())
    target = draw(st.none() | st.integers(0, 2))
    if target is not None:
        pats = pats[:1]
    return AvoidanceQuery(kind, size, frozenset(ClassicalPattern(Permutation(p)) for p in pats),
                          target)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(query=listing_queries(), tail=CUTS)
def test_avoider_listing_lines_are_the_members_texts(query, tail):
    got, want = texts_both_ways(query.size, tail, lambda: _run(_walk, query),
                                lambda: generate_avoiders(query))
    assert got == want


# ---------------------------------------------------------------------------
# Series kernels against the schoolbook loop

SHAPES = ("dense", "even", "odd", "stride3", "stride3+1", "zero", "short")


@st.composite
def coefficients(draw, order):
    """``order + 1`` coefficients with nonzero entries on one residue class
    (or a dense prefix for "short"), of up to several hundred bits."""
    shape = draw(st.sampled_from(SHAPES))
    bits = draw(st.sampled_from((3, 70, 400)))
    value = st.integers(-(1 << bits), 1 << bits)
    start, step = {"dense": (0, 1), "even": (0, 2), "odd": (1, 2), "stride3": (0, 3),
                   "stride3+1": (1, 3), "zero": (0, order + 1),
                   "short": (0, 1)}[shape]
    stop = min(draw(st.integers(0, 2)), order) if shape == "short" else order
    out = [0] * (order + 1)
    if shape != "zero":
        for i in range(start, stop + 1, step):
            out[i] = draw(value)
    return out


@st.composite
def operand_pairs(draw):
    """Two coefficient lists of possibly different orders."""
    a = draw(st.integers(0, 18).flatmap(coefficients))
    b = draw(st.integers(0, 18).flatmap(coefficients))
    return a, b


@PROPERTY
@given(pair=operand_pairs())
def test_truncated_product_matches_schoolbook(pair):
    a, b = pair
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == schoolbook_product(a, b)


def outcome(fn):
    try:
        return list(fn())
    except ValueError as err:
        return str(err)


@PROPERTY
@given(pair=operand_pairs(), multiple=st.booleans(), nudge=st.integers(0, 18))
def test_truncated_quotient_matches_schoolbook(pair, multiple, nudge):
    # Half the numerators are b times a series, so the quotient is exact
    # unless one coefficient is nudged; a nudge past the order changes nothing.
    c, b = pair
    a = c
    if multiple:
        a = schoolbook_product(c + [0] * len(b), b + [0] * len(c))[:len(c)]
        if nudge < len(a) and abs(b[0]) > 1:
            a[nudge] += 1
    want = outcome(lambda: schoolbook_quotient(a, b))
    got = outcome(lambda: (TruncatedSeries(a) / TruncatedSeries(b)).coeffs)
    assert got == want


def test_quotient_reports_the_smallest_inexact_index():
    # Both z^3 and z^6 fail to divide by 2; the error names the first.
    a = TruncatedSeries([2, 0, 4, 3, 0, 0, 1])
    b = TruncatedSeries([2, 0, 2], 6)
    want = outcome(lambda: schoolbook_quotient(list(a.coeffs), list(b.coeffs)))
    assert want == "inexact series division at coefficient 3"
    assert outcome(lambda: (a / b).coeffs) == want
