import random
import time
from collections import Counter
from itertools import permutations

import pytest

from conftest import naive_contains, naive_count, naive_count_vincular
from dumont import kinds, patterns
from dumont.kinds import BudgetExceeded, DumontKind, generate, is_dumont
from dumont.patterns import (AvoidanceQuery, ClassicalPattern, VincularPattern,
                             avoids, count_avoiders,
                             count_exact_occurrences, count_occurrences,
                             count_vincular, generate_avoiders, vincular_histogram)
from dumont.permcore import Permutation


def cp(text):
    return ClassicalPattern.parse(text)


def test_count_occurrences_host_26483751():
    p = Permutation.from_text("26483751")
    # Exhaustive triple enumeration gives 13 instances of 132 (the three
    # named ones, 265 / 287 / 475, among them).
    assert naive_count(p.values, (1, 3, 2)) == 13
    assert count_occurrences(p, cp("132")) == 13
    assert count_occurrences(p, cp("1234")) == 0
    assert count_occurrences(Permutation.from_text("123"), cp("12")) == 3


def test_avoids_examples():
    assert avoids(Permutation.from_text("2143"), cp("321"))
    # 435621 avoids 132 (no value sits between an ascent's endpoints) but
    # contains 321 and 231.
    assert avoids(Permutation.from_text("435621"), cp("132"))
    assert not avoids(Permutation.from_text("435621"), cp("321"))
    assert not avoids(Permutation.from_text("435621"), cp("231"))
    assert avoids(Permutation(()), cp("12"))


def test_envelope_guard():
    big = Permutation(list(range(1, 26)))
    with pytest.raises(ValueError, match="envelope"):
        count_occurrences(big, cp("123"))
    with pytest.raises(ValueError, match="envelope"):
        avoids(big, cp("123"))
    # Short patterns stay allowed on long hosts.
    assert count_occurrences(big, cp("12")) == 25 * 24 // 2
    assert not avoids(big, cp("12"))


def test_vincular_parse_and_str():
    vq = VincularPattern.parse("2-31")
    assert vq.perm.to_text() == "231"
    assert vq.adjacent == frozenset({2})
    assert str(vq) == "2-31"
    assert VincularPattern.parse("13-2").adjacent == frozenset({1})
    assert VincularPattern.parse("1-2-3").adjacent == frozenset()
    for text in ("1", "13-2", "1-2-3", "1234", "21-4-3", "1-423"):
        assert str(VincularPattern.parse(text)) == text
    with pytest.raises(ValueError):
        VincularPattern.parse("2--31")
    # Past nine letters the letters are comma-separated, as in Permutation's text.
    ten = VincularPattern(Permutation(range(1, 11)), frozenset({9}))
    assert str(ten) == "1-2-3-4-5-6-7-8-9,10"
    assert VincularPattern.parse(str(ten)) == ten
    assert VincularPattern.parse("1,2-3") == VincularPattern.parse("12-3")
    rng = random.Random(11)
    for k in range(1, 13):
        for _ in range(20):
            vals = list(range(1, k + 1))
            rng.shuffle(vals)
            vq = VincularPattern(Permutation(vals),
                                 frozenset(i for i in range(1, k) if rng.random() < 0.5))
            assert VincularPattern.parse(str(vq)) == vq


def test_count_vincular_examples():
    assert count_vincular(Permutation.from_text("3421"),
                          VincularPattern.parse("2-31")) == 1
    assert count_vincular(Permutation.from_text("3421"),
                          VincularPattern.parse("13-2")) == 0
    assert count_vincular(Permutation.identity(5),
                          VincularPattern.parse("2-31")) == 0


def test_vincular_with_no_adjacency_matches_classical():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(0, 9)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = Permutation(vals)
        for pat in ("231", "132", "321", "2413"):
            loose = VincularPattern(Permutation.from_text(pat), frozenset())
            assert count_vincular(p, loose) == count_occurrences(p, cp(pat))


def test_count_under_symmetry_invariance_small():
    pats = [tuple(q) for k in (1, 2, 3, 4) for q in permutations(range(1, k + 1))]
    for n in range(6):
        for raw in permutations(range(1, n + 1)):
            p = Permutation(raw)
            for q in pats:
                qq = Permutation(q)
                base = count_occurrences(p, ClassicalPattern(qq))
                assert base == count_occurrences(p.reverse(),
                                                 ClassicalPattern(qq.reverse()))
                assert base == count_occurrences(p.complement(),
                                                 ClassicalPattern(qq.complement()))
                assert base == count_occurrences(p.inverse(),
                                                 ClassicalPattern(qq.inverse()))


def test_count_under_symmetry_invariance_random():
    rng = random.Random(20240812)
    pats = [tuple(q) for k in (3, 4) for q in permutations(range(1, k + 1))]
    for n in (7, 8):
        for _ in range(25):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            p = Permutation(vals)
            for q in pats:
                qq = Permutation(q)
                base = count_occurrences(p, ClassicalPattern(qq))
                assert base == count_occurrences(p.reverse(),
                                                 ClassicalPattern(qq.reverse()))
                assert base == count_occurrences(p.complement(),
                                                 ClassicalPattern(qq.complement()))
                assert base == count_occurrences(p.inverse(),
                                                 ClassicalPattern(qq.inverse()))


def test_avoids_iff_count_zero_spot_check():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(0, 11)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = Permutation(vals)
        q = cp(rng.choice(["123", "321", "231", "2143", "1342", "3421"]))
        assert avoids(p, q) == (count_occurrences(p, q) == 0)
        assert avoids(p, q) == (not naive_contains(p.values, q.perm.values))


def test_query_validation():
    with pytest.raises(ValueError):
        AvoidanceQuery(DumontKind.D1, 4, frozenset())
    with pytest.raises(ValueError):
        AvoidanceQuery(DumontKind.D1, 4, frozenset({cp("123"), cp("321")}),
                       occurrence_target=1)
    with pytest.raises(ValueError, match="odd size"):
        count_avoiders(AvoidanceQuery(DumontKind.D1, 5, frozenset({cp("123")})))
    # A negative size is named as such by every transition, not met as a bad
    # shift while one is built.
    for pat in ("123", "2143", "3421"):
        query = AvoidanceQuery(DumontKind.D1, -2, frozenset({cp(pat)}))
        for call in (count_avoiders, generate_avoiders):
            with pytest.raises(ValueError, match="negative size: -2"):
                call(query)


def test_generate_avoiders_refuses_an_odd_size_at_the_call():
    # The error comes from the call itself, before anything is iterated.
    with pytest.raises(ValueError, match="odd size: 3"):
        generate_avoiders(AvoidanceQuery(DumontKind.D4, 3, frozenset({cp("321")})))


def test_generate_avoiders_examples():
    got = {p.to_text() for p in generate_avoiders(
        AvoidanceQuery(DumontKind.D4, 8, frozenset({cp("1342")})))}
    assert "16325478" in got
    assert len(got) == 8

    for n in (1, 2, 3, 4):
        staircase = []
        for j in range(1, n + 1):
            staircase += [2 * j, 2 * j - 1]
        got = [p.values for p in generate_avoiders(
            AvoidanceQuery(DumontKind.D1, 2 * n, frozenset({cp("321")})))]
        assert got == [tuple(staircase)]

    got = {p.to_text() for p in generate_avoiders(
        AvoidanceQuery(DumontKind.D4, 6, frozenset({cp("1234")})))}
    assert got == {"136254", "143652", "153264", "163254"}


def test_count_avoiders_theorem_values():
    for n in range(7):
        if n >= 1:
            assert count_avoiders(AvoidanceQuery(
                DumontKind.D4, 2 * n, frozenset({cp("1324")}))) == n * n - n + 1
    for n in range(1, 7):
        assert count_avoiders(AvoidanceQuery(
            DumontKind.D2, 2 * n, frozenset({cp("231")}))) == 2 ** (n - 1)
    got = [count_avoiders(AvoidanceQuery(DumontKind.D4, 2 * n,
                                         frozenset({cp("1234")})))
           for n in range(7)]
    assert got == [1, 1, 2, 4, 0, 0, 0]


def test_plain_counts_do_not_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("a count walked the members")

    monkeypatch.setattr(kinds, "_walk", walk)
    assert count_avoiders(AvoidanceQuery(DumontKind.D4, 8, frozenset({cp("1423")}))) == 39
    assert count_avoiders(AvoidanceQuery(
        DumontKind.D1, 8, frozenset({cp("1342"), cp("1423")}))) == 45
    assert vincular_histogram(DumontKind.D1, 6, cp("123"), VincularPattern.parse("2-31")) \
        == {1: 2, 2: 2}
    assert count_exact_occurrences(DumontKind.D4, 6, cp("321"), 1) == 7
    assert count_exact_occurrences(DumontKind.D2, 8, cp("2143"), 1) == 19


@pytest.mark.parametrize("kind, patterns, target", [
    (DumontKind.D1, ["2143"], None), (DumontKind.D1, ["3421"], None),
    (DumontKind.D1, ["1342", "2413"], None),
    (DumontKind.D4, ["321"], 1), (DumontKind.D2, ["1423"], 1),
])
def test_replayed_walk_keeps_the_transition_state(kind, patterns, target):
    # At size 10 the walk replays keys it has left: a stored mask still
    # steps the transition (the hand-written 2143 and 3421 ones, the generic
    # one over a pair, and exact counts of one occurrence), and stored
    # suffixes near the leaves were gathered under it.
    query = AvoidanceQuery(kind, 10, frozenset(cp(t) for t in patterns), target)
    want = [p for p in generate(kind, 10)
            if all(count_occurrences(p, cp(t)) == (target or 0) for t in patterns)]
    assert list(generate_avoiders(query)) == want


@pytest.mark.parametrize("size", [10, 12])
@pytest.mark.parametrize("kind, forbidden, target", [
    (DumontKind.D4, ["321"], 1), (DumontKind.D1, ["2143"], None),
    (DumontKind.D1, ["3421"], None), (DumontKind.D1, ["1342", "2413"], None),
])
def test_stored_suffixes_list_the_counted_set(kind, forbidden, target, size):
    # Keys with at most kinds._TAIL positions left replay stored suffixes.
    # The oracle walks nothing: the DP's count, the membership test and the
    # occurrence counter, with the listing strictly increasing.
    query = AvoidanceQuery(kind, size, frozenset(cp(t) for t in forbidden), target)
    out = list(generate_avoiders(query))
    assert len(out) == count_avoiders(query)
    assert all(a < b for a, b in zip(out, out[1:]))
    for p in out:
        assert is_dumont(kind, p)
        assert all(count_occurrences(p, cp(t)) == (target or 0) for t in forbidden)


@pytest.mark.parametrize("kind", list(DumontKind))
@pytest.mark.parametrize("pattern", ["21", "2143", "3421", "132"])
def test_listings_below_the_cut(kind, pattern, small_dumont_sets):
    # Up to size kinds._TAIL every key below the empty prefix stores its
    # suffixes, and no mask is stored at all.
    pat = tuple(int(c) for c in pattern)
    for size in (0, 2, 4):
        expected = [vals for vals in small_dumont_sets[(kind.value, size)]
                    if not naive_contains(vals, pat)]
        listed = generate_avoiders(AvoidanceQuery(kind, size, frozenset({cp(pattern)})))
        assert [p.values for p in listed] == expected


def test_stored_suffixes_skip_the_transition(monkeypatch):
    calls = 0
    step_maker = patterns._step_maker

    def counted(*args):
        make = step_maker(*args)

        def counted_make(size):
            step, state = make(size)

            def wrapped(*args):
                nonlocal calls
                calls += 1
                return step(*args)
            return wrapped, state
        return counted_make

    monkeypatch.setattr(patterns, "_step_maker", counted)
    query = AvoidanceQuery(DumontKind.D1, 14, frozenset({cp("2143")}))
    assert sum(1 for _ in generate_avoiders(query)) == 17015
    # 151,528 step calls when every key replays a mask of next values, and
    # 83,799 when keys near the leaves replay their stored suffixes.  The
    # lower bound fails a wrapper that the walk goes around.
    assert 20000 < calls < 120000


def test_a_run_of_sizes_shares_the_generic_transition():
    pair = frozenset([cp("1342"), cp("2413")])
    sizes = range(0, 11, 2)
    alone = []
    for size in sizes:
        work = patterns._Work()
        # count_avoiders is this run of one size.
        run = patterns._runs(kinds._count_layers, DumontKind.D1, pair, None, [size], work)
        assert next(run) == count_avoiders(AvoidanceQuery(DumontKind.D1, size, pair))
        alone.append(work.successors)
    # A successor whose prefix is dead, since an unused value would close an
    # occurrence, is computed once and neither stepped nor interned.
    assert alone[-1] == 915
    work = patterns._Work()
    assert list(patterns._runs(kinds._count_layers, DumontKind.D1, pair, None, sizes, work)) == \
        [1, 1, 3, 11, 44, 185]
    # Here the size-10 count takes every step the smaller ones take, so the
    # run computes no more than it does alone.
    assert work.successors == alone[-1] < sum(alone) == 1181
    assert work.states == 214  # every state the size-10 count interns
    # One move memo serves every m.
    assert work.moves == 306


def test_a_single_walk_drops_the_memos_of_larger_m():
    # The walk returns to larger m.  Its step drops their step memos each
    # time its low-water mark of m falls, and keeps those it makes afresh
    # once it has reached the leaves: 920 computations, where keeping every
    # memo would make 915.
    pair = frozenset([cp("1342"), cp("2413")])
    work = patterns._Work()
    listing = next(patterns._runs(kinds._walk, DumontKind.D1, pair, None, [10], work))
    assert sum(len(tails) for _, tails in listing) == 185
    assert work.successors == 920
    # The largest size of a run drops them too: the sizes 0..8 make 210,
    # and the size-10 walk then makes 914.
    work = patterns._Work()
    listings = patterns._runs(kinds._walk, DumontKind.D1, pair, None, range(0, 11, 2), work)
    assert [sum(len(tails) for _, tails in listing) for listing in listings] == \
        [1, 1, 3, 11, 44, 185]
    assert work.successors == 1124


def test_the_exact_count_listing_pins_its_work():
    # The D4 members of size 12 with exactly one 321, as `avoid --exactly 1
    # --list` walks them: a change to pruning moves these counts, a change
    # in speed does not.
    work = patterns._Work()
    once = frozenset([cp("321")])
    listing = next(patterns._runs(kinds._walk, DumontKind.D4, once, 1, [12], work))
    assert sum(len(tails) for _, tails in listing) == 539
    assert (work.successors, work.moves, work.states) == (2013, 130, 334)


@pytest.mark.parametrize("pattern", ["2143", "3421", "123"])
def test_a_passed_deadline_stops_the_dp(pattern):
    # 2-31 is counted on the DP; 1-2-3 has no DP form and is refused.
    q = cp(pattern)
    stat = VincularPattern.parse("2-31")
    for size in (2, 8):
        query = AvoidanceQuery(DumontKind.D1, size, frozenset([q]))
        members = list(generate_avoiders(query))
        with pytest.raises(BudgetExceeded):
            count_avoiders(query, deadline=time.monotonic() - 1)
        assert count_avoiders(query, deadline=None) == len(members)
        assert count_avoiders(query, deadline=time.monotonic() + 3600) == len(members)
        with pytest.raises(BudgetExceeded):
            vincular_histogram(DumontKind.D1, size, q, stat, deadline=time.monotonic() - 1)
        assert vincular_histogram(DumontKind.D1, size, q, stat, deadline=None) == \
            dict(Counter(count_vincular(p, stat) for p in members))
        with pytest.raises(ValueError, match="statistic 1-2-3 has no DP form"):
            vincular_histogram(DumontKind.D1, size, q, VincularPattern.parse("1-2-3"),
                               deadline=time.monotonic() + 3600)


@pytest.mark.parametrize("pattern", ["2143", "3421"])
def test_fast_guards_agree_with_generic_detector(pattern):
    # The small 2143 and 3421 transitions back the two hot enumeration
    # paths; the generic transition is forced here by pairing the pattern
    # with an unmatchable second one.
    decoy = cp("123456789")
    for n in range(1, 5):
        fast = [p.values for p in generate_avoiders(
            AvoidanceQuery(DumontKind.D1, 2 * n, frozenset({cp(pattern)})))]
        generic = [p.values for p in generate_avoiders(
            AvoidanceQuery(DumontKind.D1, 2 * n, frozenset({cp(pattern), decoy})))]
        assert fast == generic
        brute = [p.values for p in generate(DumontKind.D1, 2 * n)
                 if not naive_contains(p.values, tuple(int(c) for c in pattern))]
        assert fast == brute


@pytest.mark.parametrize("kind", [DumontKind.D2, DumontKind.D3, DumontKind.D4])
@pytest.mark.parametrize("pattern", ["2143", "3421"])
def test_rank_form_guards_on_other_kinds(kind, pattern):
    # The 2143 and 3421 transitions read ranks; on D2 and D4 the DP and the
    # walk hand them ranks from value keys, on D3 the DP folds its keys.
    q = cp(pattern)
    for size in (0, 2, 4, 6, 8):
        query = AvoidanceQuery(kind, size, frozenset({q}))
        walked = [p.values for p in generate(kind, size) if avoids(p, q)]
        assert [p.values for p in generate_avoiders(query)] == walked
        assert count_avoiders(query) == len(walked)


@pytest.mark.parametrize("kind, pattern", [
    (DumontKind.D1, "132"), (DumontKind.D1, "213"), (DumontKind.D2, "321"),
    (DumontKind.D2, "3142"), (DumontKind.D4, "321"), (DumontKind.D4, "1423"),
])
def test_count_avoiders_matches_filtering(kind, pattern, small_dumont_sets):
    pat = tuple(int(c) for c in pattern)
    for size in (0, 2, 4, 6, 8):
        expected = sum(1 for vals in small_dumont_sets[(kind.value, size)]
                       if not naive_contains(vals, pat))
        assert count_avoiders(AvoidanceQuery(
            kind, size, frozenset({cp(pattern)}))) == expected


def test_count_exact_occurrences_examples(small_dumont_sets):
    assert count_exact_occurrences(DumontKind.D4, 4, cp("321"), 1) == 1
    for n in range(7):
        assert count_exact_occurrences(DumontKind.D1, 2 * n, cp("132"), 1) == 0
    # 135462 and 136254 are among the size-6 single-occurrence members.
    members = [p for p in generate(DumontKind.D4, 6)
               if count_occurrences(p, cp("321")) == 1]
    texts = {p.to_text() for p in members}
    assert {"135462", "136254"} <= texts
    assert count_exact_occurrences(DumontKind.D4, 6, cp("321"), 1) == len(members)


@pytest.mark.parametrize("kind, pattern, r", [
    (DumontKind.D4, "321", 1), (DumontKind.D4, "321", 2),
    (DumontKind.D1, "231", 1), (DumontKind.D2, "2143", 1),
    (DumontKind.D2, "3142", 0), (DumontKind.D1, "213", 3),
    # Targets no member reaches, which once cost work (or memory) per unit.
    (DumontKind.D4, "321", 10**6), (DumontKind.D4, "321", 10**20),
])
def test_exact_count_matches_filtering(kind, pattern, r, small_dumont_sets):
    pat = tuple(int(c) for c in pattern)
    for size in (0, 2, 4, 6, 8):
        expected = [vals for vals in small_dumont_sets[(kind.value, size)]
                    if naive_count(vals, pat) == r]
        assert count_exact_occurrences(kind, size, cp(pattern), r) == len(expected)
        listed = generate_avoiders(AvoidanceQuery(kind, size, frozenset({cp(pattern)}), r))
        assert [p.values for p in listed] == expected


def test_d4_containing_each_length4_pattern_once():
    # The paper's "containing once" on kind 4, for all 24 patterns, against
    # a filter over the members.
    members = {n: list(generate(DumontKind.D4, 2 * n)) for n in range(6)}
    for pat in permutations("1234"):
        q = cp("".join(pat))
        for n, perms in members.items():
            expected = sum(1 for p in perms if count_occurrences(p, q) == 1)
            assert count_exact_occurrences(DumontKind.D4, 2 * n, q, 1) == expected


@pytest.mark.parametrize("make, message", [
    (lambda: ClassicalPattern(Permutation([])), "pattern must have length >= 1"),
    (lambda: VincularPattern(Permutation([])), "pattern must have length >= 1"),
    (lambda: VincularPattern(Permutation([2, 1]), frozenset({0})),
     "adjacency indices must satisfy 1 <= i < k"),
    (lambda: VincularPattern(Permutation([2, 3, 1]), frozenset({3})),
     "adjacency indices must satisfy 1 <= i < k"),
], ids=["classical-empty", "vincular-empty", "adjacency-0", "adjacency-k"])
def test_pattern_validation(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_exact_count_rejects_negative_target():
    with pytest.raises(ValueError):
        count_exact_occurrences(DumontKind.D1, 4, cp("321"), -1)


def test_d4_avoider_set_equalities():
    # Dropping the leading 1 of the pattern leaves the avoider set unchanged.
    for short, long in (("231", "1342"), ("321", "1432"),
                        ("213", "1324"), ("312", "1423")):
        for n in range(6):
            a = {p.values for p in generate_avoiders(AvoidanceQuery(
                DumontKind.D4, 2 * n, frozenset({cp(short)})))}
            b = {p.values for p in generate_avoiders(AvoidanceQuery(
                DumontKind.D4, 2 * n, frozenset({cp(long)})))}
            assert a == b


def test_d2_4132_avoiders_equal_321_avoiders():
    for n in range(6):
        a = {p.values for p in generate_avoiders(AvoidanceQuery(
            DumontKind.D2, 2 * n, frozenset({cp("4132")})))}
        b = {p.values for p in generate_avoiders(AvoidanceQuery(
            DumontKind.D2, 2 * n, frozenset({cp("321")})))}
        assert a == b


def test_d4_1342_avoider_structure_lemmas():
    # Odd entries are fixed points; deficiencies at position 2k hold 2k-2.
    for n in range(1, 7):
        for p in generate_avoiders(AvoidanceQuery(
                DumontKind.D4, 2 * n, frozenset({cp("1342")}))):
            for k in range(1, n + 1):
                assert p.at(2 * k - 1) == 2 * k - 1
                if p.at(2 * k) < 2 * k:
                    assert p.at(2 * k) == 2 * k - 2


def test_count_vincular_against_oracle_random():
    rng = random.Random(11)
    stats = [VincularPattern.parse("2-31"), VincularPattern.parse("13-2"),
             VincularPattern.parse("23-1"), VincularPattern.parse("1-32")]
    for _ in range(150):
        n = rng.randrange(0, 10)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = Permutation(vals)
        for vq in stats:
            assert count_vincular(p, vq) == naive_count_vincular(
                p.values, vq.perm.values, vq.adjacent)
