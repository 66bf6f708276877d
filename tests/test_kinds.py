import os
from itertools import islice, permutations
from types import SimpleNamespace

import pytest

from conftest import DEF_CHECKS
from dumont import kinds
from dumont.gfseries import genocchi
from dumont.kinds import BudgetExceeded, DumontKind, count, generate, is_dumont
from dumont.permcore import Permutation

ALL_KINDS = list(DumontKind)


@pytest.mark.parametrize("kind, text", [
    (DumontKind.D1, "435621"),
    (DumontKind.D2, "614352"),
    (DumontKind.D3, "16238457"),
    (DumontKind.D4, "13657284"),
])
def test_membership_worked_examples(kind, text):
    assert is_dumont(kind, Permutation.from_text(text))


def test_d1_rejects_trailing_even_entry():
    assert not is_dumont(DumontKind.D1, Permutation.from_text("12"))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_membership_matches_the_definitions(kind):
    # is_dumont replays the walk's candidate rule, so it is checked here
    # against the definitions on every permutation of size 0..8.
    check = DEF_CHECKS[kind.value]
    for size in range(0, 9, 2):
        for vals in permutations(range(1, size + 1)):
            assert is_dumont(kind, Permutation._wrap(vals)) == check(vals), vals


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_is_member_of_every_kind(kind):
    assert is_dumont(kind, Permutation(()))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_odd_size_rejected(kind):
    with pytest.raises(ValueError, match="odd size"):
        is_dumont(kind, Permutation((2, 1, 3)))
    with pytest.raises(ValueError, match="odd size"):
        list(generate(kind, 3))
    with pytest.raises(ValueError, match="odd size"):
        count(kind, 5)


def test_generate_smallest_cases():
    assert [p.to_text() for p in generate(DumontKind.D1, 2)] == ["21"]
    assert [p.to_text() for p in generate(DumontKind.D4, 4)] == ["1234", "1342", "1432"]
    assert [p.to_text() for p in generate(DumontKind.D2, 0)] == [""]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("size", [0, 2, 4, 6, 8])
def test_generate_matches_brute_force(kind, size, small_dumont_sets):
    expected = set(small_dumont_sets[(kind.value, size)])
    got = [p.values for p in generate(kind, size)]
    assert set(got) == expected
    assert len(got) == len(expected)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lexicographic_emission_order(kind):
    for size in (4, 6, 8):
        out = [p.values for p in generate(kind, size)]
        assert out == sorted(out)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("size", [10, 12])
def test_generate_past_the_brute_force_oracle(kind, size):
    # The walk replays the stored next values of a key it has walked before,
    # which only happens at sizes the brute-force sets do not reach.  An
    # increasing list of members as long as the Genocchi number is the set.
    out = [p.values for p in generate(kind, size)]
    assert all(a < b for a, b in zip(out, out[1:]))
    assert all(map(DEF_CHECKS[kind.value], out))
    assert len(out) == genocchi(size // 2 + 1)


@pytest.mark.parametrize("tail", [0, 1, 2, 3, 5, 10])
def test_every_cut_lists_the_same_members(tail, monkeypatch):
    # Keys with at most kinds._TAIL positions left store their suffixes and
    # the shallower ones a mask; 0 stores masks alone, and 10 stores
    # suffixes from the empty prefix on.
    monkeypatch.setattr(kinds, "_TAIL", tail)
    for kind in ALL_KINDS:
        out = [p.values for p in generate(kind, 10)]
        assert all(a < b for a, b in zip(out, out[1:]))
        assert all(map(DEF_CHECKS[kind.value], out))
        assert len(out) == count(kind, 10)


def _count_calls(monkeypatch, name):
    """A one-element list that counts the calls of ``kinds.<name>``."""
    calls = [0]
    function = getattr(kinds, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(kinds, name, counted)
    return calls


@pytest.fixture
def candidate_calls(monkeypatch):
    """A one-element list that counts the calls of kinds._candidates."""
    return _count_calls(monkeypatch, "_candidates")


def test_generate_replays_walked_keys(candidate_calls):
    assert sum(1 for _ in generate(DumontKind.D1, 10)) == genocchi(6)
    # Each key is expanded once: 1,258 calls, where a walk of every live
    # prefix makes 9,836.
    assert candidate_calls[0] < 5000


def _mask(*values):
    return sum(1 << v for v in values)


@pytest.mark.parametrize("kind_id, pos, size, prev, placed, want", [
    # D3, an odd smallest unused value comes next: 1, 2 leaves only 3.
    (3, 3, 6, 2, (1, 2), (3,)),
    # D1, an odd largest unused value comes last: after 2, 1, 6 the 5 could
    # only be followed by a smaller entry.
    (1, 4, 6, 6, (2, 1, 6), (4,)),
    # D3, the same: after 1, 3, 6, 2 the 5 could only descend onto 4.
    (3, 5, 6, 2, (1, 3, 6, 2), (4,)),
    # D4, value 3 is unused at position 3: placed later it is an odd
    # deficiency.
    (4, 3, 6, 2, (1, 2), (3,)),
    # D2 and D4, positions 9 and 11 need two values from 9 up, and only 9
    # and 10 are left.
    (2, 9, 12, 12, (1, 2, 3, 4, 5, 7, 11, 12), ()),
    (4, 9, 12, 12, (1, 2, 3, 4, 5, 7, 11, 12), ()),
])
def test_candidates_refuse_dead_subtrees(kind_id, pos, size, prev, placed, want):
    assert kinds._candidates(kind_id, pos, size, prev, _mask(*placed)) == _mask(*want)


def test_d4_prefixes_place_every_odd_value_below_the_next_position():
    # An odd value is never a D4 deficiency, so _candidates offers the value
    # pos alone at an odd position pos where it is unused; so every prefix it
    # admits holds each odd value below the next position, and a rule
    # refusing a prefix that does not would never fire.  D4's rules read no
    # last value, so a prefix is its used set: sizes 0..14 expand 1,565.
    expanded = 0
    for size in range(0, 15, 2):
        layer = {0}
        for pos in range(1, size + 1):
            odd = _mask(*range(1, pos, 2))
            assert all(used & odd == odd for used in layer), (size, pos)
            expanded += len(layer)
            layer = {used | 1 << v for used in layer for v in range(1, size + 1)
                     if kinds._candidates(4, pos, size, 0, used) >> v & 1}
        assert layer == {(2 << size) - 2}
    assert expanded == 1565


@pytest.fixture
def rank_calls(monkeypatch):
    """A one-element list that counts the calls of kinds._rank_candidates,
    one per key the folded DP expands."""
    return _count_calls(monkeypatch, "_rank_candidates")


def test_count_expands_fewer_keys(candidate_calls, rank_calls):
    # _candidates calls of count(kind, 14) for D2 and D4: the dead-subtree
    # rules bring them from 5,315 / 1,595 to 4,321 / 969.  D1 and D3 fold
    # their keys to ranks and make none; their value keys were 27,320 and
    # 24,090 (29,138 and 72,933 before the dead-subtree rules).
    for kind, bound in ((DumontKind.D2, 5000), (DumontKind.D4, 1200)):
        candidate_calls[0] = 0
        assert count(kind, 14) == genocchi(8)
        assert candidate_calls[0] < bound, kind
    for kind, keys in ((DumontKind.D1, 4250), (DumontKind.D3, 3718)):
        candidate_calls[0] = rank_calls[0] = 0
        assert count(kind, 14) == genocchi(8)
        assert (candidate_calls[0], rank_calls[0]) == (0, keys), kind


def _rank_key(size, placed):
    """(word, j, odd) of :func:`kinds._rank_candidates` after ``placed``."""
    unused = sorted(set(range(1, size + 1)) - set(placed))
    word = 1 << len(unused) | sum((v & 1) << r for r, v in enumerate(unused))
    last = placed[-1] if placed else 0
    return word, sum(v < last for v in unused), last & 1 if placed else 1


def _value_ranks(kind_id, size, placed):
    """The mask of :func:`kinds._candidates` after ``placed``, as ranks
    among the unused values."""
    mask = kinds._candidates(kind_id, len(placed) + 1, size, placed[-1] if placed else 0,
                             _mask(*placed))
    unused = sorted(set(range(1, size + 1)) - set(placed))
    return sum(1 << r for r, v in enumerate(unused) if mask >> v & 1)


@pytest.mark.parametrize("kind_id, size, placed, want", [
    # The empty prefix: D1 cannot start with 1 while 2 is unused; D3 must.
    (1, 4, (), (1, 2, 3)),
    (3, 4, (), (0,)),
    (1, 0, (), ()),
    # m = 1: the last unused value, odd, after an even value above it (D1)
    # or an odd one below it (D3).
    (1, 4, (3, 4, 2), (0,)),
    (1, 4, (2, 1, 4), (0,)),
    (3, 4, (1, 2, 3), (0,)),
    # m = 2 with an odd top: the top comes last, so only rank 0 may come
    # next, for both kinds, after an odd value below it or an even one
    # above.
    (1, 6, (6, 4, 2, 1), (0,)),
    (1, 6, (4, 2, 1, 6), (0,)),
    (3, 6, (1, 6, 2, 3), (0,)),
    (3, 4, (1, 4), (0,)),
    # D3 after an even value: its odd smallest unused value comes next;
    # with an even smallest, a smaller even value or any larger one.
    (3, 6, (1, 2), (0,)),
    (3, 6, (1, 3, 6), (0, 1)),
    (3, 8, (1, 3, 8), (0, 1, 3)),
    # D1 after an even value with an even value next up: the smallest
    # unused value stays, and a smaller value must come next.
    (1, 6, (3, 4), (1,)),
])
def test_rank_rules_at_their_ends(kind_id, size, placed, want):
    ranks = kinds._rank_candidates(kind_id, *_rank_key(size, placed))
    assert ranks == _mask(*want)
    assert ranks == _value_ranks(kind_id, size, placed)


@pytest.mark.parametrize("kind_id", [1, 3])
def test_rank_rules_agree_with_the_value_rules(kind_id):
    # The two statements of the rules of D1 and D3, on every prefix of every
    # permutation of size 0..6, reachable or not.
    for size in range(0, 7, 2):
        for placed in (p for k in range(size) for p in permutations(range(1, size + 1), k)):
            assert kinds._rank_candidates(kind_id, *_rank_key(size, placed)) == \
                _value_ranks(kind_id, size, placed), placed


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_candidate_masks_hold_only_unused_values(kind, monkeypatch):
    # Range masks such as ``-(2 << prev)`` run past both ends of 1..size;
    # only the intersection with the unused values keeps them in range.
    candidates = kinds._candidates
    calls = 0

    def checked(kind_id, pos, size, prev, used):
        nonlocal calls
        calls += 1
        mask = candidates(kind_id, pos, size, prev, used)
        assert isinstance(mask, int) and mask >= 0
        assert not mask & (1 | used) and not mask >> size + 1
        return mask

    monkeypatch.setattr(kinds, "_candidates", checked)
    for size in range(0, 11, 2):
        assert sum(1 for _ in generate(kind, size)) == genocchi(size // 2 + 1)
    assert calls


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generate_stores_values_past_255(kind):
    # Later members replay the masks stored for keys left behind by the
    # first, whose bits run up to 300.  D1 gets there only because its walk
    # never places a value that leaves an even smallest value unplaced.
    out = [p.values for p in islice(generate(kind, 300), 3)]
    assert len(out) == 3 and out[0] < out[1] < out[2]
    assert all(map(DEF_CHECKS[kind.value], out))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_counts_equal_genocchi(kind):
    for n in range(10):
        assert count(kind, 2 * n) == genocchi(n + 1)
    for n in range(6):
        assert sum(1 for _ in generate(kind, 2 * n)) == genocchi(n + 1)


@pytest.mark.skipif(os.environ.get("DUMONT_SLOW") != "1", reason="opt-in: set DUMONT_SLOW=1")
def test_folded_counts_at_size_24():
    assert count(DumontKind.D1, 24) == count(DumontKind.D3, 24) == genocchi(13)


def test_count_d1_6_is_17():
    assert count(DumontKind.D1, 6) == 17


def test_d4_structural_invariant():
    # Every member fixes 1 and puts 2n-1 or 2n at position 2n-1.
    for size in (2, 4, 6, 8, 10):
        for p in generate(DumontKind.D4, size):
            assert p.at(1) == 1
            assert p.at(size - 1) in (size - 1, size)


def test_a_deadline_is_checked_within_a_layer(candidate_calls, rank_calls, monkeypatch):
    # A clock that passes the deadline at the Kth key a count expands stops
    # it within one chunk, where a check between layers alone runs on to the
    # end of the layer.  The value-keyed count(D2, 18) expands 58,912 keys;
    # one layer holds the 14,300th to the 26,320th, so K = 20,000 stops it
    # within 4,096 keys.
    clock = SimpleNamespace(monotonic=lambda: float(candidate_calls[0] >= 20000))
    monkeypatch.setattr(kinds, "time", clock)
    with pytest.raises(BudgetExceeded):
        kinds._count_layers(DumontKind.D2, 18, deadline=0.5)
    assert 20000 <= candidate_calls[0] < 20000 + kinds._CHUNK
    candidate_calls[0] = 0
    assert kinds._count_layers(DumontKind.D2, 18) == genocchi(10)
    assert candidate_calls[0] == 58912
    # The folded count(D1, 16) expands 12,889 keys, at most 2,876 a layer
    # (the 4,387th to the 7,262nd), so chunks of 512 keys show the same.
    monkeypatch.setattr(kinds, "_CHUNK", 512)
    clock.monotonic = lambda: float(rank_calls[0] >= 5000)
    with pytest.raises(BudgetExceeded):
        kinds._count_layers(DumontKind.D1, 16, deadline=0.5)
    assert 5000 <= rank_calls[0] < 5000 + 512
    rank_calls[0] = 0
    assert kinds._count_layers(DumontKind.D1, 16) == genocchi(9)
    assert rank_calls[0] == 12889
