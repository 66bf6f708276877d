import random
from itertools import permutations

import pytest

from dumont.permcore import Permutation, flatten, make_permutation


def test_make_permutation_accepts_known_member():
    p = make_permutation([4, 3, 5, 6, 2, 1])
    assert p.to_text() == "435621"
    assert len(p) == 6


def test_empty_permutation_is_valid():
    assert len(make_permutation([])) == 0
    assert make_permutation([]).to_text() == ""


def test_duplicate_value_rejected():
    with pytest.raises(ValueError, match="duplicate value 1"):
        make_permutation([1, 1, 2])


def test_out_of_range_value_rejected():
    with pytest.raises(ValueError, match="out of range"):
        make_permutation([1, 5, 2])


def test_text_roundtrip_both_grammars():
    short = Permutation.from_text("435621")
    assert Permutation.from_text(short.to_text()) == short
    long = Permutation(list(range(1, 13)))
    assert "," in long.to_text()
    assert Permutation.from_text(long.to_text()) == long
    assert Permutation.from_text("1,3,6,5,7,2,8,4").values == (1, 3, 6, 5, 7, 2, 8, 4)


@pytest.mark.parametrize("text", ["1,2,", "1,,2", "1,a", "12x"])
def test_from_text_rejects_malformed_text(text):
    with pytest.raises(ValueError) as err:
        Permutation.from_text(text)
    assert str(err.value) == f"not a permutation string: {text!r}"


def test_reverse_complement_examples():
    p = Permutation.from_text("263541")
    assert p.reverse().to_text() == "145362"
    assert p.complement().to_text() == "514236"


def test_inverse_example():
    assert Permutation.from_text("435621").inverse().to_text() == "652134"


def test_reverse_of_empty():
    eps = Permutation(())
    assert eps.reverse() == eps


def test_symmetry_class_eight_elements():
    got = {q.to_text() for q in Permutation.from_text("263541").symmetry_class()}
    assert got == {"263541", "145362", "514236", "632415",
                   "613542", "245316", "164235", "532461"}


def test_symmetry_class_singleton_and_pair():
    assert Permutation.from_text("1").symmetry_class() == frozenset({Permutation((1,))})
    got = {q.to_text() for q in Permutation.from_text("21").symmetry_class()}
    assert got == {"12", "21"}


@pytest.mark.parametrize("n", range(7))
def test_symmetries_are_involutions_exhaustive(n):
    for raw in permutations(range(1, n + 1)):
        p = Permutation(raw)
        assert p.reverse().reverse() == p
        assert p.complement().complement() == p
        assert p.inverse().inverse() == p
        assert p.reverse().complement() == p.complement().reverse()
        assert len(p.symmetry_class()) in (1, 2, 4, 8)


def test_involutions_random_larger():
    rng = random.Random(20240811)
    for n in (8, 9, 10, 12):
        for _ in range(50):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            p = Permutation(vals)
            assert p.reverse().reverse() == p
            assert p.complement().complement() == p
            assert p.inverse().inverse() == p
            assert p.reverse().complement() == p.complement().reverse()


def test_stats_profile_614352():
    s = Permutation.from_text("614352").stats()
    assert s.deficiencies == frozenset({2, 4, 6})
    assert s.excedances == frozenset({1, 3})
    assert s.fixed_points == frozenset({5})


def test_stats_identity():
    s = Permutation.from_text("1234").stats()
    assert s.fixed_points == frozenset({1, 2, 3, 4})
    assert s.descents == frozenset()


def test_stats_descents_435621():
    p = Permutation.from_text("435621")
    s = p.stats()
    assert s.descents == frozenset({1, 4, 5})
    # Descent-top values are the even entries 4, 6, 2.
    assert {p.at(i) for i in s.descents} == {4, 6, 2}
    assert s.ltr_maxima == frozenset({1, 3, 4})


@pytest.mark.parametrize("n", range(8))
def test_stats_partition_property_exhaustive(n):
    for raw in permutations(range(1, n + 1)):
        s = Permutation(raw).stats()
        union = s.fixed_points | s.excedances | s.deficiencies
        assert union == set(range(1, n + 1))
        assert len(s.fixed_points) + len(s.excedances) + len(s.deficiencies) == n
        if n >= 1:
            assert 1 in s.ltr_maxima


def test_stats_partition_property_random_beyond():
    rng = random.Random(7)
    for n in (9, 10):
        for _ in range(200):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            s = Permutation(vals).stats()
            assert s.fixed_points | s.excedances | s.deficiencies == set(range(1, n + 1))


def test_flatten():
    assert flatten([1, 3, 6, 2]).to_text() == "1342"
    assert flatten([5, 6, 2]).to_text() == "231"
    with pytest.raises(ValueError):
        flatten([2, 2])
