import random
from itertools import permutations

import pytest

from dumont.permcore import Permutation, flatten


def test_permutation_accepts_known_member():
    p = Permutation([4, 3, 5, 6, 2, 1])
    assert p.to_text() == "435621"
    assert len(p) == 6
    # Python-level indexing and slicing are 0-based, as the module docstring says.
    assert (p[0], p[-1], p[1:3]) == (4, 1, (3, 5))
    assert repr(p) == "Permutation([4, 3, 5, 6, 2, 1])"
    assert p <= p and Permutation([1, 2]) <= Permutation([2, 1])
    assert not Permutation([2, 1]) <= Permutation([1, 2])


def test_empty_permutation_is_valid():
    assert len(Permutation([])) == 0
    assert Permutation([]).to_text() == ""


def test_duplicate_value_rejected():
    with pytest.raises(ValueError, match="duplicate value 1"):
        Permutation([1, 1, 2])


def test_out_of_range_value_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Permutation([1, 5, 2])


@pytest.mark.parametrize("make, error, message", [
    (lambda: Permutation([True]), ValueError, "non-integer entry True"),
    (lambda: Permutation([1.0]), ValueError, "non-integer entry 1.0"),
    (lambda: Permutation([2, 1]).at(0), IndexError, "position 0 out of range"),
], ids=["bool-entry", "float-entry", "position-0"])
def test_permutation_validation(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


def test_text_roundtrip_both_grammars():
    short = Permutation.from_text("435621")
    assert Permutation.from_text(short.to_text()) == short
    long = Permutation(list(range(1, 13)))
    assert "," in long.to_text()
    assert Permutation.from_text(long.to_text()) == long
    assert Permutation.from_text("1,3,6,5,7,2,8,4").values == (1, 3, 6, 5, 7, 2, 8, 4)


def test_to_text_names_every_value():
    # Nine values are written as digits, ten with commas; the first D1
    # member of size 300 has values past the table of small names.
    from dumont.kinds import DumontKind, generate
    big = next(generate(DumontKind.D1, 300))
    for p in (Permutation([9, 1, 8, 2, 7, 3, 6, 4, 5]),
              Permutation([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]), big):
        sep = "" if len(p) <= 9 else ","
        assert p.to_text() == sep.join(map(str, p.values))
        assert Permutation.from_text(p.to_text()) == p
    assert max(big) == 300


def test_block_texts_name_every_value():
    # The listing formatter writes the first blocks of size 300 as to_text
    # writes their members, values past the table of small names included.
    from itertools import islice

    from dumont.kinds import DumontKind, _walk, generate
    from dumont.permcore import _block_texts
    texts = list(_block_texts(islice(_walk(DumontKind.D1, 300), 3), 300))
    want = [p.to_text() for p in islice(generate(DumontKind.D1, 300), len(texts))]
    assert texts == want
    assert "300" in texts[0].split(",")


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


@pytest.mark.parametrize("n", range(7))
def test_symmetries_are_involutions_exhaustive(n):
    for raw in permutations(range(1, n + 1)):
        p = Permutation(raw)
        assert p.reverse().reverse() == p
        assert p.complement().complement() == p
        assert p.inverse().inverse() == p
        assert p.reverse().complement() == p.complement().reverse()


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


def test_flatten():
    assert flatten([1, 3, 6, 2]).to_text() == "1342"
    assert flatten([5, 6, 2]).to_text() == "231"
    with pytest.raises(ValueError):
        flatten([2, 2])
