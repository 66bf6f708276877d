from itertools import permutations

import pytest

from dumont.bijections import (Composition, DyckPath, composition_to_d4_1342,
                               construct_1324_avoider, d4_1342_to_composition,
                               d4_321_to_dyck, dyck_paths, dyck_to_d4_321, foata,
                               foata_inverse, reflect_1243_to_1324,
                               reflect_1324_to_1243, split_single_321)
from dumont.gfseries import catalan_number
from dumont.kinds import DumontKind, generate, is_dumont
from dumont.patterns import (AvoidanceQuery, ClassicalPattern, avoids,
                             count_occurrences, generate_avoiders)
from dumont.permcore import Permutation


def cp(text):
    return ClassicalPattern.parse(text)


def avoiders(kind, size, pattern):
    return list(generate_avoiders(AvoidanceQuery(kind, size, frozenset({cp(pattern)}))))


# -- Foata ------------------------------------------------------------------

def test_foata_worked_examples():
    assert foata(Permutation.from_text("435621")).to_text() == "614352"
    assert foata(Permutation.from_text("16238457")).to_text() == "13657284"
    assert foata(Permutation.from_text("1")).to_text() == "1"
    assert foata(Permutation(())) == Permutation(())


def test_foata_inverse_worked_examples():
    assert foata_inverse(Permutation.from_text("614352")).to_text() == "435621"
    assert foata_inverse(Permutation.from_text("13657284")).to_text() == "16238457"
    assert foata_inverse(Permutation(())) == Permutation(())


@pytest.mark.parametrize("m", range(8))
def test_foata_roundtrip_exhaustive(m):
    for raw in permutations(range(1, m + 1)):
        p = Permutation(raw)
        assert foata_inverse(foata(p)) == p
        assert foata(foata_inverse(p)) == p


@pytest.mark.parametrize("src, dst", [(DumontKind.D1, DumontKind.D2),
                                      (DumontKind.D3, DumontKind.D4)])
def test_foata_maps_kinds_bijectively(src, dst):
    for size in (0, 2, 4, 6, 8):
        source = list(generate(src, size))
        images = [foata(p) for p in source]
        assert all(is_dumont(dst, q) for q in images)
        assert len(set(images)) == len(source)
        assert set(images) == set(generate(dst, size))


# -- Dyck paths -------------------------------------------------------------

def test_dyck_path_validation():
    DyckPath("EENN")
    with pytest.raises(ValueError, match="above the diagonal"):
        DyckPath("NE")
    with pytest.raises(ValueError, match="unbalanced"):
        DyckPath("EEN")
    with pytest.raises(ValueError, match="bad step"):
        DyckPath("EX")


def test_dyck_path_text():
    path = DyckPath("EENN")
    assert path.to_text() == str(path) == "EENN"


def test_dyck_map_worked_example():
    p = Permutation.from_text("1,3,5,2,6,4,7,8,9,11,12,10")
    path = d4_321_to_dyck(p)
    assert path.to_text() == "EENENNENEENN"
    assert dyck_to_d4_321(path) == p


def test_dyck_map_smallest_cases():
    assert d4_321_to_dyck(Permutation.from_text("12")).to_text() == "EN"
    assert dyck_to_d4_321(DyckPath("EN")).to_text() == "12"
    assert d4_321_to_dyck(Permutation(())).to_text() == ""
    got = {d4_321_to_dyck(Permutation.from_text(s)).to_text()
           for s in ("1234", "1342")}
    assert got == {"ENEN", "EENN"}


def test_dyck_map_rejects_non_members():
    with pytest.raises(ValueError, match="not a 321-avoiding"):
        d4_321_to_dyck(Permutation.from_text("1432"))
    with pytest.raises(ValueError, match="odd size"):
        d4_321_to_dyck(Permutation.from_text("1"))


@pytest.mark.parametrize("n", range(7))
def test_dyck_bijection_exhaustive(n):
    members = avoiders(DumontKind.D4, 2 * n, "321")
    assert len(members) == catalan_number(n)
    paths = [d4_321_to_dyck(p) for p in members]
    assert len({q.steps for q in paths}) == len(members)
    assert all(q.semilength == n for q in paths)
    assert {q.steps for q in paths} == {q.steps for q in dyck_paths(n)}
    for p, q in zip(members, paths):
        assert dyck_to_d4_321(q) == p


def _path_by_grid_walk(p):
    """Independent construction: walk east-north from (0,0) keeping every dot
    (with even non-excedances lowered one cell) strictly left of the path,
    staying as close to the diagonal as possible."""
    n2 = len(p)
    dots = []
    for i, v in enumerate(p.values, start=1):
        if v <= i and v % 2 == 0:
            dots.append((i, v - 1))
        else:
            dots.append((i, v))
    steps = []
    x = y = 0
    while x < n2 or y < n2:
        # A north step at column x is allowed when no dot in columns > x sits
        # in row y+1 ... i.e. the path never walls a dot to its right.
        can_north = y < n2 and all(not (cx > x and cy == y + 1) for cx, cy in dots)
        if can_north and y < x:
            steps.append("N")
            y += 1
        elif x < n2:
            steps.append("E")
            x += 1
        else:
            steps.append("N")
            y += 1
    # Halve the runs.
    halved = []
    run = DyckPath("".join(steps)).runs()
    for ch, length in run:
        assert length % 2 == 0
        halved.append(ch * (length // 2))
    return "".join(halved)


@pytest.mark.parametrize("n", range(6))
def test_dyck_map_agrees_with_grid_walk(n):
    for p in avoiders(DumontKind.D4, 2 * n, "321"):
        assert d4_321_to_dyck(p).to_text() == _path_by_grid_walk(p)


# -- Compositions -----------------------------------------------------------

def test_composition_parse_and_text():
    comp = Composition.parse("3+1")
    assert comp.parts == (3, 1)
    assert comp.total == 4
    assert comp.to_text() == str(comp) == "3+1"
    assert Composition.parse("").parts == ()
    with pytest.raises(ValueError):
        Composition((0, 2))
    for text in ("1++1", "a+1"):
        with pytest.raises(ValueError) as info:
            Composition.parse(text)
        assert str(info.value) == f"malformed composition: {text!r}"


def test_composition_map_worked_examples():
    assert d4_1342_to_composition(
        Permutation.from_text("16325478")).to_text() == "3+1"
    assert d4_1342_to_composition(
        Permutation.from_text("12345678")).to_text() == "1+1+1+1"
    assert composition_to_d4_1342(Composition((4,))).to_text() == "18325476"


def test_composition_map_rejects_non_member():
    # 13425678 is Dumont-4 but contains 1342.
    with pytest.raises(ValueError, match="not a 1342-avoiding"):
        d4_1342_to_composition(Permutation.from_text("13425678"))


def test_composition_figure_panel_values():
    from dumont import golden
    for text, parts in golden.d4_1342_size8_compositions().items():
        p = Permutation.from_text(text)
        assert d4_1342_to_composition(p).parts == tuple(parts)
        assert composition_to_d4_1342(Composition(tuple(parts))) == p


@pytest.mark.parametrize("n", range(1, 7))
def test_composition_bijection_exhaustive(n):
    members = avoiders(DumontKind.D4, 2 * n, "1342")
    assert len(members) == 2 ** (n - 1)
    comps = [d4_1342_to_composition(p) for p in members]
    assert len({c.parts for c in comps}) == len(members)
    assert all(c.total == n for c in comps)
    for p, c in zip(members, comps):
        assert composition_to_d4_1342(c) == p


# -- Antidiagonal reflection -------------------------------------------------

def test_reflection_worked_example():
    from dumont import golden
    example = golden.d4_1324_size16_example()
    p = Permutation.from_text(example["permutation"])
    image = reflect_1324_to_1243(p)
    assert image == Permutation.from_text(example["antidiagonal_image"])
    assert reflect_1243_to_1324(image) == p


def test_reflection_fixes_identity():
    for n in (0, 1, 2, 4):
        ident = Permutation.identity(2 * n)
        assert reflect_1324_to_1243(ident) == ident


@pytest.mark.parametrize("n", range(6))
def test_reflection_bijection_exhaustive(n):
    left = avoiders(DumontKind.D4, 2 * n, "1324")
    right = avoiders(DumontKind.D4, 2 * n, "1243")
    assert len(left) == len(right) == n * n - n + 1
    images = [reflect_1324_to_1243(p) for p in left]
    assert set(images) == set(right)
    for p, q in zip(left, images):
        assert reflect_1243_to_1324(q) == p


def test_reflection_rejects_non_member():
    with pytest.raises(ValueError, match="1324"):
        reflect_1324_to_1243(Permutation.from_text("135264"))


# -- Direct 1324-avoider construction ---------------------------------------

def test_construct_worked_example():
    got = construct_1324_avoider(8, 3, 10)
    assert got == Permutation.from_text("1,2,3,4,5,7,8,9,10,16,11,12,13,14,15,6")


def test_construct_identity_sentinel():
    assert construct_1324_avoider(4) == Permutation.identity(8)


def test_construct_range_errors():
    with pytest.raises(ValueError, match="k must"):
        construct_1324_avoider(3, 3, 5)
    with pytest.raises(ValueError, match="l must"):
        construct_1324_avoider(3, 1, 1)
    with pytest.raises(ValueError, match="both"):
        construct_1324_avoider(3, 1, None)


@pytest.mark.parametrize("args, message", [
    ((-1,), "n must be >= 0"),
    ((3, 3, 5), "k must satisfy 1 <= k <= 2, got 3"),
    ((3, 1, 1), "l must satisfy 2 <= l <= 5, got 1"),
    ((3, None, 4), "give both k and l, or neither"),
], ids=["n", "k", "l", "k-missing"])
def test_construct_validation(args, message):
    with pytest.raises(ValueError) as err:
        construct_1324_avoider(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("n", range(1, 6))
def test_construct_covers_avoider_set(n):
    built = {construct_1324_avoider(n)}
    for k in range(1, n):
        for l in range(2 * k, 2 * n):
            built.add(construct_1324_avoider(n, k, l))
    assert len(built) == n * n - n + 1
    assert built == set(avoiders(DumontKind.D4, 2 * n, "1324"))


# -- Single-321 splitting ----------------------------------------------------

def test_split_worked_examples():
    pair = split_single_321(Permutation.from_text("135462"))
    assert (pair.rho1.to_text(), pair.rho2.to_text()) == ("1342", "1342")
    assert pair.parity_case == "even_b"

    # The middle entry 5 is odd here; the construction inserts 6 second from
    # the right of the flattened prefix, giving 135264.  (The similar-looking
    # 135624 is not Dumont-4: its deficiency 2 sits at the odd position 5.)
    pair = split_single_321(Permutation.from_text("136254"))
    assert (pair.rho1.to_text(), pair.rho2.to_text()) == ("135264", "1342")
    assert pair.parity_case == "odd_b"


def test_split_errors():
    with pytest.raises(ValueError, match="exactly one"):
        split_single_321(Permutation.from_text("1234"))  # none
    members = [p for p in generate(DumontKind.D4, 8)
               if count_occurrences(p, cp("321")) == 2]
    with pytest.raises(ValueError, match="exactly one"):
        split_single_321(members[0])
    with pytest.raises(ValueError, match="not a Dumont-4"):
        split_single_321(Permutation.from_text("321654"))
    with pytest.raises(ValueError, match="odd size: 3"):
        split_single_321(Permutation.from_text("132"))


@pytest.mark.parametrize("n", range(1, 6))
def test_split_postconditions_exhaustive(n):
    p321 = cp("321")
    members = [p for p in generate(DumontKind.D4, 2 * n)
               if count_occurrences(p, p321) == 1]
    for p in members:
        pair = split_single_321(p)
        for rho in (pair.rho1, pair.rho2):
            assert is_dumont(DumontKind.D4, rho)
            assert avoids(rho, p321)
        total = len(pair.rho1) + len(pair.rho2)
        if pair.parity_case == "even_b":
            assert total == 2 * n + 2
        else:
            assert total == 2 * n + 4
