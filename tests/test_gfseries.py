from fractions import Fraction
from math import comb
import sys
import threading

import pytest

from conftest import cf_reference_depth, z_space_continued_fraction
from dumont import gfseries
from dumont.gfseries import (BlockSystemSolution, SequenceId,
                             TruncatedSeries, _levels, a_elizalde,
                             b7482, b_elizalde, catalan_number, catalan_series,
                             central_binomial_series, closed_form,
                             d4_1423_series, genocchi, gf_identities_check,
                             little_schroder,
                             solve_prst_system)

A343795 = [1, 1, 3, 10, 39, 174, 872, 4805, 28474, 178099, 1160173, 7803860]


def geometric(order):
    return TruncatedSeries([1] * (order + 1))


def test_series_arith_geometric_identity():
    order = 16
    one_minus_z = TruncatedSeries([1, -1], order)
    assert one_minus_z * geometric(order) == TruncatedSeries.one(order)
    assert TruncatedSeries.one(order) / one_minus_z == geometric(order)
    assert -one_minus_z == TruncatedSeries([-1, 1], order)
    assert hash(one_minus_z) == hash(TruncatedSeries([1, -1, 0], order))
    assert repr(TruncatedSeries([1, -1], 2)) == "TruncatedSeries([1, -1, 0])"


def test_series_functional_equations():
    order = 20
    c = catalan_series(order)
    b = central_binomial_series(order)
    one = TruncatedSeries.one(order)
    assert c == one + (c * c).shift(1)
    assert b == one + (b * c).shift(1).scale(2)


def test_series_division_errors():
    with pytest.raises(ValueError, match="zero constant term"):
        TruncatedSeries.one(4) / TruncatedSeries([0, 1], 4)
    with pytest.raises(ValueError, match="inexact"):
        TruncatedSeries([1], 4) / TruncatedSeries([2, 1], 4)


def test_negative_shift_and_power_are_refused():
    s = TruncatedSeries([1, 2, 3, 4], 3)
    with pytest.raises(ValueError, match="shift needs k >= 0, got -2"):
        s.shift(-2)
    with pytest.raises(ValueError, match="pow needs k >= 0, got -1"):
        s.pow(-1)
    assert s.shift(0) == s and s.shift(2) == TruncatedSeries([0, 0, 1, 2])
    assert s.pow(0) == TruncatedSeries.one(3)


@pytest.mark.parametrize("make", [
    lambda: TruncatedSeries([1.5, 2.9]),
    lambda: TruncatedSeries([Fraction(1, 2), 1]),
    lambda: TruncatedSeries(['3']),
    lambda: TruncatedSeries([1, 2]).scale(Fraction(1, 2)),
    lambda: TruncatedSeries([1, True]),
])
def test_non_integer_coefficients_are_refused(make):
    with pytest.raises(ValueError, match="non-integer coefficient"):
        make()


def test_series_truncates_to_smaller_order():
    a = TruncatedSeries([1, 2, 3], 8)
    b = TruncatedSeries([1, 1], 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_catalan_trunc_values():
    # At nterms = 8 (order 9 in x = z^2) the sweep runs levels 3, 2, 1, 0 at
    # orders 0, 3, 6, 9: E_2 = 1 + 2x + 14x^2, x*O_2 = x + 5x^2 + 42x^3,
    # x*O_1 = x + 5x^2, E_0 = 1, x*O_0 = x; x*O_{-1} = 0 below level 0.
    levels = {k: rest for k, *rest in _levels(8)}
    assert list(levels) == [3, 2, 1, 0]
    assert [levels[k][0] for k in levels] == [TruncatedSeries.one(n) for n in (0, 3, 6, 9)]
    assert levels[2][1:] == [TruncatedSeries([1, 2, 14, 0]), TruncatedSeries([0, 1, 5, 42]),
                             TruncatedSeries([0, 1, 5, 0])]
    assert levels[0][1:] == [TruncatedSeries([1], 9), TruncatedSeries([0, 1], 9),
                             TruncatedSeries.zero(9)]


def test_d4_1423_series_reference_prefix():
    assert list(d4_1423_series(11).coeffs) == A343795
    assert d4_1423_series(0).coeffs == (1,)


@pytest.mark.parametrize("make, error, message", [
    (lambda: TruncatedSeries([]), ValueError,
     "a series needs at least the constant coefficient"),
    (lambda: TruncatedSeries([1, 2]).coefficient(2), IndexError,
     "coefficient 2 beyond truncation order 1"),
    (lambda: little_schroder(0), ValueError, "little_schroder(n) requires n >= 1"),
    (lambda: b7482(-1), ValueError, "b7482(n) requires n >= 0"),
    (lambda: a_elizalde(-1), ValueError, "a_elizalde(n) requires n >= 0"),
    (lambda: b_elizalde(-1), ValueError, "b_elizalde(n) requires n >= 0"),
], ids=["empty-series", "coefficient-past-order", "little-schroder-0", "b7482",
        "a-elizalde", "b-elizalde"])
def test_series_validation(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
    # Below the constant term a series reads 0 rather than raising.
    assert TruncatedSeries([1, 2]).coefficient(-1) == 0


def test_negative_nterms_is_refused():
    with pytest.raises(ValueError, match="nterms must be >= 0"):
        d4_1423_series(-1)
    with pytest.raises(ValueError, match="nterms must be >= 0"):
        solve_prst_system(-1)


def test_prst_system_matches_continued_fraction():
    sol = solve_prst_system(80)
    assert isinstance(sol, BlockSystemSolution)
    assert sol.series() == d4_1423_series(80)


def test_prst_constant_terms():
    sol = solve_prst_system(6)
    for idx, series in sol.p.items():
        assert series.coefficient(0) == 1, f"P_{idx}"


def catalan_truncation(parity, k, order):
    """sum_{i<=k} C(2i + parity) x^i at the given order; 0 for k < 0."""
    return TruncatedSeries([catalan_number(2 * i + parity) for i in range(k + 1)] or [0], order)


@pytest.mark.parametrize("nterms", range(41))
def test_every_block_member_solves_its_own_equation(nterms):
    # Each equation multiplied out, with no division, at the order of its
    # level; R_{2k+3} from the level above is padded with zeros, as the
    # sweep pads it, and is 0 above the top level.
    sol = solve_prst_system(nterms)
    top = (nterms + 1) // 3
    assert sorted(sol.p) == [2 * k + 2 for k in range(top + 1)]
    assert sorted(sol.r) == [2 * k + 1 for k in range(top + 1)]
    for k in range(top + 1):
        order = nterms + 1 - 3 * k
        one, x = TruncatedSeries.one(order), TruncatedSeries([0, 1], order)
        e = catalan_truncation(0, k, order)
        xo_k, xo_below = (x * catalan_truncation(1, j, order) for j in (k, k - 1))
        p, r = sol.p[2 * k + 2], sol.r[2 * k + 1]
        assert p.order == r.order == order
        w = one - x * TruncatedSeries(sol.r.get(2 * k + 3, TruncatedSeries.zero(0)).coeffs, order)
        assert p * ((one - xo_k) * w - x * e * e) == w, f"P_{2 * k + 2}"
        base = one - xo_below
        assert r * (base * base - x * e * p) == e, f"R_{2 * k + 1}"


@pytest.mark.parametrize("nterms", [0, 1, 2, 7, 40])
def test_sweeps_divide_once_and_twice_per_level(nterms, monkeypatch):
    # The continued fraction is carried as a numerator and a denominator
    # and divided once at the end; the block system divides once for P and
    # once for R at each level.
    calls = []
    quotient = gfseries._quotient

    def counted(a, b, n):
        calls.append(n)
        return quotient(a, b, n)
    monkeypatch.setattr(gfseries, "_quotient", counted)
    d4_1423_series(nterms)
    assert len(calls) == 1
    calls.clear()
    solve_prst_system(nterms)
    assert len(calls) == 2 * ((nterms + 1) // 3 + 1)


def test_x_sweep_matches_the_continued_fraction_in_z():
    z_r = z_space_continued_fraction(40)
    assert not any(z_r[1::2])
    assert z_r[0] == 0
    assert list(d4_1423_series(40).coeffs) == z_r[2::2]


@pytest.mark.parametrize("nterms", [0, 1, 2, 3, 7, 20, 40])
def test_cut_sweeps_match_every_level_at_full_order(nterms):
    # Both sweeps start at level (nterms + 1) // 3 and compute level k only
    # to order nterms + 1 - 3k; the reference computes every level at full
    # order from its own depth, also one and two levels deeper.
    cf, block = d4_1423_series(nterms).coeffs, solve_prst_system(nterms).series().coeffs
    for extra in (0, 1, 2):
        want = tuple(z_space_continued_fraction(nterms, cf_reference_depth(nterms) + extra)[2::2])
        assert cf == block == want


def test_genocchi_values():
    assert [genocchi(n) for n in range(1, 6)] == [1, 1, 3, 17, 155]
    assert genocchi(6) == 2073
    with pytest.raises(ValueError):
        genocchi(0)


def seidel_genocchi(n_max):
    """G(2), ..., G(2 n_max) from Seidel's triangle: each row is the running
    sum of the one above, padded with a zero, taken left to right on even
    rows and right to left on odd rows; G(2n) ends row 2n."""
    row, out = [1], []
    for r in range(2, 2 * n_max + 1):
        row.extend([0] * ((r + 1) // 2 - len(row)))
        if r % 2:
            for i in range(len(row) - 2, -1, -1):
                row[i] += row[i + 1]
        else:
            for i in range(1, len(row)):
                row[i] += row[i - 1]
            out.append(row[-1])
    return out


def test_genocchi_matches_seidel_triangle():
    want = seidel_genocchi(150)
    assert want[:6] == [1, 1, 3, 17, 155, 2073]
    assert [genocchi(n) for n in range(1, 151)] == want


def test_genocchi_positive_integers_through_12():
    for n in range(1, 13):
        assert genocchi(n) > 0


def test_bernoulli_consistency():
    # Solving G(2n) = 2(1 - 2^(2n)) (-1)^n B(2n) for B must reproduce the
    # Bernoulli numbers of the EGF x/(e^x - 1), which satisfy
    # sum_{k <= m} C(m+1, k) B(k) = 0 for m >= 1.
    bern = [Fraction(1)]
    for m in range(1, 13):
        bern.append(-sum(comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    assert bern[1:5] == [Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    for n in range(1, 7):
        from_genocchi = Fraction(genocchi(n) * (-1) ** n, 2 * (1 - 2 ** (2 * n)))
        assert bern[2 * n] == from_genocchi


def test_little_schroder_prefix():
    assert [little_schroder(n) for n in range(1, 8)] == [1, 1, 3, 11, 45, 197, 903]


def test_b7482_prefix():
    assert [b7482(n) for n in range(7)] == [1, 1, 3, 11, 39, 139, 495]


def cold_recurrences(monkeypatch):
    """Reset the lists of finished terms of little_schroder and b7482 to
    their seeds, s(1) = s(2) = 1 and b(0..2) = 1, 1, 3, for this test."""
    for name in ("_little_schroder_terms", "_b7482_terms"):
        monkeypatch.setattr(gfseries, name, getattr(gfseries, name)[:3])


def plain_recurrences(top):
    """s(0..top) (s[0] unused) and b(0..top), by the plain recurrences."""
    s, b = [0, 1, 1], [1, 1, 3]
    for n in range(2, top):
        s.append((3 * (2 * n - 1) * s[n] - (n - 2) * s[n - 1]) // (n + 1))
    for n in range(3, top + 1):
        b.append(3 * b[n - 1] + 2 * b[n - 2])
    return s, b


def test_recurrences_reach_n_2000_from_a_cold_cache(monkeypatch):
    # A recursion on n would overflow the stack long before n = 2000; the
    # recurrences extend their lists of terms in a loop, so a cold call
    # reaches it in one go.
    cold_recurrences(monkeypatch)
    s, b = plain_recurrences(2000)
    # The defining convolution, on a prefix: s(n) = -s(n-1) + 2 sum s(k) s(n-k).
    for n in range(3, 100):
        assert s[n] == -s[n - 1] + 2 * sum(s[k] * s[n - k] for k in range(1, n))
    assert closed_form(SequenceId.LITTLE_SCHRODER, 2000) == s[2000]
    assert closed_form(SequenceId.D1_PAIR_2341_1423, 2000) == b[2000]


def test_recurrences_called_in_descending_order(monkeypatch):
    # The first call fills each list up to n = 300; every later one reads it.
    cold_recurrences(monkeypatch)
    s, b = plain_recurrences(300)
    assert {n: little_schroder(n) for n in range(300, 0, -1)} == dict(enumerate(s[1:], start=1))
    assert {n: b7482(n) for n in range(300, -1, -1)} == dict(enumerate(b))


def test_recurrences_from_threads_that_race(monkeypatch):
    # Four threads extend the same cold lists at once, each from its own n
    # downward, with the interpreter switching threads every microsecond.
    cold_recurrences(monkeypatch)
    s, b = plain_recurrences(300)
    got = []

    def run(top):
        got.append(({n: little_schroder(n) for n in range(top, 0, -1)},
                    {n: b7482(n) for n in range(top, -1, -1)}))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(top,)) for top in (300, 200, 250, 150)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4  # no thread raised
    for gs, gb in got:
        assert gs == {n: s[n] for n in gs} and gb == {n: b[n] for n in gb}
    assert (gfseries._little_schroder_terms, gfseries._b7482_terms) == (s, b)


def test_elizalde_sequences():
    assert [a_elizalde(n) for n in range(8)] == [1, 1, 1, 2, 3, 7, 12, 30]
    assert b_elizalde(4) == 1
    assert b_elizalde(5) == 2
    assert b_elizalde(2) == 0


def test_d1_2143_table_golden():
    got = [closed_form(SequenceId.D1_2143_TABLE, n) for n in range(11)]
    assert got == [1, 1, 2, 7, 36, 239, 1892, 17015, 168503, 1799272, 20409644]


def test_closed_form_validity_errors():
    with pytest.raises(ValueError, match="d1_213"):
        closed_form(SequenceId.D1_213, 0)
    with pytest.raises(ValueError, match="0 <= n <= 10"):
        closed_form(SequenceId.D1_2143_TABLE, 11)
    seq = SequenceId.D4_321_1
    assert (seq.lo, seq.hi) == (1, None)


def test_single_occurrence_identity_to_30():
    for n in range(1, 31):
        assert closed_form(SequenceId.D4_321_1, n) == (
            closed_form(SequenceId.NOONAN, n) + closed_form(SequenceId.NOONAN, n + 1))
        assert closed_form(SequenceId.NOONAN, n) == closed_form(SequenceId.ZEILBERGER, n)


def test_sequence_ids_keep_their_names_values_and_order():
    assert SequenceId("catalan") is SequenceId.CATALAN
    assert SequenceId.CATALAN == "catalan"
    assert SequenceId["D1_132"].value == "d1_132"
    ids = list(SequenceId)
    assert len(ids) == len({s.value for s in ids}) == 46  # no member is an alias
    assert (ids[0], ids[-1]) == (SequenceId.CATALAN, SequenceId.D4_321_1)
    seq = SequenceId.A343795_D4_312
    assert (seq.lo, seq.hi) == (0, 11)
    assert closed_form("d1_213", 4) == closed_form(SequenceId.D1_213, 4) == 5


def test_closed_form_small_values():
    assert [closed_form(SequenceId.D4_1324, n) for n in range(7)] == \
        [1, 1, 3, 7, 13, 21, 31]
    assert [closed_form(SequenceId.D4_1234, n) for n in range(7)] == \
        [1, 1, 2, 4, 0, 0, 0]
    assert closed_form(SequenceId.D2_2143, 4) == a_elizalde(4) * a_elizalde(5)
    assert closed_form(SequenceId.D1_321_1, 5) == 16
    assert closed_form(SequenceId.A343795_D4_312, 11) == 7803860


def test_bc_coefficients_match_binomials():
    order = 12
    c = catalan_series(order)
    b = central_binomial_series(order)
    bc3 = b * c.pow(3)
    assert bc3.coefficient(2) == comb(2 * 2 + 3, 2) == 21
    for k in range(1, 7):
        ck = c.pow(k)
        for n in range(order + 1):
            assert ck.coefficient(n) * (n + k) == k * comb(2 * n + k - 1, n) * (n + k) // (n + k)
            assert Fraction(k, n + k) * comb(2 * n + k - 1, n) == ck.coefficient(n)


def test_gf_identities_check_all_pass():
    checks = gf_identities_check(14)
    assert checks, "expected a nonempty fragment"
    failed = [c.name for c in checks if not c.ok]
    assert not failed, failed


def test_gf_identities_check_requires_order_8():
    with pytest.raises(ValueError):
        gf_identities_check(7)


def test_catalan_number_sanity():
    assert [catalan_number(n) for n in range(-1, 9)] == \
        [0, 1, 1, 2, 5, 14, 42, 132, 429, 1430]
