"""Exact sequences and truncated power series.

Everything here is integer or rational arithmetic; no floating point.  The
module supplies

* :class:`TruncatedSeries`, an exact integer power series cut at a fixed
  order, with ring operations and division by units;
* its product and quotient kernels: the schoolbook arithmetic, term for
  term, over operands with their trailing zeros trimmed;
* the Genocchi numbers, from the integer recurrence for the tangent numbers;
* the continued fraction for Dumont-4 permutations avoiding 1423 (OEIS
  A343795), swept as a numerator and a denominator, and an independent sweep
  over the P/R/S/T block system it comes from, both in x = z^2 and cut
  level by level (see :func:`_levels`);
* every closed-form counting formula used by the verification harness,
  each declared once as a :class:`SequenceId` member that carries its
  value string, its range of validity and its formula.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from operator import add, mul, sub
from typing import Callable, Iterator, Optional

from . import golden as _golden


# ---------------------------------------------------------------------------
# Product and quotient kernels


def _top(cs, n: int) -> int:
    """The index of the last nonzero coefficient of ``cs`` up to n, or -1."""
    top = min(len(cs) - 1, n)
    while top >= 0 and not cs[top]:
        top -= 1
    return top


def _product(a, b, n: int) -> list:
    """Coefficients 0..n of a*b, each one C-level sum over slices of the
    operands with their trailing zeros trimmed."""
    out = [0] * (n + 1)
    ta, tb = _top(a, n), _top(b, n)
    if ta < 0 or tb < 0:
        return out
    if ta < tb:  # b the shorter, so that no slice of it outruns the other
        a, b, ta, tb = b, a, tb, ta
    left, rev = a[:ta + 1], b[tb::-1]
    top = min(ta + tb, n)
    out[:top + 1] = [sum(map(mul, left[max(k - tb, 0):k + 1], rev[max(tb - k, 0):]))
                     for k in range(top + 1)]
    return out


def _quotient(a, b, n: int) -> list:
    """Coefficients 0..n of a/b, each of which must divide exactly by b[0].

    An inexact division raises at the first failing index.
    """
    if not b[0]:
        raise ValueError("division by a series with zero constant term")
    last = _top(b, n)
    d0, rev = b[0], b[last::-1]
    quot: list[int] = []
    for k in range(n + 1):
        # b[j] * quot[k-j] for j = min(k, last) down to 1.
        acc = a[k] - sum(map(mul, quot[max(k - last, 0):], rev[max(last - k, 0):last]))
        term, rem = divmod(acc, d0)
        if rem:
            raise ValueError(f"inexact series division at coefficient {k}")
        quot.append(term)
    return quot


class TruncatedSeries:
    """An integer power series truncated at a fixed order (inclusive).

    Operations on mismatched orders truncate to the smaller one.  Division
    requires a nonzero constant term and checks exact divisibility at every
    coefficient.  Products and quotients run the kernels :func:`_product`
    and :func:`_quotient`, which skip the trailing zeros of short operands
    (such as the Catalan truncations of the A343795 sweeps).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: Optional[int] = None):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"non-integer coefficient {c!r}")
        if order is not None:
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, coeffs) -> "TruncatedSeries":
        """Wrap coefficients that are already ints, skipping ``__init__``'s
        per-coefficient check."""
        out = object.__new__(cls)
        out.coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if k < 0:
            return 0
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _match(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._match(other)
        return TruncatedSeries._of(map(add, self.coeffs[:n + 1], other.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._match(other)
        return TruncatedSeries._of(map(sub, self.coeffs[:n + 1], other.coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of([-c for c in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(_product(self.coeffs, other.coeffs, self._match(other)))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(
            _quotient(self.coeffs, other.coeffs, self._match(other)))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z**k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError(f"shift needs k >= 0, got {k}")
        n = self.order
        return TruncatedSeries._of(((0,) * k + self.coeffs)[:n + 1])

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries([c * x for x in self.coeffs])

    def pow(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError(f"pow needs k >= 0, got {k}")
        out = TruncatedSeries.one(self.order)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Base sequences


def catalan_number(n: int) -> int:
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return comb(2 * n, n)


def _binom0(a: int, b: int) -> int:
    """Binomial coefficient that is 0 for a negative lower index."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def _exact_ratio(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"non-integral closed form: {num}/{den}")
    return quot


def catalan_series(order: int) -> TruncatedSeries:
    return TruncatedSeries([catalan_number(i) for i in range(order + 1)])


def central_binomial_series(order: int) -> TruncatedSeries:
    return TruncatedSeries([central_binomial(i) for i in range(order + 1)])


# ---------------------------------------------------------------------------
# The continued fraction for Dumont-4 permutations avoiding 1423
#
# Every series of the continued fraction and of the block system it comes
# from is even or odd in z, so both sweeps run in x = z^2: z*R and P are even
# and kept as they are, the odd R is kept as R/z.


def _levels(nterms: int) -> Iterator[tuple]:
    """``(k, 1, E_k, x*O_k, x*O_{k-1})`` for each level k of the sweeps, from
    k = (nterms + 1) // 3 down to 0, each at order ``nterms + 1 - 3k``, where
    E_k = sum_{i<=k} C(2i) x^i and O_k = sum_{i<=k} C(2i+1) x^i are the even
    and odd Catalan truncations (O_{-1} = 0).

    The cut is exact.  Each sweep carries one series from level k+1 to level
    k (z*R, or R/z) through three nested fractions, each of which multiplies
    a change in it by x, so a change at coefficient c of level k+1 moves
    level k only from coefficient c+3 on (Flajolet's convergent argument,
    "Combinatorial aspects of continued fractions", 1980).  So level k is
    needed only to order ``nterms + 1 - 3k``, the zero tail above the top
    level moves only coefficients from 3 * (top + 1) > nterms + 1 on, and
    the carried series, cut one level higher, may be padded with anything;
    the sweeps pad with zeros.  The pair num, den that stands for z*R has
    den(0) = 1, so cut at an order it fixes num/den to that order.
    """
    if nterms < 0:
        raise ValueError("nterms must be >= 0")
    order = nterms + 1
    top = order // 3
    cat = [catalan_number(d) for d in range(2 * top + 2)]
    evens, odds = cat[0::2], cat[1::2]
    for k in range(top, -1, -1):
        cut = order - 3 * k
        yield (k, TruncatedSeries.one(cut),
               *(TruncatedSeries._of((cs + [0] * cut)[:cut + 1])
                 for cs in (evens[:k + 1], [0] + odds[:k + 1], [0] + odds[:k])))


def d4_1423_series(nterms: int) -> TruncatedSeries:
    """Counting sequence of Dumont-4 permutations avoiding 1423.

    Coefficient n of the result is the number of such permutations of size
    2n, for 0 <= n <= nterms.  Level k of :func:`_levels` maps z*R = num/den
    to xE_k / ((1 - xO_{k-1})^2 - xE_k / ((1 - xO_k) - xE_k E_k / (1 - z*R))),
    that is xE_k q / ((1 - xO_{k-1})^2 q - xE_k w) for w = den - num and
    q = (1 - xO_k) w - xE_k E_k den, again with den(0) = 1; so it divides once.
    """
    num, den = TruncatedSeries.zero(0), TruncatedSeries.one(0)  # z * R above the top level
    for _, one, e, xo_hi, xo_lo in _levels(nterms):
        num, den = (TruncatedSeries(s.coeffs, one.order) for s in (num, den))
        xe = e.shift(1)
        w = den - num
        q = (one - xo_hi) * w - xe * e * den
        base = one - xo_lo
        num, den = xe * q, base * base * q - xe * w
    # The coefficient of x^(n+1) in z*R_1 counts size 2n.
    return TruncatedSeries._of((num / den).coeffs[1:])


@dataclass(frozen=True)
class BlockSystemSolution:
    """The P and R families of the block-decomposition system, keyed by
    index, as series in x = z^2: ``p[i]`` is P_i and ``r[i]`` is R_i / z.

    The members of level k, P_{2k+2} and R_{2k+1}, are held to that level's
    order ``nterms + 1 - 3k``, for k from (nterms + 1) // 3 down to 0."""

    p: dict[int, TruncatedSeries]
    r: dict[int, TruncatedSeries]
    nterms: int

    def series(self) -> TruncatedSeries:
        """The counting sequence: coefficient n of R_1 / z counts size 2n."""
        return TruncatedSeries._of(self.r[1].coeffs[:self.nterms + 1])


def solve_prst_system(nterms: int) -> BlockSystemSolution:
    """Solve the block system by a downward sweep in x = z^2.

    At each level, P at the even index is solved given R one level deeper,
    then R at the odd index given that P; S and T feed neither, so they
    are not formed.  The sweep runs down the levels of :func:`_levels`, with
    the tail R above the top one set to zero.  The resulting R_1 reproduces
    :func:`d4_1423_series`, which checks the continued fraction against the
    system it was derived from.
    """
    p_fam: dict[int, TruncatedSeries] = {}
    r_fam: dict[int, TruncatedSeries] = {}
    r_next = TruncatedSeries.zero(0)  # R_{2k+3} / z above the loop body
    for k, one, e, xo_hi, xo_lo in _levels(nterms):
        r_next = TruncatedSeries(r_next.coeffs, one.order)
        # P_{2k+2} = 1 / ((1 - xO_k) - xE^2 / w) for w = 1 - z * R_{2k+3}.
        w = one - r_next.shift(1)
        p_cur = w / ((one - xo_hi) * w - (e * e).shift(1))
        # R_{2k+1} / z given P_{2k+2}.
        base = one - xo_lo
        r_next = r_fam[2 * k + 1] = e / (base * base - (e * p_cur).shift(1))
        p_fam[2 * k + 2] = p_cur
    return BlockSystemSolution(p=p_fam, r=r_fam, nterms=nterms)


# ---------------------------------------------------------------------------
# Genocchi numbers


def _tangent_numbers(count: int) -> list[int]:
    """T_1..T_count, with tan(x) = sum_k T_k x^(2k-1) / (2k-1)!.

    Brent and Harvey's TangentNumbers recurrence ("Fast computation of
    Bernoulli, Tangent and Secant numbers", 2013): O(count^2) integer
    additions and multiplications by small factors, no division.
    """
    t = [1] * count
    for k in range(1, count):
        t[k] = k * t[k - 1]
    for k in range(1, count):
        for j in range(k, count):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def genocchi(n: int) -> int:
    """The unsigned Genocchi number G(2n), n >= 1 (OEIS A110501).

    G(2n) = n * T_n / 4^(n-1) for the tangent number T_n; the division must
    be exact.
    """
    if n < 1:
        raise ValueError("genocchi(n) requires n >= 1")
    return _exact_ratio(n * _tangent_numbers(n)[-1], 1 << (2 * n - 2))


# ---------------------------------------------------------------------------
# Closed forms


# The finished terms of the two recurrences below, s(m) or b(m) at index m.
# Each call extends its list up to n, so a run over n = 1..N costs O(N) steps.
# The lock keeps two threads from appending the same index twice.
_little_schroder_terms = [0, 1, 1]  # index 0 is unused
_b7482_terms = [1, 1, 3]
_terms_lock = threading.Lock()


def little_schroder(n: int) -> int:
    """Little Schroeder numbers 1, 1, 3, 11, 45, 197, 903, ... (n >= 1), by
    (m+1) s(m+1) = 3(2m-1) s(m) - (m-2) s(m-1) from s(1) = s(2) = 1."""
    if n < 1:
        raise ValueError("little_schroder(n) requires n >= 1")
    s = _little_schroder_terms
    with _terms_lock:
        for m in range(len(s) - 1, n):
            s.append(_exact_ratio(3 * (2 * m - 1) * s[m] - (m - 2) * s[m - 1], m + 1))
    return s[n]


def b7482(n: int) -> int:
    """1, 1, 3, 11, 39, 139, 495, ...: b(n) = 3 b(n-1) + 2 b(n-2) from n = 3."""
    if n < 0:
        raise ValueError("b7482(n) requires n >= 0")
    b = _b7482_terms
    with _terms_lock:
        for m in range(len(b), n + 1):
            b.append(3 * b[m - 1] + 2 * b[m - 2])
    return b[n]


def a_elizalde(n: int) -> int:
    if n < 0:
        raise ValueError("a_elizalde(n) requires n >= 0")
    m = n // 2
    if n % 2 == 0:
        return _exact_ratio(comb(3 * m, m), 2 * m + 1)
    return _exact_ratio(comb(3 * m + 1, m), m + 1)


def b_elizalde(n: int) -> int:
    if n < 0:
        raise ValueError("b_elizalde(n) requires n >= 0")
    if n % 2 == 0:
        k = n // 2
        return _binom0(3 * k - 3, k - 2)
    k = (n - 1) // 2
    return 2 * _binom0(3 * k - 2, k - 2)


def _noonan(n: int) -> int:
    return _exact_ratio(3 * _binom0(2 * n, n - 3), n)


def _zeilberger(n: int) -> int:
    return catalan_number(n + 2) - 4 * catalan_number(n + 1) + 3 * catalan_number(n)


class SequenceId(str, Enum):
    """A closed form, declared once.  Each member is its value string, the
    first n it holds for, the last (None when unbounded) and the formula."""

    def __new__(cls, value: str, lo: int, hi: Optional[int], formula: Callable[[int], int]):
        member = str.__new__(cls, value)
        member._value_ = value
        member.lo, member.hi, member.formula = lo, hi, formula
        return member

    def covers(self, n: int) -> bool:
        """Whether the closed form holds at index n."""
        return self.lo <= n and (self.hi is None or n <= self.hi)

    CATALAN = "catalan", 0, None, catalan_number
    CENTRAL_BINOMIAL = "central_binomial", 0, None, central_binomial
    GENOCCHI = "genocchi", 1, None, genocchi
    LITTLE_SCHRODER = "little_schroder", 1, None, little_schroder
    B7482 = "b7482", 0, None, b7482
    A_ELIZALDE = "a_elizalde", 0, None, a_elizalde
    B_ELIZALDE = "b_elizalde", 0, None, b_elizalde
    D1_2143_TABLE = "d1_2143_table", 0, 10, lambda n: _golden.d1_wilf_pair_counts()[n]
    A343795_D4_312 = "a343795_d4_312", 0, 11, lambda n: _golden.a343795_prefix()[n]
    NOONAN = "noonan", 1, None, _noonan
    ZEILBERGER = "zeilberger", 1, None, _zeilberger
    D1_132 = "d1_132", 0, None, catalan_number
    D1_231 = "d1_231", 0, None, catalan_number
    D1_312 = "d1_312", 0, None, catalan_number
    D1_213 = "d1_213", 1, None, lambda n: catalan_number(n - 1)
    D1_321 = "d1_321", 0, None, lambda n: 1
    D1_123 = "d1_123", 3, None, lambda n: 4
    D2_123 = "d2_123", 3, None, lambda n: 0
    D2_132 = "d2_132", 3, None, lambda n: 0
    D2_213 = "d2_213", 3, None, lambda n: 0
    D2_231 = "d2_231", 1, None, lambda n: 2 ** (n - 1)
    D2_312 = "d2_312", 0, None, lambda n: 1
    D2_321 = "d2_321", 0, None, catalan_number
    D2_3142 = "d2_3142", 0, None, catalan_number
    D2_4132 = "d2_4132", 0, None, catalan_number
    D2_2143 = "d2_2143", 0, None, lambda n: a_elizalde(n) * a_elizalde(n + 1)
    D1_PAIR_1342_1423 = "d1_pair_1342_1423", 0, None, lambda n: little_schroder(n + 1)
    D1_PAIR_2341_2413 = "d1_pair_2341_2413", 0, None, lambda n: little_schroder(n + 1)
    D1_PAIR_1342_2413 = "d1_pair_1342_2413", 0, None, lambda n: little_schroder(n + 1)
    D1_PAIR_231_4213 = "d1_pair_231_4213", 1, None, lambda n: 1
    D1_PAIR_1342_4213 = "d1_pair_1342_4213", 1, None, lambda n: 2 ** (n - 1)
    D1_PAIR_2341_1423 = "d1_pair_2341_1423", 3, None, b7482
    D4_1234 = "d4_1234", 0, None, lambda n: (1, 1, 2, 4)[n] if n <= 3 else 0
    D4_1342 = "d4_1342", 1, None, lambda n: 2 ** (n - 1)
    D4_1432 = "d4_1432", 0, None, catalan_number
    D4_1324 = "d4_1324", 0, None, lambda n: n * n - n + 1
    D4_1243 = "d4_1243", 0, None, lambda n: n * n - n + 1
    D1_132_1 = "d1_132_1", 0, None, lambda n: 0
    D1_312_1 = "d1_312_1", 0, None, lambda n: 0
    D1_231_1 = "d1_231_1", 0, None, lambda n: _binom0(2 * n - 2, n - 3)
    D1_213_1 = "d1_213_1", 4, None, lambda n: catalan_number(n - 2) + _binom0(2 * n - 4, n - 4)
    D1_321_1 = "d1_321_1", 2, None, lambda n: (n - 1) ** 2
    D2_321_1 = "d2_321_1", 2, None, lambda n: _exact_ratio(5 * _binom0(2 * n, n - 2), n + 3)
    D2_3142_1 = "d2_3142_1", 2, None, lambda n: _binom0(2 * n - 1, n - 2)
    D2_2143_1 = "d2_2143_1", 2, None, lambda n: (a_elizalde(n) * b_elizalde(n + 1)
                                                 + b_elizalde(n) * a_elizalde(n + 1)
                                                 + a_elizalde(n - 1) * a_elizalde(n))
    D4_321_1 = "d4_321_1", 1, None, lambda n: (catalan_number(n + 3) - 3 * catalan_number(n + 2)
                                               - catalan_number(n + 1) + 3 * catalan_number(n))


def closed_form(seq: SequenceId, n: int) -> int:
    """Exact value of the named sequence at index n; errors outside validity."""
    seq = SequenceId(seq)
    if not seq.covers(n):
        top = "inf" if seq.hi is None else str(seq.hi)
        raise ValueError(f"{seq.value} is defined for {seq.lo} <= n <= {top}, got {n}")
    return seq.formula(n)


# ---------------------------------------------------------------------------
# Generating-function identities


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str = ""


def gf_identities_check(order: int) -> list[IdentityCheck]:
    """Coefficient-wise verification of the classical series identities.

    Checks, to the given order: the Catalan and central-binomial functional
    equations, the coefficient formulas for C^k and B*C^k (k <= 6), the
    algebraic equation of the little Schroeder generating function, and the
    series forms of the single-occurrence counting formulas.
    """
    if order < 8:
        raise ValueError("identity checks need order >= 8")
    out: list[IdentityCheck] = []
    c = catalan_series(order)
    b = central_binomial_series(order)
    one = TruncatedSeries.one(order)
    z = TruncatedSeries([0, 1], order)

    def check(name: str, ok: bool, detail: str = "") -> None:
        out.append(IdentityCheck(name, ok, detail))

    check("C = 1 + zC^2", c == one + z * c * c)
    check("B = 1 + 2zBC", b == one + (b * c).shift(1).scale(2))

    for k in range(1, 7):
        ck = c.pow(k)
        ok = all(Fraction(k, n + k) * comb(2 * n + k - 1, n) == ck.coefficient(n)
                 for n in range(order + 1))
        check(f"C^{k} coefficients", ok)
        bck = b * ck
        ok = all(comb(2 * n + k, n) == bck.coefficient(n) for n in range(order + 1))
        check(f"BC^{k} coefficients", ok)

    s = TruncatedSeries([0] + [little_schroder(n) for n in range(1, order + 1)])
    lhs = (s.scale(4) - z - one)
    check("(4s - x - 1)^2 = 1 - 6x + x^2",
          lhs * lhs == TruncatedSeries([1, -6, 1], order))

    c6 = c.pow(6)
    for name, series, seq in (
            ("(z^2+z^3)C^6", c6.shift(2) + c6.shift(3), SequenceId.D4_321_1),
            ("z^3BC^4", (b * c.pow(4)).shift(3), SequenceId.D1_231_1),
            ("z^2C^5", c.pow(5).shift(2), SequenceId.D2_321_1),
            ("z^2BC^3", (b * c.pow(3)).shift(2), SequenceId.D2_3142_1),
            ("z^2C + z^4BC^4", c.shift(2) + (b * c.pow(4)).shift(4), SequenceId.D1_213_1)):
        check(f"{name} matches {seq.value}",
              all(series.coefficient(n) == closed_form(seq, n) for n in range(seq.lo, order + 1)))
    return out
