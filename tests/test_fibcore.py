import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeckblocks import fibcore
from zeckblocks.beatty import wythoff_A
from zeckblocks.codec import valid_blocks
from zeckblocks.fibcore import (
    PHI,
    GoldenNumber,
    fib,
    fib_pair,
    fib_times_phi_pow,
    golden_cmp,
    phi_pow,
)
from zeckblocks.solver import MAX_POSITION, density, solve_positional

golden_numbers = st.builds(GoldenNumber, st.integers(-50, 50), st.integers(-50, 50))


def test_fib_base_cases():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55


def test_fib_recurrence():
    for n in range(2, 400):
        assert fib(n) == fib(n - 1) + fib(n - 2)


def test_fib_is_arbitrary_precision():
    assert fib(93) > 2**63
    assert fib(1000).bit_length() > 690


def test_fib_rejects_negative_index():
    for f in (fib, fib_pair, lambda n: fib_times_phi_pow(n, 0)):
        with pytest.raises(ValueError):
            f(-1)


def _additive(indices) -> dict[int, tuple[int, int]]:
    """(F(n), F(n+1)) for each n, by one walk of additions from (0, 1)."""
    out, a, b, i = {}, 0, 1, 0
    for n in sorted(set(indices)):
        for _ in range(n - i):
            a, b = b, a + b
        i, out[n] = n, (a, b)
    return out


# every small index, n = 0 with no doubling level among them, both sides
# of the table's end, both sides of each power of two, where the doubling
# gains a level, and random indices to 10^5
_T = fibcore._T
_INDICES = ([*range(65)] + [*range(_T - 2, _T + 3)]
            + [2**j + d for j in range(1, 17) for d in (-1, 0, 1)]
            + random.Random(10).sample(range(10**5 + 1), 12) + [10**5])


@pytest.fixture(scope="module")
def additive():
    return _additive(_INDICES + [n + 1 for n in _INDICES])


def test_fib_and_lucas_doubling_against_additions(additive):
    for n in _INDICES:
        f, f1 = additive[n]
        f2 = f + f1
        assert fib(n) == f, n
        assert fib_pair(n) == (f, f1), n
        # L(n) = F(n-1) + F(n+1) = 2F(n+1) - F(n)
        assert fibcore._lucas_pair(n) == (2 * f1 - f, 2 * f2 - f1), n
        # F(n) * phi**-n and F(n) * phi**-(n+1), from phi**-n =
        # (-1)**n * (F(n+1) - F(n)*phi)
        s = -1 if n % 2 else 1
        assert fib_times_phi_pow(n, -n) == (f, GoldenNumber(s * f * f1, -s * f * f)), n
        assert fib_times_phi_pow(n, -n - 1) == (f, GoldenNumber(-s * f * f2, s * f * f1)), n
        assert fib_times_phi_pow(n, 0) == (f, GoldenNumber(f, 0)), n


def test_phi_pow_against_additions(additive):
    for m in _INDICES:
        f, f1 = additive[m]
        s = -1 if m % 2 else 1
        assert phi_pow(m) == GoldenNumber(f1 - f, f), m  # (F(m-1), F(m))
        assert phi_pow(-m) == GoldenNumber(s * f1, -s * f), m


def test_far_densities_stay_small_in_memory():
    # nothing is cached between calls: each peak is bounded by the answer,
    # not by every Fibonacci number below it
    for call in (lambda: density("0", MAX_POSITION),
                 lambda: solve_positional("0", MAX_POSITION).terms(3)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def test_fibonacci_product_identity():
    # F(m)F(n) + F(m+1)F(n+1) = F(m+n+1)
    for m in range(1, 61):
        for n in range(1, 61):
            assert fib(m) * fib(n) + fib(m + 1) * fib(n + 1) == fib(m + n + 1)


def test_phi_pow_coefficients():
    assert phi_pow(0) == GoldenNumber(1, 0)
    for m in range(1, 201):
        assert phi_pow(m) == GoldenNumber(fib(m - 1), fib(m))


def test_phi_pow_examples():
    assert phi_pow(1) == GoldenNumber(0, 1)
    assert phi_pow(3) == GoldenNumber(1, 2)
    inv = phi_pow(-1)
    assert inv == GoldenNumber(-1, 1)
    assert inv * PHI == GoldenNumber(1, 0)


def test_phi_pow_inverse_law():
    one = GoldenNumber(1, 0)
    for m in range(-50, 51):
        assert phi_pow(m) * phi_pow(-m) == one


def test_phi_defining_relation():
    assert PHI * PHI == GoldenNumber(1, 1)


@given(golden_numbers, golden_numbers, golden_numbers)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + GoldenNumber(0, 0) == x
    assert x * GoldenNumber(1, 0) == x
    assert x - x == GoldenNumber(0, 0)


@given(golden_numbers, st.integers(-20, 20))
def test_integer_scalars(x, k):
    assert x * k == x * GoldenNumber(k, 0)
    assert k * x == x * k
    assert x + k == x + GoldenNumber(k, 0)
    assert x - k == GoldenNumber(x.a - k, x.b)
    assert k - x == GoldenNumber(k - x.a, -x.b)
    assert -x == GoldenNumber(-x.a, -x.b)


def test_golden_cmp_examples():
    assert golden_cmp(PHI, Fraction(8, 5)) == 1
    assert golden_cmp(PHI, Fraction(13, 8)) == -1
    assert golden_cmp(GoldenNumber(2, 0), 2) == 0
    assert golden_cmp(GoldenNumber(-1, 1), Fraction(61803, 100000)) == 1
    assert golden_cmp(GoldenNumber(-1, 1), Fraction(61804, 100000)) == -1
    assert golden_cmp(GoldenNumber(0, -1), -2) == 1


# phi lies strictly between these convergents, so they bound a + b*phi from
# both sides; golden_cmp must agree whenever the rational is outside the gap.
_BELOW = Fraction(fib(88), fib(87))
_ABOVE = Fraction(fib(87), fib(86))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.fractions(min_value=-10**7, max_value=10**7))
def test_golden_cmp_against_convergent_bounds(a, b, q):
    x = GoldenNumber(a, b)
    lo, hi = sorted((a + b * _BELOW, a + b * _ABOVE))
    if q < lo:
        assert golden_cmp(x, q) == 1
    elif q > hi:
        assert golden_cmp(x, q) == -1


_BIG = st.integers(-10**200, 10**200)


@given(_BIG, _BIG, _BIG, st.integers(-2, 2))
def test_golden_cmp_integer_path_agrees_with_fractions(a, b, q, d):
    # q at random, and q within about 2 of a + b*phi, where only the
    # squared comparison decides
    root = math.isqrt(5 * b * b)
    near = a + (b + (root if b >= 0 else -root)) // 2 + d
    x = GoldenNumber(a, b)
    for q in (q, near):
        want = golden_cmp(x, Fraction(q))
        assert golden_cmp(x, q) == want
        assert golden_cmp(GoldenNumber(Fraction(a), b), q) == want


def _beatty_sign(a: int, b: int, q: int | Fraction) -> int:
    """Sign of a + b*phi - q from the Beatty floor A(n) = floor(n*phi) alone:
    b*phi is irrational for b != 0, so for an integer d, b*phi > d iff
    A(b) >= d when b > 0, and iff -A(-b) > d when b < 0.  A rational
    q = u/v scales to v*a + v*b*phi against u."""
    q = Fraction(q)
    u, v = q.numerator, q.denominator
    a, b = v * a, v * b
    if b == 0:
        return (a > u) - (a < u)
    if b > 0:
        return 1 if wythoff_A(b) >= u - a else -1
    return 1 if wythoff_A(-b) < a - u else -1


def _floor_times_phi(b: int) -> int:
    return wythoff_A(b) if b > 0 else -wythoff_A(-b) - 1 if b < 0 else 0


_DIGITS40 = st.integers(-10**40, 10**40)
_SMALL = st.integers(-30, 30)


@given(st.one_of(_SMALL, _DIGITS40), st.one_of(_SMALL, _DIGITS40),
       st.builds(GoldenNumber, _DIGITS40, st.one_of(_SMALL, _DIGITS40)))
def test_order_agrees_with_the_beatty_floor(a, b, offset):
    # q at a + floor(b*phi) + {-1, 0, 1, 2}, where b*sqrt(5) and t are close,
    # far off on each side, and each of those plus a half, on the Fraction path
    base = a + _floor_times_phi(b)
    near = [base + d for d in (-1, 0, 1, 2, -10**45, 10**45)]
    x = GoldenNumber(a, b)
    for q in near + [q + Fraction(1, 2) for q in near]:
        want = _beatty_sign(a, b, q)
        assert golden_cmp(x, q) == want, (a, b, q)
        # against q, and between two GoldenNumbers that share an offset, by __sub__
        for left, right in ((x, q), (x + offset, GoldenNumber(offset.a + q, offset.b))):
            got = (left < right, left <= right, left > right, left >= right)
            assert got == (want < 0, want <= 0, want > 0, want >= 0), (a, b, q, offset)


def test_order_of_two_far_densities_with_negative_parts():
    # a density difference at k = 20000: a + b*phi with b and t = -2a - b
    # both negative and about 27k bits long, so golden_cmp squares both
    x = density("00", 20000).value - density("01", 19999).value
    assert x.b < 0 and -2 * x.a - x.b < 0 and x.b.bit_length() > 27_000
    assert golden_cmp(x, 0) == _beatty_sign(x.a, x.b, 0)
    base = x.a + _floor_times_phi(x.b)
    for q in (base - 1, base, base + 1, base + 2, 0):
        assert golden_cmp(x, q) == _beatty_sign(x.a, x.b, q), q - base


@pytest.mark.parametrize("expression", [
    lambda: GoldenNumber(1, 1) + Fraction(1, 2),
    lambda: Fraction(1, 2) + GoldenNumber(1, 1),
    lambda: GoldenNumber(1, 1) * 1.5,
    lambda: GoldenNumber(1, 1) - "2",
])
def test_arithmetic_with_another_type_is_a_type_error(expression):
    # + - * return NotImplemented for an operand that is neither an int nor
    # a GoldenNumber, so Python raises TypeError
    with pytest.raises(TypeError):
        expression()


def test_ordering_operators():
    assert phi_pow(-1) < phi_pow(0) < phi_pow(1) < phi_pow(2)
    assert PHI > 1
    assert PHI < 2
    assert GoldenNumber(0, 3) >= GoldenNumber(1, 2)  # 3phi vs 1 + 2phi
    assert GoldenNumber(1, 2) <= GoldenNumber(0, 3) and PHI <= PHI and PHI <= 2
    # mixed-type comparisons at equality: each operator decides by golden_cmp
    assert GoldenNumber(2, 0) <= 2 and GoldenNumber(2, 0) >= 2
    assert GoldenNumber(2, 0) <= Fraction(2)
    assert not GoldenNumber(2, 0) < 2 and not GoldenNumber(2, 0) > 2
    with pytest.raises(TypeError):
        PHI < "2"
    values = [phi_pow(m) for m in range(-6, 7)]
    assert sorted(values) == values


def test_str_rendering():
    assert str(GoldenNumber(15, -9)) == "15 - 9*phi"
    assert str(GoldenNumber(0, 1)) == "phi"
    assert str(GoldenNumber(-1, 1)) == "-1 + phi"
    assert str(GoldenNumber(7, 0)) == "7"
    assert str(GoldenNumber(0, -1)) == "-phi"


def test_float_is_display_only_but_sane():
    assert abs(float(PHI) - 1.618033988749895) < 1e-12


@pytest.mark.parametrize("k", [0, 8, 40, 800, 5000])
def test_float_of_a_density_is_within_one_ulp(k):
    # a density at position k is a + b*phi with a, b near phi^k, so the
    # float must not come from the cancelling sum a + b*float(phi)
    for m in range(1, 5):
        for w in valid_blocks(m):
            value = density(w, k).value
            f = float(value)
            ulp = Fraction(math.ulp(f))
            assert golden_cmp(value, Fraction(f) - ulp) > 0, (w, k, f)
            assert golden_cmp(value, Fraction(f) + ulp) < 0, (w, k, f)
