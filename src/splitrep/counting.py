"""Counting formulas and closed-form bounds for disjoint-occurrence extremal words.

Exact counts (primitive words, unbordered words, period census) plus the
upper bounds on C(k,n), the length of the longest k-ary word with no two
disjoint occurrences of a single length-n factor, and the derived bounds
for the split-overlap quantities S(k,t) and R(k,t). All counts are exact
arbitrary-precision integers; the one bound that is genuinely rational is
returned as a Fraction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .words import EmptyWordError, Word, failure_function, period

CENSUS_BUDGET = 2_000_000  # max k**n enumerated by smallest_periods


class BudgetExceededError(ValueError):
    """Raised when an exact enumeration would exceed the enumeration budget."""


def mobius(d: int) -> int:
    """Standard Mobius function via trial-division factorization."""
    if d <= 0:
        raise ValueError(f"mobius argument must be >= 1, got {d}")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def primitive_count(k: int, n: int) -> int:
    """Number of primitive words of length n over a k-letter alphabet."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    return sum(mobius(d) * k ** (n // d) for d in _divisors(n))


def unbordered_count(k: int, n: int) -> int:
    """Number of unbordered words of length n over a k-letter alphabet.

    Uses the recurrence u(1) = k, u(2m+1) = k*u(2m), u(2m) = k*u(2m-1) - u(m);
    verified against brute-force enumeration in the test suite.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    u = [0] * (n + 1)
    u[1] = k
    for i in range(2, n + 1):
        if i % 2 == 1:
            u[i] = k * u[i - 1]
        else:
            u[i] = k * u[i - 1] - u[i // 2]
    return u[n]


@lru_cache(maxsize=1)
def smallest_periods(k: int, n: int) -> tuple[int, ...]:
    """Smallest period of every length-n word over Sigma_k; entry v is the
    word of base-k value v (itertools.product order). At most CENSUS_BUDGET
    words are enumerated, else BudgetExceededError. The last table is kept,
    so a search and its tasks enumerate it once."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if k ** n > CENSUS_BUDGET:
        raise BudgetExceededError(f"{k}**{n} words exceed the budget {CENSUS_BUDGET}")
    return tuple(n - failure_function(syms)[-1] for syms in product(range(k), repeat=n))


def period_census(k: int, n: int) -> dict[int, int]:
    """Map p -> number of length-n words over Sigma_k with smallest period p."""
    return dict(Counter(smallest_periods(k, n)))


def max_nondisjoint_cap(x: Word) -> int:
    """ceil(|x| / per(x)): the most occurrences of x a word can hold without
    containing two disjoint ones."""
    if len(x) == 0:
        raise EmptyWordError("empty input")
    n = len(x)
    p = period(x)
    return -(-n // p)


def occurrence_witness(x: Word) -> Word:
    """A word containing the cap-many occurrences of x and no two disjoint ones.

    Writes x = y^f u with y the shortest period block and u a nonempty
    prefix of y, then returns (uv)^(2f) u where y = uv. For unbordered x
    (f = 0) this degenerates to x itself, whose single occurrence meets
    the cap of 1.
    """
    if len(x) == 0:
        raise EmptyWordError("empty input")
    n = len(x)
    p = period(x)
    f = (n - 1) // p
    ulen = n - f * p
    y = x.symbols[:p]
    u = y[:ulen]
    v = y[ulen:]
    return Word((u + v) * (2 * f) + u, x.k)


def pigeonhole_bound(k: int, n: int) -> int:
    """Largest length consistent with the strict pigeonhole bound n*(k^n + 1)."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    return n * (k ** n + 1) - 1


@lru_cache(maxsize=1)
def theorem_sum_bound(k: int, n: int) -> int:
    """Exact evaluation of (sum over all length-n words of ceil(n/per)) + n - 1."""
    return _period_sum(n, period_census(k, n))


def _period_sum(n: int, census: dict[int, int]) -> int:
    """theorem_sum_bound from the period census of the length-n words."""
    return sum(c * (-(-n // p)) for p, c in census.items()) + n - 1


def corollary_bound(k: int, n: int) -> Fraction:
    """Closed-form bound k^n(1 + 1/k + 1/k^2) + n(k^(floor(n/2)+1) - 1)/(k-1) + n - 1.

    The exponent n/2 is evaluated as floor(n/2) (periods are integers, so
    the middle term only grows); requires k >= 2.
    """
    if k < 2:
        raise ValueError("closed-form bound requires k >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    kn = k ** n
    first = kn * (Fraction(1) + Fraction(1, k) + Fraction(1, k * k))
    middle = Fraction(n * (k ** (n // 2 + 1) - 1), k - 1)
    return first + middle + n - 1


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one (k, n) or (k, t) pair.

    entries maps a formula label to an (relation, value) pair, where
    relation is '=' for exact statements and '<=' for upper bounds.
    best is the smallest applicable upper bound (equal to the exact value
    when one is known).
    """

    family: str
    k: int
    n_or_t: int
    entries: dict[str, tuple[str, object]] = field(default_factory=dict)
    best: object = None
    lemma_per_word_caps: dict[int, int] | None = None


def c_bounds(k: int, n: int) -> BoundReport:
    """All applicable bounds on C(k, n), with the per-period occurrence caps."""
    entries: dict[str, tuple[str, object]] = {}
    caps = None
    if k == 1:
        entries["unary-exact"] = ("=", 2 * n - 1)
    if n == 1:
        entries["single-letter-exact"] = ("=", k)
    entries["pigeonhole"] = ("<=", pigeonhole_bound(k, n))
    try:
        caps = period_census(k, n)
        entries["period-sum"] = ("<=", _period_sum(n, caps))
    except BudgetExceededError:
        pass
    if k >= 2:
        entries["closed-form"] = ("<=", corollary_bound(k, n))
    if k >= 1 and n == 2:
        entries["de-bruijn-construction"] = ("=", k * k + k + 1)
    if k >= 2 and n == 3:
        entries["de-bruijn-construction"] = ("=", k ** 3 + k * k + k + 2)
    best = min((v for _, (rel, v) in entries.items()), default=None)
    return BoundReport(
        family="C", k=k, n_or_t=n, entries=entries, best=best, lemma_per_word_caps=caps
    )


def s_upper_bounds(
    k: int, t: int, c_values: dict[tuple[int, int], int] | None = None
) -> BoundReport:
    """Bounds on S(k, t); the identical bounds hold for R(k, t).

    The composed bound S(k,t) <= C(k, C(k,t)+1) substitutes the period-sum
    bound for any C value not supplied in c_values (valid by monotonicity).
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    c_values = c_values or {}
    entries: dict[str, tuple[str, object]] = {}
    if t == 0:
        entries["repeated-letter-exact"] = ("=", k)
    if k == 1 and t >= 1:
        entries["unary-exact"] = ("=", 3 * t - 1)
    if t == 1 and k >= 2:
        entries["pigeonhole-factor"] = ("<=", k ** (k + 1) + k - 1)
    if t >= 1:

        def c_of(kk, nn):
            if (kk, nn) in c_values:
                return c_values[(kk, nn)]
            return theorem_sum_bound(kk, nn)

        try:
            inner = c_of(k, t)
            entries["composition"] = ("<=", c_of(k, inner + 1))
        except BudgetExceededError:
            pass
    best = min((v for _, (rel, v) in entries.items()), default=None)
    return BoundReport(family="S/R", k=k, n_or_t=t, entries=entries, best=best)
