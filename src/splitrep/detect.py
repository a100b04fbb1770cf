"""Detectors for t-overlaps, split and reversed-split occurrences, disjoint pairs.

A t-overlap is u u u' with u nonempty, |u| >= max(t, 1), and u' the first t
letters of u (a 0-overlap is a square). A split occurrence of a repetition
is a factor x y z of the host word whose outer parts concatenate to the
repetition: x z for the split kind, z x for the reversed kind. Both x and z
must be nonempty; whether the gap y may be empty is a convention choice
(see GapConvention). Detectors report the lexicographically least witness
index tuple (i, j, j', l) so results are deterministic.

Complexity note: the t-overlap and split detectors enumerate index tuples
(quartic, with O(1) period tests via a common-extension table) and are
meant for desk-scale words. The boolean scanners in the search module are
the fast path for long words. find_disjoint_pair indexes factor starts and
takes O(L n log L) on a word of L letters.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .words import Word, occurrences


class GapConvention(enum.Enum):
    """Whether the gap y in a split occurrence x y z may be empty.

    EMPTY_OK is the calibrated default: it reproduces the known extremal
    values (see tests). GAP_REQUIRED demands |y| >= 1.
    """

    EMPTY_OK = "empty-ok"
    GAP_REQUIRED = "gap-required"

    @property
    def min_gap(self) -> int:
        return 0 if self is GapConvention.EMPTY_OK else 1


class ViolationKind(enum.Enum):
    T_OVERLAP = "t-overlap"
    SPLIT_T_OVERLAP = "split-t-overlap"
    REVERSED_SPLIT_T_OVERLAP = "reversed-split-t-overlap"
    DISJOINT_PAIR = "disjoint-pair"


@dataclass(frozen=True)
class Violation:
    """A located repetition occurrence.

    Spans are inclusive (start, end) index pairs into the host word;
    z_span is None for contiguous kinds. repetition is the assembled
    x·z, z·x, or contiguous factor.
    """

    kind: ViolationKind
    t_or_n: int
    x_span: tuple[int, int]
    z_span: tuple[int, int] | None
    repetition: Word


def is_t_overlap(w: Word, t: int) -> bool:
    """True iff the whole word is u u u' with |u| >= max(t, 1), u' = u[:t]."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = len(w)
    if (n - t) % 2 != 0:
        return False
    m = (n - t) // 2
    if m < max(t, 1):
        return False
    s = w.symbols
    return all(s[i] == s[i + m] for i in range(m + t))


def _lce_table(s: tuple[int, ...]) -> list[list[int]]:
    """lce[a][b] = length of the longest common prefix of s[a:] and s[b:]."""
    n = len(s)
    lce = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n - 1, -1, -1):
        row = lce[a]
        nxt = lce[a + 1]
        sa = s[a]
        for b in range(n - 1, -1, -1):
            if sa == s[b]:
                row[b] = nxt[b + 1] + 1
    return lce


def _concat_is_t_overlap(lce, p1: int, len1: int, p2: int, len2: int, t: int) -> bool:
    """Does s[p1:p1+len1] + s[p2:p2+len2] form a t-overlap?  O(1) via lce."""
    total = len1 + len2
    if (total - t) % 2 != 0:
        return False
    m = (total - t) // 2
    if m < max(t, 1):
        return False
    need = m + t  # r[i] == r[i+m] for i in [0, need)
    # zone 1: both indices inside the first segment
    hi1 = min(need, len1 - m)
    if hi1 > 0 and lce[p1][p1 + m] < hi1:
        return False
    # zone 2: i in first segment, i+m in second
    lo2 = max(0, len1 - m)
    hi2 = min(need, len1)
    if hi2 > lo2 and lce[p1 + lo2][p2 + lo2 + m - len1] < hi2 - lo2:
        return False
    # zone 3: both inside the second segment
    lo3 = max(0, len1)
    if need > lo3 and lce[p2 + lo3 - len1][p2 + lo3 + m - len1] < need - lo3:
        return False
    return True


def find_t_overlap_factor(w: Word, t: int) -> Violation | None:
    """Least (start, end) factor of w that is a t-overlap, or None."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    s = w.symbols
    n = len(s)
    lce = _lce_table(s)
    for i in range(n):
        for length in range(2 * max(t, 1) + t, n - i + 1):
            if (length - t) % 2 != 0:
                continue
            m = (length - t) // 2
            if lce[i][i + m] >= m + t:
                return Violation(
                    kind=ViolationKind.T_OVERLAP,
                    t_or_n=t,
                    x_span=(i, i + length - 1),
                    z_span=None,
                    repetition=w.factor(i, i + length - 1),
                )
    return None


def find_split_t_overlap(
    w: Word, t: int, convention: GapConvention = GapConvention.EMPTY_OK
) -> Violation | None:
    """Least (i, j, j', l) with x = w[i..j], z = w[j'..l] and x·z a t-overlap."""
    return _find_split(w, t, convention, reversed_kind=False)


def find_reversed_split_t_overlap(
    w: Word, t: int, convention: GapConvention = GapConvention.EMPTY_OK
) -> Violation | None:
    """Least (i, j, j', l) with x = w[i..j], z = w[j'..l] and z·x a t-overlap."""
    return _find_split(w, t, convention, reversed_kind=True)


def _find_split(
    w: Word, t: int, convention: GapConvention, reversed_kind: bool
) -> Violation | None:
    """Least (i, j, j', l) with x = w[i..j], z = w[j'..l] and x·z a
    t-overlap, or z·x when reversed_kind."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    s = w.symbols
    n = len(s)
    mg = convention.min_gap
    lce = _lce_table(s)
    for i in range(n):
        for j in range(i, n):
            len1 = j - i + 1
            for jp in range(j + 1 + mg, n):
                for l in range(jp, n):
                    len2 = l - jp + 1
                    if reversed_kind:
                        hit = _concat_is_t_overlap(lce, jp, len2, i, len1, t)
                    else:
                        hit = _concat_is_t_overlap(lce, i, len1, jp, len2, t)
                    if hit:
                        x, z = s[i : j + 1], s[jp : l + 1]
                        if reversed_kind:
                            kind, rep = ViolationKind.REVERSED_SPLIT_T_OVERLAP, z + x
                        else:
                            kind, rep = ViolationKind.SPLIT_T_OVERLAP, x + z
                        return Violation(
                            kind=kind,
                            t_or_n=t,
                            x_span=(i, j),
                            z_span=(jp, l),
                            repetition=Word(rep, w.k),
                        )
    return None


def find_disjoint_pair(w: Word, n: int) -> Violation | None:
    """Least pair of disjoint occurrences of a common length-n factor, or None.

    The starts of each length-n factor are indexed once, in increasing
    order; for each p1 in turn, the least start p2 >= p1 + n of the same
    factor is a bisection away, so the first p1 that has one gives the
    lexicographically least (p1, p2).
    """
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    s = w.symbols
    starts: dict[tuple[int, ...], list[int]] = {}
    for p in range(len(s) - n + 1):
        starts.setdefault(s[p : p + n], []).append(p)
    for p1 in range(len(s) - 2 * n + 1):
        later = starts[s[p1 : p1 + n]]
        i = bisect_left(later, p1 + n)
        if i < len(later):
            p2 = later[i]
            return Violation(
                kind=ViolationKind.DISJOINT_PAIR,
                t_or_n=n,
                x_span=(p1, p1 + n - 1),
                z_span=(p2, p2 + n - 1),
                repetition=w.factor(p1, p1 + n - 1),
            )
    return None


def count_nondisjoint_occurrences(w: Word, x: Word) -> int:
    """Number of occurrences of x in w (callers pair it with the cap ceil(n/per))."""
    return len(occurrences(w, x))
