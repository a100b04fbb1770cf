"""De Bruijn words and the explicit lower-bound constructions for C(k,2), C(k,3).

The order-3 construction uses the feedback function f(a1 a2 a3) = a1+a2-a3
(mod k), whose shift map partitions all triples into cycles; a successor
rule g joins the cycles into a single de Bruijn cycle that is guaranteed
to contain abab or baba for every pair a != b. Inserting ab after that
occurrence (and aa after each aaa) yields a word of length k^3+k^2+k+2
with no two disjoint occurrences of a length-3 factor; the order-2
analogue (duplicate the middle of each aa) gives length k^2+k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .words import Word

_WINDOW_BUDGET = 2_000_000  # max k**n windows debruijn_order_n enumerates


class ConstructionError(RuntimeError):
    """A self-validating construction produced an invalid word."""


def feedback_f(k: int, a1: int, a2: int, a3: int) -> int:
    """f(a1 a2 a3) = (a1 + a2 - a3) mod k."""
    return (a1 + a2 - a3) % k


def shift_map_F(k: int, w3: tuple[int, int, int]) -> tuple[int, int, int]:
    """F(a1 a2 a3) = a2 a3 f(a1 a2 a3); a bijection on triples."""
    a1, a2, a3 = w3
    return (a2, a3, feedback_f(k, a1, a2, a3))


@dataclass(frozen=True)
class CyclePartition:
    """The cycles of the shift map F on all k^3 triples.

    cycles are listed with their lexicographically least element first and
    sorted by that representative; representatives mirrors that order.
    """

    k: int
    cycles: tuple[tuple[tuple[int, int, int], ...], ...]
    representatives: tuple[tuple[int, int, int], ...]


def cycle_partition(k: int) -> CyclePartition:
    """Decompose all triples over Sigma_k into cycles of F."""
    if k < 1:
        raise ValueError("need k >= 1")
    seen: set[tuple[int, int, int]] = set()
    cycles = []
    for start in product(range(k), repeat=3):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = shift_map_F(k, start)
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = shift_map_F(k, cur)
        rep = min(cyc)
        i = cyc.index(rep)
        cycles.append(tuple(cyc[i:] + cyc[:i]))
    cycles.sort(key=lambda c: c[0])
    return CyclePartition(
        k=k,
        cycles=tuple(cycles),
        representatives=tuple(c[0] for c in cycles),
    )


def _representative_set(k: int) -> set[tuple[int, int, int]]:
    return set(cycle_partition(k).representatives)


def tau_sequence(
    k: int, a2: int, a3: int, reps: set[tuple[int, int, int]] | None = None
) -> list[int]:
    """The joining sequence tau(a2 a3) used by the successor rule.

    Increasing symbols c with (a2, a3, c) a cycle representative, then:
    if 0 is in the sequence and (a2, a3, 0) != (0, 0, 0), prepend
    f(0 a2 a3); if 0 is absent and the sequence is nonempty, prepend 0.
    """
    if reps is None:
        reps = _representative_set(k)
    tau = [c for c in range(k) if (a2, a3, c) in reps]
    if tau and tau[0] == 0:
        if (a2, a3) != (0, 0):
            tau.insert(0, feedback_f(k, 0, a2, a3))
    elif tau:
        tau.insert(0, 0)
    return tau


class SuccessorRule:
    """Next-symbol rule over triples derived from the cycle-joining sequences.

    Iterating from any seed visits all k^3 triples in k^3 steps.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("need k >= 2")
        self.k = k
        reps = _representative_set(k)
        self._tau = {
            (a2, a3): tau_sequence(k, a2, a3, reps)
            for a2 in range(k)
            for a3 in range(k)
        }

    def next_symbol(self, a1: int, a2: int, a3: int) -> int:
        fv = feedback_f(self.k, a1, a2, a3)
        tau = self._tau[(a2, a3)]
        for j, tj in enumerate(tau):
            if tj == fv:
                return tau[(j + 1) % len(tau)]
        return fv


def _window_census_ok(symbols: list[int], k: int, n: int) -> bool:
    """Each length-n word occurs exactly once in the cyclic word symbols."""
    total = len(symbols)
    if total != k ** n:
        return False
    seen = set()
    for i in range(total):
        win = tuple(symbols[(i + j) % total] for j in range(n))
        if win in seen:
            return False
        seen.add(win)
    return len(seen) == k ** n


def debruijn_order3_special(k: int) -> Word:
    """A k-ary de Bruijn word of order 3 containing abab or baba for all a != b.

    Generated by the successor rule from seed 000 and linearized by
    appending the first two symbols (length k^3 + 2). Self-validates the
    window census and the pair coverage; raises on failure so a wrong
    reading of the joining rule cannot propagate silently.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    rule = SuccessorRule(k)
    seq = [0, 0, 0]
    for _ in range(k ** 3 - 3):
        seq.append(rule.next_symbol(seq[-3], seq[-2], seq[-1]))
    if not _window_census_ok(seq, k, 3):
        raise ConstructionError("successor rule did not produce a de Bruijn word")
    linear = seq + seq[:2]
    text = linear
    for a in range(k):
        for b in range(a + 1, k):
            ab = [a, b, a, b]
            ba = [b, a, b, a]
            if not any(
                text[i : i + 4] in (ab, ba) for i in range(len(text) - 3)
            ):
                raise ConstructionError(
                    f"de Bruijn word lacks {a}{b}{a}{b} and {b}{a}{b}{a}"
                )
    return Word(tuple(linear), k)


def debruijn_order_n(k: int, n: int) -> Word:
    """A linear de Bruijn word of length k^n + n - 1 (greedy prefer-largest).

    The prefer-largest greedy scan from 0^n always completes; the window
    census is validated before returning.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if k ** n > _WINDOW_BUDGET:
        raise ValueError("window budget exceeded")
    if k == 1:
        return Word((0,) * n, 1)
    word = [0] * n
    seen = {tuple(word)}
    target = k ** n
    while len(seen) < target:
        for a in range(k - 1, -1, -1):
            win = tuple(word[-(n - 1):] + [a]) if n > 1 else (a,)
            if win not in seen:
                seen.add(win)
                word.append(a)
                break
        else:
            raise ConstructionError("greedy de Bruijn construction stalled")
    # linear word of length k^n + n - 1 contains each window exactly once
    wins = {tuple(word[i : i + n]) for i in range(len(word) - n + 1)}
    if len(word) != k ** n + n - 1 or len(wins) != target:
        raise ConstructionError("greedy de Bruijn construction invalid")
    return Word(tuple(word), k)


def construct_c2_lower(k: int) -> Word:
    """Length k^2+k+1 word with no two disjoint occurrences of a length-2 factor.

    Take a linear order-2 de Bruijn word (each window exactly once, so each
    aa occurs at one site) and replace every aa with aaa.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    base = list(debruijn_order_n(k, 2).symbols)
    out = []
    i = 0
    while i < len(base):
        if i + 1 < len(base) and base[i] == base[i + 1]:
            out.extend([base[i]] * 3)
            i += 2
        else:
            out.append(base[i])
            i += 1
    w = Word(tuple(out), k)
    if len(w) != k * k + k + 1:
        raise ConstructionError("order-2 construction has wrong length")
    return w


def construct_c3_lower(k: int) -> Word:
    """Length k^3+k^2+k+2 word with no two disjoint occurrences of a length-3 factor.

    Start from the special order-3 de Bruijn word; for each pair a < b
    insert ab after the abab occurrence (or ba after baba), then insert aa
    after each aaa. Positions are re-found after every insertion. The
    disjointness property itself is validated by the caller-facing checks
    in the search/detect layers; here only structural failures raise.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    out = list(debruijn_order3_special(k).symbols)

    def find(pat):
        for i in range(len(out) - len(pat) + 1):
            if out[i : i + len(pat)] == pat:
                return i
        return -1

    for a in range(k):
        for b in range(a + 1, k):
            pos = find([a, b, a, b])
            if pos >= 0:
                out[pos + 4 : pos + 4] = [a, b]
                continue
            pos = find([b, a, b, a])
            if pos < 0:
                raise ConstructionError(f"no {a}{b}-alternation found for insertion")
            out[pos + 4 : pos + 4] = [b, a]
    for a in range(k):
        pos = find([a, a, a])
        if pos < 0:
            raise ConstructionError(f"no {a}{a}{a} occurrence found for insertion")
        out[pos + 3 : pos + 3] = [a, a]
    w = Word(tuple(out), k)
    if len(w) != k ** 3 + k * k + k + 2:
        raise ConstructionError("order-3 construction has wrong length")
    return w
