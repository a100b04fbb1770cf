"""Incremental violation checkers driving the extremal searches.

Each engine holds a growable word and answers "does appending this letter
create a violation?" in amortized near-constant time. The check is
suffix-anchored: any violation created by an append has the final piece
of its witness factor ending at the new position, so only candidates
anchored there are examined.

A depth-first search drives an engine with three calls per node:

  * verdicts(letters) checks every candidate letter at the current node at
    once and returns, per letter, None (the append would violate) or a
    token holding what the check computed for it (the letter's run row, or
    for the disjoint-factor engine the length-n factor it completes). Work
    that depends only on the node, such as the prefix values, the rows of
    all letters and the short-threat lookups, is done once, not per letter.
  * commit(a, token) appends a with the token verdicts() gave it at this
    node, without checking again. Tokens stay valid while the engine is at
    that node, including after pushes below it have been popped.
  * pop() undoes the last append.

can_extend (pure check) and try_push (check and commit) do the same for a
single letter; both engines share one definition of each.

Factor contents are keyed by their base-k integer value (exact, no
hashing collisions) via prefix value arrays, so dictionary lookups do the
occurrence bookkeeping:

  * disjoint-factor engine: earliest start of every length-n factor;
  * split/reversed engines, for the cases where the suffix pins the
    repetition's period block: the earliest end of every factor of length
    at most S0 = SHORT_FACTOR_LEN, plus an occurrence index `occ` from each
    length-S0 factor to the ascending list of positions where it ends. A
    longer factor is found by walking the ends of its length-S0 suffix and
    confirming each candidate with an exact value comparison. `_seen`
    answers both tiers;
  * split/reversed engines, for the cases where the earlier piece pins the
    block: a "threat" table of exact strings whose later appearance as a
    suffix completes a violation. A threat of length q is filed under the
    value of its first q - 1 letters, then its last letter: the first q - 1
    letters of a matching suffix are the word's own last q - 1, so one
    lookup per length yields every letter the threats bar, whatever their
    length.

A push thus inserts at most S0 factors however deep the word is. It also
records lrs, the length of the longest suffix that ended earlier too. A
factor longer than the lrs of its end has no earlier occurrence, so the
check looks up only pinned pieces no longer than that, and since every
run is a repeated suffix, lrs also caps the periods worth visiting. lrs
stays small on long violation-free words (at most 14 on a 134-letter
R(2,4) word), so the check no longer grows with depth. A split x.z whose
later piece is longer than one period pins x, so it is looked up from the
suffix at check time and is not armed as a threat. What still grows with
depth is building the rows (one entry per earlier occurrence of a letter,
about L/k) and the threats a push arms for later pieces no longer than
one period, whose number follows the runs of the word.
"""

from __future__ import annotations

from collections.abc import Sequence

from .detect import GapConvention
from .words import failure_function

# DisjointFactorEngine token for a letter that completes no length-n factor yet
_NO_GRAM = -1

# S0 in the comments: factors up to this length get exact per-length tables;
# longer ones are found through occurrence lists keyed by their last S0
# letters
SHORT_FACTOR_LEN = 12


# the single-letter calls, the same code for every engine. Each class binds
# them in its own namespace, where perfbench's tracer wraps them per class
def _can_extend(self, a: int) -> bool:
    return self.verdicts((a,))[0] is not None


def _try_push(self, a: int) -> bool:
    token = self.verdicts((a,))[0]
    if token is None:
        return False
    self.commit(a, token)
    return True


class DisjointFactorEngine:
    """No two disjoint occurrences of any single length-n factor.

    Tracks remaining occurrence capacity for the length-reachability bound:
    a factor with smallest period p fits at most ceil(n/p) occurrences, and
    once seen, all of them must start within n-1 positions of the first.
    Capacity that can no longer be used (expired windows) is forfeited, so
    max_reachable_length() is a certified bound for the current branch.
    """

    def __init__(self, k: int, n: int):
        if k < 1 or n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        self.k = k
        self.n = n
        self.kn = k ** n
        self.word: list[int] = []
        self.grams: list[int] = []     # per depth: last n symbols' value, or _NO_GRAM
        self.earliest: dict[int, int] = {}
        self.caps = self._gram_caps()
        self.remaining: dict[int, int] = {}  # live seen grams -> occurrences left
        self.unseen_total = sum(self.caps)
        self.live_total = 0
        self.expiry: dict[int, list[int]] = {}  # length at which grams go dead
        self.trail: list[tuple[int | None, list[tuple[int, int]]]] = []

    def _gram_caps(self) -> list[int]:
        """cap[value] = ceil(n / per(word-of-value)) for every length-n word."""
        n = self.n
        k = self.k
        caps = []
        for value in range(self.kn):
            syms = []
            v = value
            for _ in range(n):
                syms.append(v % k)
                v //= k
            syms.reverse()
            p = n - failure_function(syms)[-1]
            caps.append(-(-n // p))
        return caps

    def verdicts(self, letters: Sequence[int]) -> list[int | None]:
        """For each letter, None if appending it repeats a length-n factor
        disjointly, else the token commit() takes: the value of the length-n
        factor it completes, or _NO_GRAM while the word is shorter."""
        L = len(self.word)
        n = self.n
        if L + 1 < n:
            return [_NO_GRAM] * len(letters)
        if L >= n:
            base = self.grams[-1] * self.k % self.kn
        else:
            base = 0
            for s in self.word:
                base = base * self.k + s
            base *= self.k
        earliest = self.earliest
        lim = L + 1 - 2 * n
        out = []
        for a in letters:
            g = base + a
            e = earliest.get(g)
            out.append(g if e is None or e > lim else None)
        return out

    can_extend = _can_extend
    try_push = _try_push

    def commit(self, a: int, g: int) -> None:
        """Append a with the token verdicts() gave it at the current node; no check."""
        self.word.append(a)
        ell = len(self.word)
        self.grams.append(g)
        # grams first seen at length ell - n die now: any further occurrence
        # would start >= earliest + n and be disjoint
        forfeits: list[tuple[int, int]] = []
        for x in self.expiry.get(ell, ()):
            rem = self.remaining.pop(x, None)
            if rem is not None:
                forfeits.append((x, rem))
                self.live_total -= rem
        new_gram = None
        consumed = None
        if g != _NO_GRAM:
            if g not in self.earliest:
                new_gram = g
                self.earliest[g] = ell - self.n
                cap = self.caps[g]
                self.unseen_total -= cap
                if cap > 1:
                    self.remaining[g] = cap - 1
                    self.live_total += cap - 1
                    self.expiry.setdefault(ell + self.n, []).append(g)
            else:
                # a repeat is overlapping, hence live with remaining >= 1
                consumed = g
                rem = self.remaining[g] - 1
                self.live_total -= 1
                if rem:
                    self.remaining[g] = rem
                else:
                    del self.remaining[g]
        self.trail.append((new_gram, consumed, forfeits))

    def pop(self) -> None:
        self.word.pop()
        ell = len(self.word) + 1  # the length the undone push had created
        self.grams.pop()
        new_gram, consumed, forfeits = self.trail.pop()
        if consumed is not None:
            self.remaining[consumed] = self.remaining.get(consumed, 0) + 1
            self.live_total += 1
        if new_gram is not None:
            g = new_gram
            del self.earliest[g]
            cap = self.caps[g]
            self.unseen_total += cap
            if cap > 1:
                self.live_total -= cap - 1
                del self.remaining[g]
                bucket = self.expiry[ell + self.n]
                bucket.pop()
                if not bucket:
                    del self.expiry[ell + self.n]
        for x, rem in forfeits:
            self.remaining[x] = rem
            self.live_total += rem

    def max_reachable_length(self) -> int:
        """Certified bound on the length of any extension of the current word."""
        return (
            max(len(self.word), self.n - 1) + self.unseen_total + self.live_total
        )


class SplitOverlapEngine:
    """No split (or, in reversed mode, reversed split) occurrence of a t-overlap.

    A violation is either a contiguous t-overlap factor, or nonempty
    factors x before z with gap >= min_gap whose concatenation x.z
    (z.x in reversed mode) is a t-overlap. With t = 0 a letter is barred
    iff it already occurs: every 0-overlap, contiguous or split, is a
    square uu, whose two pieces hold two occurrences of u's first letter,
    and two occurrences of a letter are a split aa (or, adjacent, a
    contiguous one) under either gap convention.
    """

    def __init__(
        self,
        k: int,
        t: int,
        convention: GapConvention = GapConvention.EMPTY_OK,
        reversed_mode: bool = False,
    ):
        if k < 1 or t < 0:
            raise ValueError("need k >= 1 and t >= 0")
        self.k = k
        self.t = t
        self.mg = convention.min_gap
        self.rev = reversed_mode
        self.word: list[int] = []
        self.pos: list[list[int]] = [[] for _ in range(k)]
        # per position: period m -> run length, m ascending
        self.runs: list[dict[int, int]] = []
        self.pref: list[int] = [0]             # pref[i] = value of word[:i], base k
        self.powk: list[int] = [1, k]          # powk[i] = k**i, i <= len(word) + 1
        # fdicts[q]: value of a length-q factor -> its earliest end, q <= S0
        self.fdicts: list[dict[int, int]] = [{} for _ in range(SHORT_FACTOR_LEN + 1)]
        # lrs[p]: length of the longest suffix of word[:p + 1] that also ends
        # before p. Below S0 it is where the fdicts inserts of push p stopped
        self.lrs: list[int] = []
        # occ: value of a length-S0 factor -> ascending ends of its occurrences
        self.occ: dict[int, list[int]] = {}
        self.occ_mod = k ** SHORT_FACTOR_LEN
        # tdicts[q]: value of a threat's first q - 1 letters -> {its last
        # letter: earliest x end}; grown with powk, one table per length
        self.tdicts: list[dict[int, dict[int, int]]] = [{}, {}]
        self.td_trail: list[list[tuple[int, int]]] = []   # (length, value) per push

    def _seen(self, s: int, v: int, bound: int) -> bool:
        """True iff the factor of length s with value v ends at or before bound.

        Up to S0 the per-length table holds its earliest end. A longer factor
        is found by walking the ends of its length-S0 suffix in ascending
        order and confirming each candidate by comparing exact values.
        """
        if s <= SHORT_FACTOR_LEN:
            e = self.fdicts[s].get(v)
            return e is not None and e <= bound
        ends = self.occ.get(v % self.occ_mod)
        if ends:
            pref = self.pref
            ps = self.powk[s]
            for e in ends:
                if e > bound:
                    break
                if e >= s - 1 and pref[e + 1] - pref[e + 1 - s] * ps == v:
                    return True
        return False

    def verdicts(self, letters: Sequence[int]) -> list[dict[int, int] | None]:
        """For each letter, None if appending it creates a violation, else
        its run row (period m -> run length at the new position), the token
        commit() takes."""
        pos = self.pos
        t = self.t
        if not t:
            # barred iff the letter already occurs (see the class docstring)
            return [None if pos[a] else {} for a in letters]
        word = self.word
        L = len(word)
        mg = self.mg
        barred = set()
        if L:
            # a threat's first q - 1 letters are the word's last q - 1, so
            # one lookup per length answers every letter. Every threat is a
            # factor seen before, so those q - 1 letters are a repeated
            # suffix: q <= lrs[L - 1] + 1
            tdicts = self.tdicts
            powk = self.powk
            pL = self.pref[L]
            for q in range(1, min(L - mg, self.lrs[-1] + 1) + 1):
                d = tdicts[q]
                if d:
                    hits = d.get(pL % powk[q - 1])
                    if hits:
                        lim = L - q - mg
                        for a, e in hits.items():
                            if e <= lim:
                                barred.add(a)
        # the rows of the letters left, periods ascending: each earlier
        # position p of a letter starts a run of period L - p, which one pass
        # over the previous row extends where that run reached the previous
        # letter
        rows = {}
        for a in letters:
            if a not in barred:
                rows[a] = {L - p: 1 for p in reversed(pos[a])}
        if self.runs:
            for m, r in self.runs[-1].items():
                row = rows.get(word[L - m])
                if row is not None:
                    if r + 1 >= m + t and m >= t:
                        # contiguous t-overlap: the run reaches m + t letters
                        del rows[word[L - m]]
                    else:
                        row[m] = r + 1
        out = []
        for a in letters:
            row = rows.get(a)
            out.append(None if row is None or self._period_violates(row) else row)
        return out

    def _period_violates(self, row: dict[int, int]) -> bool:
        """The per-letter part of the check (t >= 1): factors pinned by the
        suffix through the periods in row, which come in ascending order.

        Each pinned x is looked up only if it can have occurred before: a
        factor with a known end p that is longer than lrs[p] has no earlier
        occurrence, and every lookup bound lies below its p. Since
        lrs[p] <= lrs[p - 1] + 1, e + lrs[p - e] never decreases as e grows,
        so the loops below run from the longest offset down and stop at the
        first x too long to repeat. A run in row is a repeated suffix too
        (r - 1 <= lrs[L - 1]), which caps the offsets, and with them the
        periods worth visiting, before the loops start.
        """
        L = len(self.word)
        ell = L + 1
        t = self.t
        mg = self.mg
        pref = self.pref
        powk = self.powk
        lrs = self.lrs
        seen = self._seen
        if not row:
            return False
        # a period m >= t in row has a run r <= m + t - 1 (no t-overlap)
        mfit = (ell - t - mg) // 2  # longer periods leave no room for x
        if not self.rev:
            # z = suffix V.P.P[:t] with period m; x = P[:m-g] seen earlier,
            # the factor of length m - g ending at L - t - g, g <= r - t
            gtop = lrs[-1] + 1 - t
            mcap = gtop + lrs[L - t - gtop] if gtop >= 0 else 0
            if mcap > mfit:
                mcap = mfit
            for m, r in row.items():
                if m > mcap:
                    break  # so are all longer periods
                if r < t or m < t:
                    continue
                base = pref[ell - m - t]
                for g in range(r - t, -1, -1):
                    s = m - g
                    if s > lrs[L - t - g]:
                        break
                    v = pref[ell - t - g] - base * powk[s]
                    if seen(s, v, L - m - t - g - mg):
                        return True
            if t > 1:
                # z = the suffix of length m + t - c with period m, 0 < c < t
                # (x.z splits the t-overlap inside its second period): z[:m]
                # is y, ending at L - (t - c), and x = y[-c:].y seen earlier
                mcap = max(lrs[L - t + 1 :])  # y must repeat
                if mcap > mfit:
                    mcap = mfit
                for m, r in row.items():
                    if m > mcap:
                        break
                    if m < t:
                        continue
                    pm = powk[m]
                    for c in range(t - r if t - r > 1 else 1, t):
                        p = L - t + c
                        if m > lrs[p]:
                            continue
                        pe = pref[p + 1]
                        v = (pe - pref[p + 1 - c] * powk[c]) * pm + (
                            pe - pref[p + 1 - m] * pm
                        )
                        if seen(m + c, v, L - m - t + c - mg):
                            return True
        else:
            # z = periodic suffix of length s > m pinning Q; x = Q[s-m:] seen
            # earlier. With j = s - m: for j > t, x is the factor of length
            # m + t - j ending at L - (j - t); for j <= t it starts with the
            # new suffix of length m, which extends a repeated old suffix.
            # h = j - t <= r - t <= lrs[L - 1] + 1 - t
            lrs1 = lrs[-1] + 1
            htop = lrs1 - t if lrs1 - t > 1 else 1
            mcap = htop + lrs[L - htop]
            if mcap > mfit:
                mcap = mfit
            for m, r in row.items():
                if m > mcap:
                    break  # so are all longer periods
                if m < t:
                    continue
                for s in range(m + r, m, -1):
                    h = s - m - t
                    if m > (h + lrs[L - h] if h > 1 else lrs1):
                        break
                    xlen = 2 * m + t - s
                    zstart = ell - s
                    v2 = pref[zstart + t] - pref[zstart] * powk[t]
                    if s <= 2 * m:
                        v1 = pref[ell + m - s] - pref[ell - m] * powk[2 * m - s]
                        v = v1 * powk[t] + v2
                    else:
                        v = pref[zstart + t] - pref[ell - 2 * m] * powk[xlen]
                    if seen(xlen, v, L - s - mg):
                        return True
        return False

    can_extend = _can_extend
    try_push = _try_push

    def commit(self, a: int, row: dict[int, int]) -> None:
        """Append a with the row verdicts() gave it at the current node; no check."""
        word = self.word
        L = len(word)
        ell = L + 1
        t = self.t
        k = self.k
        pref = self.pref
        powk = self.powk
        word.append(a)
        self.pos[a].append(L)
        self.runs.append(row)
        pe = pref[L] * k + a
        pref.append(pe)
        if len(powk) == ell + 1:
            powk.append(powk[-1] * k)
            self.tdicts.append({})
        # longest suffix first: once one is already present, so are all
        # shorter ones (they end inside its earlier occurrence)
        q = ell if ell < SHORT_FACTOR_LEN else SHORT_FACTOR_LEN
        v = pe - pref[ell - q] * powk[q]
        if q == SHORT_FACTOR_LEN:
            self.occ.setdefault(v, []).append(L)
        fdicts = self.fdicts
        while q:
            d = fdicts[q]
            if v in d:
                break
            d[v] = L
            q -= 1
            v %= powk[q]
        lrs = self.lrs
        if q == SHORT_FACTOR_LEN:
            # the repeated suffix may be longer than S0, by at most one letter
            # more than the previous one
            top = lrs[-1] + 1
            while q < top and self._seen(
                q + 1, pe - pref[ell - q - 1] * powk[q + 1], L - 1
            ):
                q += 1
        lrs.append(q)
        armed: list[tuple[int, int]] = []  # (length, value) of each threat
        # a run r of period m >= t fits in the word (r <= L - m + 1) and
        # stops short of a t-overlap (r <= m + t - 1); with t = 0 the row
        # is empty
        if not self.rev:
            # x = P.P[:c] ending here arms the exact string (P.P[:t])[c:]:
            # the next q letters of the period-m run, starting at ell - m,
            # which all lie in the word. Only c >= t: a shorter x is pinned
            # by its z, and the check looks it up at the suffix
            for m, r in row.items():
                if m < t or r < t:
                    continue
                base = pref[ell - m]
                for c in range(t, r + 1):
                    q = m + t - c
                    armed.append((q, pref[ell - c + t] - base * powk[q]))
        else:
            # x = Q[s:].Q ending here arms the exact string Q[:s]
            for m, r in row.items():
                if m < t or r < t:
                    continue
                start = L - m - t + 1
                base = pref[start]
                for s in range(m + t - r, m + 1):
                    armed.append((s, pref[start + s] - base * powk[s]))
        ttrail: list[tuple[int, int]] = []
        if armed:
            tdicts = self.tdicts
            for threat in armed:
                q, v = threat
                u, b = divmod(v, k)
                d = tdicts[q].get(u)
                if d is None:
                    d = tdicts[q][u] = {}
                elif b in d:
                    continue
                d[b] = L
                ttrail.append(threat)
        self.td_trail.append(ttrail)

    def pop(self) -> None:
        pref = self.pref
        powk = self.powk
        ell = len(self.word)
        q = ell if ell < SHORT_FACTOR_LEN else SHORT_FACTOR_LEN
        v = pref[ell] - pref[ell - q] * powk[q]
        if q == SHORT_FACTOR_LEN:
            ends = self.occ[v]
            ends.pop()
            if not ends:
                del self.occ[v]
        low = self.lrs.pop()
        fdicts = self.fdicts
        while q > low:
            del fdicts[q][v]
            q -= 1
            v %= powk[q]
        a = self.word.pop()
        self.pos[a].pop()
        self.runs.pop()
        pref.pop()
        tdicts = self.tdicts
        k = self.k
        for q, v in self.td_trail.pop():
            u, b = divmod(v, k)
            d = tdicts[q][u]
            del d[b]
            if not d:
                del tdicts[q][u]
