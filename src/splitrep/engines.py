"""Incremental violation checkers driving the extremal searches.

Each engine holds a growable word and answers "does appending this letter
create a violation?" in amortized near-constant time. The check is
suffix-anchored: any violation created by an append has the final piece
of its witness factor ending at the new position, so only candidates
anchored there are examined. Engines support can_extend (pure check),
try_push (check and commit) and pop (undo), which is exactly what a
depth-first search needs.

Factor contents are keyed by their base-k integer value (exact, no
hashing collisions) via prefix value arrays, so dictionary lookups do the
occurrence bookkeeping:

  * disjoint-factor engine: earliest start of every length-n factor;
  * split/reversed engines, for the cases where the suffix pins the
    repetition's period block: the earliest end of every factor of length
    at most S0 = SHORT_FACTOR_LEN, plus an occurrence index `occ` from each
    length-S0 factor to the ascending list of positions where it ends. A
    longer factor is found by walking the ends of its length-S0 suffix and
    confirming each candidate with an exact value comparison;
  * split/reversed engines, for the cases where the earlier piece pins the
    block: a "threat" table of exact strings whose later appearance as a
    suffix completes a violation. Threats of length at most S0 are looked up
    length by length; longer ones are listed under their last S0 letters
    (`tocc`), so only threats ending like the suffix are compared.

A push thus inserts at most S0 factors however deep the word is. What
still grows with depth is the loop over the periods at which the pushed
letter recurs, and the number of threats each push arms.
"""

from __future__ import annotations

from .detect import GapConvention

_EMPTY: dict = {}

# S0 in the comments: factors and threats up to this length get exact
# per-length tables; longer ones are found through occurrence lists keyed by
# their last S0 letters
SHORT_FACTOR_LEN = 12


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
        self.grams: list[int] = []     # value of the last n symbols, per depth
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
            table = [0] * n
            b = 0
            for i in range(1, n):
                while b > 0 and syms[i] != syms[b]:
                    b = table[b - 1]
                if syms[i] == syms[b]:
                    b += 1
                else:
                    b = 0
                table[i] = b
            p = n - table[-1]
            caps.append(-(-n // p))
        return caps

    def _gram(self, a: int) -> int | None:
        L = len(self.word)
        if L + 1 < self.n:
            return None
        if self.grams and L >= self.n:
            return (self.grams[-1] * self.k + a) % self.kn
        g = 0
        for s in self.word[L + 1 - self.n :]:
            g = g * self.k + s
        return g * self.k + a

    def can_extend(self, a: int) -> bool:
        g = self._gram(a)
        if g is None:
            return True
        e = self.earliest.get(g)
        return e is None or e > len(self.word) + 1 - 2 * self.n

    def try_push(self, a: int) -> bool:
        g = self._gram(a)
        if g is not None:
            e = self.earliest.get(g)
            if e is not None and e <= len(self.word) + 1 - 2 * self.n:
                return False
        self.word.append(a)
        ell = len(self.word)
        self.grams.append(g if g is not None else 0)
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
        if g is not None:
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
        return True

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
    (z.x in reversed mode) is a t-overlap. With t = 0 the check
    degenerates to "some suffix already occurred with an admissible gap".
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
        self.convention = convention
        self.rev = reversed_mode
        self.mmin = max(t, 1)
        self.word: list[int] = []
        self.pos: list[list[int]] = [[] for _ in range(k)]
        self.runs: list[dict[int, int]] = []   # per position: m -> run length
        self.pref: list[int] = [0]             # pref[i] = value of word[:i], base k
        self.powk: list[int] = [1]
        # fdicts[q]: value of a length-q factor -> its earliest end, q <= S0
        self.fdicts: list[dict[int, int]] = [{} for _ in range(SHORT_FACTOR_LEN + 1)]
        self.fd_trail: list[list[tuple[int, int]]] = []
        # occ: value of a length-S0 factor -> ascending ends of its occurrences
        self.occ: dict[int, list[int]] = {}
        self.occ_mod = k ** SHORT_FACTOR_LEN
        self.tdicts: list[dict[int, int]] = [{}]       # threat value -> earliest x end
        self.td_trail: list[list[tuple[int, int]]] = []
        self.active_tlens: dict[int, int] = {}          # live threat lengths <= S0
        # tocc: value of the last S0 letters of a longer threat -> its (q, value)
        self.tocc: dict[int, list[tuple[int, int]]] = {}

    def _powk_to(self, q: int) -> list[int]:
        powk = self.powk
        while len(powk) <= q:
            powk.append(powk[-1] * self.k)
        return powk

    def _occurs_long(self, s: int, v: int, bound: int) -> bool:
        """True iff the factor of length s > S0 with value v ends at or before bound.

        Walks the ends of its length-S0 suffix in ascending order and
        confirms each candidate by comparing exact values.
        """
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

    def _row(self, a: int) -> dict[int, int]:
        """Run lengths ending at the would-be new position for each period m."""
        L = len(self.word)
        row: dict[int, int] = {}
        prev = self.runs[-1] if self.runs else _EMPTY
        prevget = prev.get
        for p in self.pos[a]:
            m = L - p
            row[m] = prevget(m, 0) + 1
        return row

    def _violates(self, a: int, row: dict[int, int]) -> bool:
        word = self.word
        L = len(word)
        ell = L + 1
        t = self.t
        mg = self.mg
        k = self.k
        pref = self.pref
        powk = self._powk_to(ell + 1)
        mmin = self.mmin
        for m, r in row.items():
            if m >= mmin and r >= m + t:
                return True          # contiguous t-overlap at the end
        pL = pref[L]
        fdicts = self.fdicts
        occ = self.occ
        occ_mod = self.occ_mod
        if t == 0:
            for q in range(1, L - mg + 1):
                v = (pL - pref[ell - q] * powk[q - 1]) * k + a
                if q <= SHORT_FACTOR_LEN:
                    e = fdicts[q].get(v)
                    if e is not None and e <= L - q - mg:
                        return True
                elif v % occ_mod in occ and self._occurs_long(q, v, L - q - mg):
                    return True
            return False
        tdicts = self.tdicts
        for q in self.active_tlens:
            if q > L - mg:
                continue
            v = (pL - pref[ell - q] * powk[q - 1]) * k + a
            e = tdicts[q].get(v)
            if e is not None and e <= L - q - mg:
                return True
        if ell > SHORT_FACTOR_LEN and self.tocc:
            # a longer threat can match only if it ends in the suffix's last S0
            threats = self.tocc.get(
                (pL - pref[ell - SHORT_FACTOR_LEN] * powk[SHORT_FACTOR_LEN - 1]) * k + a
            )
            if threats:
                for q, v in threats:
                    if (
                        q <= L - mg
                        and (pL - pref[ell - q] * powk[q - 1]) * k + a == v
                        and tdicts[q][v] <= L - q - mg
                    ):
                        return True
        if not self.rev:
            # z = suffix V.P.P[:t] with period m; x = P[:m-g] seen earlier
            for m, r in row.items():
                if r < t or m < mmin or ell < 2 * m + t + mg:
                    continue
                base = pref[ell - m - t]
                for g in range(min(r - t, m - 1) + 1):
                    s = m - g
                    v = pref[ell - t - g] - base * powk[s]
                    if s <= SHORT_FACTOR_LEN:
                        e = fdicts[s].get(v)
                        if e is not None and e <= L - m - t - g - mg:
                            return True
                    elif v % occ_mod in occ and self._occurs_long(
                        s, v, L - m - t - g - mg
                    ):
                        return True
        else:
            # z = periodic suffix of length s > m pinning Q; x = Q[s-m:] seen earlier
            for m, r in row.items():
                if m < mmin or ell < 2 * m + t + mg:
                    continue
                for s in range(m + 1, min(m + r, 2 * m + t - 1) + 1):
                    xlen = 2 * m + t - s
                    zstart = ell - s
                    v2 = pref[zstart + t] - pref[zstart] * powk[t]
                    if s <= 2 * m:
                        v1 = pref[ell + m - s] - pref[ell - m] * powk[2 * m - s]
                        v = v1 * powk[t] + v2
                    else:
                        v = pref[zstart + t] - pref[ell - 2 * m] * powk[xlen]
                    if xlen <= SHORT_FACTOR_LEN:
                        e = fdicts[xlen].get(v)
                        if e is not None and e <= L - s - mg:
                            return True
                    elif v % occ_mod in occ and self._occurs_long(
                        xlen, v, L - s - mg
                    ):
                        return True
        return False

    def can_extend(self, a: int) -> bool:
        return not self._violates(a, self._row(a))

    def try_push(self, a: int) -> bool:
        row = self._row(a)
        if self._violates(a, row):
            return False
        word = self.word
        L = len(word)
        ell = L + 1
        t = self.t
        pref = self.pref
        powk = self._powk_to(ell + 1)
        word.append(a)
        self.pos[a].append(L)
        self.runs.append(row)
        pref.append(pref[L] * self.k + a)
        fdicts = self.fdicts
        ftrail = []
        pe = pref[ell]
        for q in range(1, min(ell, SHORT_FACTOR_LEN) + 1):
            v = pe - pref[ell - q] * powk[q]
            d = fdicts[q]
            if v not in d:
                d[v] = L
                ftrail.append((q, v))
        self.fd_trail.append(ftrail)
        if ell >= SHORT_FACTOR_LEN:
            # v is now the value of the length-S0 suffix
            self.occ.setdefault(v, []).append(L)
        armed: list[tuple[int, int]] = []  # (length, value) of each threat
        if t > 0:
            mmin = self.mmin
            if not self.rev:
                # x = P.P[:c] ending here arms the exact string (P.P[:t])[c:]:
                # the next q letters of the period-m run, starting at ell - m
                for m, r in row.items():
                    if m < mmin:
                        continue
                    base = pref[ell - m]
                    for c in range(1, min(r, m + t - 1, L - m + 1) + 1):
                        q = m + t - c
                        if c >= t:
                            # all q letters already lie in the word
                            v = pref[ell - c + t] - base * powk[q]
                        else:
                            # q > m: the last m letters, then their first t - c
                            v = (pref[ell] - base * powk[m]) * powk[t - c] + (
                                pref[ell - m + t - c] - base * powk[t - c]
                            )
                        armed.append((q, v))
            else:
                # x = Q[s:].Q ending here arms the exact string Q[:s]
                for m, r in row.items():
                    if m < mmin or r < t:
                        continue
                    start = L - m - t + 1
                    for s in range(max(1, m + t - r, 2 * m + t - 1 - L), m + 1):
                        if start < 0 or L - (2 * m + t - s) + 1 < 0:
                            continue
                        armed.append((s, pref[start + s] - pref[start] * powk[s]))
        ttrail: list[tuple[int, int]] = []
        if armed:
            tdicts = self.tdicts
            active = self.active_tlens
            tocc = self.tocc
            mod = self.occ_mod
            for q, v in armed:
                while len(tdicts) <= q:
                    tdicts.append({})
                d = tdicts[q]
                if v not in d:
                    d[v] = L
                    ttrail.append((q, v))
                    if q <= SHORT_FACTOR_LEN:
                        active[q] = active.get(q, 0) + 1
                    else:
                        tocc.setdefault(v % mod, []).append((q, v))
        self.td_trail.append(ttrail)
        return True

    def pop(self) -> None:
        pref = self.pref
        ell = len(self.word)
        if ell >= SHORT_FACTOR_LEN:
            v = pref[ell] - pref[ell - SHORT_FACTOR_LEN] * self.powk[SHORT_FACTOR_LEN]
            ends = self.occ[v]
            ends.pop()
            if not ends:
                del self.occ[v]
        a = self.word.pop()
        self.pos[a].pop()
        self.runs.pop()
        pref.pop()
        fdicts = self.fdicts
        for q, v in self.fd_trail.pop():
            del fdicts[q][v]
        tdicts = self.tdicts
        active = self.active_tlens
        tocc = self.tocc
        # this push's threats are the last entries of their tocc lists
        for q, v in self.td_trail.pop():
            del tdicts[q][v]
            if q > SHORT_FACTOR_LEN:
                key = v % self.occ_mod
                threats = tocc[key]
                threats.pop()
                if not threats:
                    del tocc[key]
            else:
                c = active[q] - 1
                if c:
                    active[q] = c
                else:
                    del active[q]
