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
    for the disjoint-factor engine the rolling value of its last n letters,
    the length-n factor it completes). Each check is made once per node,
    not once per letter: the threat lookups and, in the split engine, the
    contiguous and pinned-split checks, which share one pass over the
    periods (a period concerns a single letter). Tokens are built only for
    the letters that pass.
  * commit(a, token) appends a with the token verdicts() gave it at this
    node, without checking again. Tokens stay valid while the engine is at
    that node, including after pushes below it have been popped.
  * pop() undoes the last append.

The split engine's verdicts are a function of its word alone, so its tokens
stay valid whenever the engine is back at the word they were made for, by
any path; search's restarts frontier caches them by word. The threat tables
depend on history through qtop (see below), but a probe reaches only lengths
q <= lrs + 1 <= qtop, where the tables are those of the word itself. A token
(a run row) is never changed once made: commit stores that same dict in
runs, and nothing writes to a stored row.

can_extend (pure check) and try_push (check and commit) do the same for a
single letter; both engines share one definition of each.

How each engine finds earlier factors:

  * disjoint-factor engine: the earliest start of every length-n factor,
    keyed by its base-k value (exact, no hashing collisions), and a trail
    of one record per push with at most one forfeit, the factor first seen
    n pushes back;
  * split/reversed engines, for the cases where the suffix pins the
    repetition's period block: the pinned piece x is a slice of the word,
    or two slices joined, and is looked up in the word itself. The engine
    keeps the word a second time as a string, `text` (chr(letter) per
    letter), and text.find(x, 0, end) tells whether x occurs ending before
    end. Nothing is inserted per push to answer these lookups;
  * split/reversed engines, for the cases where the earlier piece pins the
    block: a "threat" table of exact strings whose later appearance as a
    suffix completes a violation, one table per length, keyed by base-k
    value via prefix value arrays. The first q - 1 letters of a matching
    suffix are the word's own last q - 1, so letter a is barred by the
    length-q threat whose value is theirs times k plus a.

A push also records lrs, the length of the longest suffix that ended
earlier too. It is read off the new run row, not found with text.find: an
earlier occurrence of a suffix ending m letters back gives a run of period
m at least as long, so lrs is the longest run in the row (0 for an empty
row: a t = 0 word repeats no letter). A factor longer than the lrs of its
end has no earlier occurrence, so the check looks up only pinned pieces no
longer than that, and since every run is a repeated suffix, lrs also caps
the periods worth visiting. lrs stays small on long violation-free words
(at most 14 on a 134-letter R(2,4) word), so the number of lookups does
not grow with depth; each is one scan of text in C.
A split x.z whose later piece is longer than one period pins x, so it is
looked up from the suffix at check time and is not armed as a threat.

A length-q threat is probed only when q <= lrs + 1, so the engine arms only
lengths up to qtop, 1 + the longest lrs it has recorded, where the runs of
a long word would arm lengths up to one period. qtop starts at 1 and never
falls: a push whose lrs reaches qtop raises it by one and arms the new
length at every earlier position, earliest first, each threat in the trail
of the position that owns it. One routine, _arm, arms a position's threats
for a push and for a raise alike. The tables are thus those that arming
every length would keep, cut at qtop, and pop needs no special case. On
the stored 134-letter R(2,4) word qtop is 15 and the tables hold 158
threats, against 1,221 with every length armed. What still grows with
depth in Python is building the accepted letter's row: one entry per
earlier occurrence of the letter, about L/k, which commit keeps.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from .counting import smallest_periods, theorem_sum_bound
from .detect import GapConvention

# text holds one chr(letter) per letter, so split-kind alphabets stop here
MAX_SPLIT_K = 0x110000

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

    A letter's token is the rolling value of the last min(L + 1, n) letters
    it leaves, the length-n factor it completes once there are n letters.
    The trail keeps one record per push, with at most one forfeit: a factor
    first seen at length l dies at l + n, and a push sees at most one factor
    first, so the one dying is the new factor of the record n pushes back.
    """

    def __init__(self, k: int, n: int):
        if k < 1 or n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        self.k = k
        self.n = n
        self.kn = k ** n
        self.word: list[int] = []
        self.grams: list[int] = [0]    # per length: value of its last min(L, n) letters
        self.earliest: dict[int, int] = {}
        # one table per (k, n), shared by every engine of a search; a gram
        # with smallest period p has cap ceil(n / p), and the caps sum to
        # the period-sum bound less n - 1
        self.periods = smallest_periods(k, n)
        self.remaining: dict[int, int] = {}  # live seen grams -> occurrences left
        self.unseen_total = theorem_sum_bound(k, n) - (n - 1)
        self.live_total = 0
        # per push: (gram seen first, gram seen again, forfeited (gram, remaining))
        self.trail: list[tuple] = []

    def verdicts(self, letters: Sequence[int]) -> list[int | None]:
        """For each letter, None if appending it repeats a length-n factor
        disjointly, else the token commit() takes: the rolling value it
        leaves, which is the length-n factor it completes from length n on."""
        L = len(self.word)
        base = self.grams[-1] * self.k % self.kn
        if L < self.n:
            return [base + a for a in letters]
        # barred iff first seen n or more letters before; L > lim if unseen
        earliest = self.earliest
        lim = L + 1 - 2 * self.n
        return [None if earliest.get(base + a, L) <= lim else base + a for a in letters]

    can_extend = _can_extend
    try_push = _try_push

    def commit(self, a: int, g: int) -> None:
        """Append a with the token verdicts() gave it at the current node; no check."""
        self.word.append(a)
        ell = len(self.word)
        n = self.n
        self.grams.append(g)
        # the gram first seen at length ell - n dies now: any further
        # occurrence would start >= earliest + n and be disjoint
        forfeit = None
        if ell > n:
            x = self.trail[ell - n - 1][0]
            rem = self.remaining.pop(x, None)
            if rem is not None:
                forfeit = (x, rem)
                self.live_total -= rem
        new_gram = consumed = None
        if ell >= n:
            if g not in self.earliest:
                new_gram = g
                self.earliest[g] = ell - n
                cap = -(-n // self.periods[g])
                self.unseen_total -= cap
                if cap > 1:
                    self.remaining[g] = cap - 1
                    self.live_total += cap - 1
            else:
                # a repeat is overlapping, hence live with remaining >= 1
                consumed = g
                rem = self.remaining[g] - 1
                self.live_total -= 1
                if rem:
                    self.remaining[g] = rem
                else:
                    del self.remaining[g]
        self.trail.append((new_gram, consumed, forfeit))

    def pop(self) -> None:
        self.word.pop()
        self.grams.pop()
        new_gram, consumed, forfeit = self.trail.pop()
        if consumed is not None:
            self.remaining[consumed] = self.remaining.get(consumed, 0) + 1
            self.live_total += 1
        if new_gram is not None:
            del self.earliest[new_gram]
            cap = -(-self.n // self.periods[new_gram])
            self.unseen_total += cap
            if cap > 1:
                self.live_total -= cap - 1
                del self.remaining[new_gram]
        if forfeit is not None:
            x, rem = forfeit
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

    # read by perfbench/probes.py::_index_entries, which sums the entries of
    # fdicts and tdicts; factors are found in text, so no factor table is left
    fdicts = ()

    def __init__(
        self,
        k: int,
        t: int,
        convention: GapConvention = GapConvention.EMPTY_OK,
        reversed_mode: bool = False,
    ):
        if not 1 <= k <= MAX_SPLIT_K or t < 0:
            raise ValueError(f"need 1 <= k <= {MAX_SPLIT_K} and t >= 0")
        self.k = k
        self.t = t
        self.mg = convention.min_gap
        self.rev = reversed_mode
        self.word: list[int] = []
        self.text = ""                         # the word again, chr(letter) per letter
        self.pos: defaultdict[int, list[int]] = defaultdict(list)  # letter -> positions
        # per position: period m -> run length, m ascending
        self.runs: list[dict[int, int]] = []
        self.pref: list[int] = [0]             # pref[i] = value of word[:i], base k
        # lrs[p]: length of the longest suffix of word[:p + 1] that also ends
        # before p
        self.lrs: list[int] = []
        # the longest threat worth arming: 1 + the longest lrs this engine has
        # recorded. A probe looks up lengths q <= lrs[-1] + 1 <= qtop; qtop
        # only grows, so popping never leaves a probed length unarmed
        self.qtop = 1
        self.powk: list[int] = [1, k]          # powk[i] = k**i, i <= qtop
        # tdicts[q]: value of a length-q threat -> earliest end of its x, the
        # threats every position of the word arms, for q = 1..qtop
        self.tdicts: list[dict[int, int]] = [{}, {}]
        # per position: (table, value) of each threat it owns
        self.td_trail: list[list[tuple[dict[int, int], int]]] = []

    def verdicts(self, letters: Sequence[int]) -> list[dict[int, int] | None]:
        """For each letter, None if appending it creates a violation, else
        its run row (period m -> run length at the new position), the token
        commit() takes. The threats are checked once per node, and the
        contiguous t-overlaps and the splits pinned by the suffix in one pass
        over the periods (_bar_pinned), as period m concerns only the letter
        word[L - m]. Rows are built for the letters that pass."""
        pos = self.pos
        t = self.t
        word = self.word
        L = len(word)
        if not t or not L:
            # t = 0: barred iff the letter already occurs (see the class
            # docstring); the empty word bars nothing
            return [None if pos[a] else {} for a in letters]
        live = set(letters)
        # a threat's first q - 1 letters are the word's last q - 1. Every
        # threat is a factor seen before, so those q - 1 letters are a
        # repeated suffix: q <= lrs[L - 1] + 1
        tdicts = self.tdicts
        powk = self.powk
        pL = self.pref[L]
        k = self.k
        mg = self.mg
        for q in range(1, min(L - mg, self.lrs[-1] + 1) + 1):
            d = tdicts[q]
            if d:
                u = pL % powk[q - 1] * k
                lim = L - q - mg
                for a in letters:
                    e = d.get(u + a)
                    if e is not None and e <= lim:
                        live.discard(a)
        if live:
            self._bar_pinned(live)
        # each earlier position p of a letter starts a run of period L - p,
        # which extends the run of that period at L - 1; periods ascending
        prevget = self.runs[-1].get
        rows = {
            a: {L - p: prevget(L - p, 0) + 1 for p in reversed(pos[a])}
            for a in live
        }
        return [rows.get(a) for a in letters]

    def _bar_pinned(self, live: set[int]) -> None:
        """Discard from live every letter whose append completes a contiguous
        t-overlap or a split pinned by the suffix (t >= 1). One pass visits
        the periods m ascending; period m concerns only the letter
        word[L - m], whose run there is r = runs[L - 1].get(m, 0) + 1. It
        skips the letters no longer live and stops once none is.

        Contiguous: the run of period m >= t reaches m + t letters. A run at
        the new position is a repeated suffix (r - 1 <= lrs[L - 1]), so only
        periods m <= lrs[L - 1] + 1 - t can complete one. A letter barred
        this way needs no pinned lookup.

        Each pinned x is looked up only if it can have occurred before: a
        factor with a known end p that is longer than lrs[p] has no earlier
        occurrence, and every lookup bound lies below its p. Since
        lrs[p] <= lrs[p - 1] + 1, e + lrs[p - e] never decreases as e grows,
        so the loops below run from the longest offset down and stop at the
        first x too long to repeat. The same bound on r caps the offsets,
        and with them the periods worth looking up (scap, ccap, rcap),
        before the pass starts; the caps depend on the node alone.

        A lookup is text.find(x, 0, end) >= 0: x occurs ending before end.
        The caps are at most mfit, which keeps every end at least
        len(x) > 0; a negative end would count from the back. The contiguous
        check needs no lookup, so the pass can go above mfit: under
        GAP_REQUIRED with t = 1, 0101 bars 0 only at m = 2, above mfit = 1.
        """
        word = self.word
        L = len(word)
        ell = L + 1
        t = self.t
        mg = self.mg
        lrs = self.lrs
        text = self.text
        find = text.find
        # a period m >= t has a run r <= m + t - 1 (no t-overlap)
        mfit = (ell - t - mg) // 2  # longer periods leave no room for x
        lrs1 = lrs[-1] + 1
        scap = ccap = rcap = 0
        if not self.rev:
            # z = suffix V.P.P[:t] with period m; x = P[:m-g] seen earlier,
            # the factor of length m - g ending at L - t - g, g <= r - t
            gtop = lrs1 - t
            scap = min(gtop + lrs[L - t - gtop] if gtop >= 0 else 0, mfit)
            # t > 1: z = the suffix of length m + t - c with period m, 0 < c < t
            # (x.z splits the t-overlap inside its second period): z[:m] is y,
            # ending at e - 1 = L - (t - c), and x = y[-c:].y seen earlier;
            # y must repeat
            ccap = min(max(lrs[L - t + 1 :]), mfit) if t > 1 else 0
        else:
            # z = periodic suffix of length s > m pinning Q; x = Q[s-m:] seen
            # earlier. With j = s - m: for j > t, x is the factor of length
            # m + t - j ending at L - (j - t); for j <= t it starts with the
            # new suffix of length m, which extends a repeated old suffix.
            # h = j - t <= r - t <= lrs[L - 1] + 1 - t
            htop = lrs1 - t if lrs1 - t > 1 else 1
            rcap = min(htop + lrs[L - htop], mfit)
        prevget = self.runs[-1].get
        for m in range(t, max(scap, ccap, rcap, lrs1 - t) + 1):
            if not live:
                return
            a = word[L - m]
            if a not in live:
                continue
            r = prevget(m, 0) + 1
            if r >= m + t:
                live.discard(a)  # a contiguous t-overlap
                continue
            if m <= scap and r >= t:
                start = ell - m - t
                for g in range(r - t, -1, -1):
                    if m - g > lrs[L - t - g]:
                        break
                    if find(text[start : ell - t - g], 0, start - g - mg) >= 0:
                        live.discard(a)
                        break
            if m <= ccap and a in live:
                for c in range(t - r if t - r > 1 else 1, t):
                    e = ell - t + c
                    if m > lrs[e - 1]:
                        continue
                    if find(text[e - c : e] + text[e - m : e], 0, e - m - mg) >= 0:
                        live.discard(a)
                        break
            if m <= rcap:
                for s in range(m + r, m, -1):
                    h = s - m - t
                    if m > (h + lrs[L - h] if h > 1 else lrs1):
                        break
                    zstart = ell - s
                    if s <= 2 * m:
                        x = text[ell - m : ell + m - s] + text[zstart : zstart + t]
                    else:
                        x = text[ell - 2 * m : zstart + t]
                    if find(x, 0, zstart - mg) >= 0:
                        live.discard(a)
                        break

    can_extend = _can_extend
    try_push = _try_push

    def commit(self, a: int, row: dict[int, int]) -> None:
        """Append a with the row verdicts() gave it at the current node; no check."""
        L = len(self.word)
        self.word.append(a)
        self.text += chr(a)
        self.pos[a].append(L)
        self.runs.append(row)
        pref = self.pref
        pref.append(pref[L] * self.k + a)
        # the longest run is the longest repeated suffix (module docstring)
        q = max(row.values(), default=0)
        self.lrs.append(q)
        self.td_trail.append([])
        if q == self.qtop:
            # probes can now reach length q + 1: arm it at every earlier
            # position, earliest first, so that the table is the one pushing
            # each with this qtop would have armed
            qtop = self.qtop = q + 1
            self.powk.append(self.powk[-1] * self.k)
            self.tdicts.append({})
            for p in range(L):
                self._arm(p, qtop, qtop)
        self._arm(L, 1, self.qtop)

    def _arm(self, p: int, lo: int, hi: int) -> None:
        """Arm the threats of lengths lo..hi that position p owns: each goes
        into the table of its length unless an earlier position holds it,
        and into td_trail[p], so that pop undoes it with p.

        A run r of period m >= t fits in the word (r <= p - m + 1) and stops
        short of a t-overlap (r <= m + t - 1); with t = 0 the row is empty.
        Each threat is the q letters from start, q in [m + t - r, m], all in
        the word. Split: x = P.P[:c] ending at p arms (P.P[:t])[c:], the next
        q = m + t - c letters of the run, from p + 1 - m; only c >= t, since
        a shorter x is pinned by its z and looked up at the suffix. Reversed:
        x = Q[q:].Q ending at p arms Q[:q], from p + 1 - m - t. A run at p
        repeats a suffix (r <= lrs[p]), so m + t - r <= hi needs
        m <= hi + lrs[p] - t.
        """
        t = self.t
        pref = self.pref
        powk = self.powk
        tdicts = self.tdicts
        trail = self.td_trail[p]
        end = p + 1 - (t if self.rev else 0)
        mtop = hi + self.lrs[p] - t
        for m, r in self.runs[p].items():
            if m > mtop:
                break  # so are all longer periods
            if m < t or r < t:
                continue
            start = end - m
            base = pref[start]
            q0 = m + t - r
            for q in range(q0 if q0 > lo else lo, (m if m < hi else hi) + 1):
                v = pref[start + q] - base * powk[q]
                d = tdicts[q]
                if v not in d:
                    d[v] = p
                    trail.append((d, v))

    def pop(self) -> None:
        a = self.word.pop()
        self.text = self.text[:-1]
        self.pos[a].pop()
        self.runs.pop()
        self.pref.pop()
        self.lrs.pop()
        for d, v in self.td_trail.pop():
            del d[v]
