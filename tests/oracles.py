"""Independent brute-force reference implementations.

Everything here works on plain tuples of ints and is written as directly
from the definitions as possible; no code is shared with the package so
these can serve as oracles for it. The one exception to "directly from the
definitions" is AllLengthsSplitEngine at the end: an incremental engine
that indexes factors of every length, the reference for the package's
short-table-plus-occurrence-list index on words far too long for brute
force.
"""

from itertools import product


def all_words(k, length):
    return product(range(k), repeat=length)


def all_words_upto(k, max_len):
    for length in range(max_len + 1):
        yield from all_words(k, length)


def border_lengths(w):
    """For each prefix, the length of its longest proper border."""
    out = []
    for i in range(1, len(w) + 1):
        prefix = w[:i]
        b = 0
        for cand in range(1, i):
            if prefix[:cand] == prefix[i - cand :]:
                b = cand
        out.append(b)
    return out


def period(w):
    """Smallest q >= 1 with w[i] == w[i+q] wherever both sides exist."""
    n = len(w)
    for q in range(1, n + 1):
        if all(w[i] == w[i + q] for i in range(n - q)):
            return q
    raise AssertionError("unreachable for nonempty words")


def is_primitive(w):
    n = len(w)
    rotations = {w[i:] + w[:i] for i in range(n)}
    return len(rotations) == n


def is_unbordered(w):
    n = len(w)
    return not any(w[:c] == w[n - c :] for c in range(1, n))


def is_t_overlap(w, t):
    """w = u u u' with u nonempty, |u| >= max(t,1), u' = u[:t]."""
    n = len(w)
    if (n - t) % 2 != 0:
        return False
    m = (n - t) // 2
    if m < max(t, 1):
        return False
    return w[:m] == w[m : 2 * m] and w[:t] == w[2 * m :]


def find_t_overlap_factor(w, t):
    """Least (i, l) span of a t-overlap factor, scanning i then length."""
    n = len(w)
    for i in range(n):
        for l in range(i, n):
            if is_t_overlap(w[i : l + 1], t):
                return (i, l)
    return None


def find_split(w, t, min_gap=0):
    """Least (i, j, jp, l) with x = w[i..j], z = w[jp..l], x+z a t-overlap."""
    n = len(w)
    for i in range(n):
        for j in range(i, n):
            for jp in range(j + 1 + min_gap, n):
                for l in range(jp, n):
                    if is_t_overlap(w[i : j + 1] + w[jp : l + 1], t):
                        return (i, j, jp, l)
    return None


def find_reversed_split(w, t, min_gap=0):
    """Least (i, j, jp, l) with z + x a t-overlap (z the later factor)."""
    n = len(w)
    for i in range(n):
        for j in range(i, n):
            for jp in range(j + 1 + min_gap, n):
                for l in range(jp, n):
                    if is_t_overlap(w[jp : l + 1] + w[i : j + 1], t):
                        return (i, j, jp, l)
    return None


def find_disjoint(w, n):
    """Least (p1, p2) with equal length-n factors and p1 + n <= p2."""
    total = len(w)
    for p1 in range(total - 2 * n + 1):
        for p2 in range(p1 + n, total - n + 1):
            if w[p1 : p1 + n] == w[p2 : p2 + n]:
                return (p1, p2)
    return None


def longest_repeated_suffix(w):
    """Length of the longest suffix of w that also ends earlier in w."""
    text = bytes(w)
    n = len(text)
    length = 0
    while length < n - 1 and text.find(text[n - length - 1 :], 0, n - 1) != -1:
        length += 1
    return length


def violates_problem(w, kind, param, min_gap=0):
    """Problem-level violation: for split kinds a contiguous t-overlap factor
    also counts (for the plain split kind with empty gaps that is implied)."""
    if kind == "C":
        return find_disjoint(w, param) is not None
    if find_t_overlap_factor(w, param) is not None:
        return True
    if kind == "S":
        return find_split(w, param, min_gap) is not None
    return find_reversed_split(w, param, min_gap) is not None


def longest_by_enumeration(k, kind, param, max_len, min_gap=0):
    """Exhaustive generate-and-test: (max length, lex-least witness).

    max_len must be at least the true answer + 1 so exhaustion is visible;
    returns (length, witness, saturated) where saturated means words of
    max_len itself were all violating.
    """
    best_len = 0
    best = ()
    for length in range(1, max_len + 1):
        found = None
        for w in all_words(k, length):
            if not violates_problem(w, kind, param, min_gap):
                found = w
                break
        if found is None:
            return best_len, best, True
        best_len, best = length, found
    return best_len, best, False


_EMPTY: dict = {}


class AllLengthsSplitEngine:
    """Reference incremental split/reversed engine with an all-lengths factor index.

    fdicts[q] maps the value of every length-q factor, for every q up to the
    current length, to its earliest end: O(length) inserts per push, but
    every query is a single dict lookup. Every live threat length is tried
    in turn. The package engine keeps no factor index (it searches the word
    itself) and tries only threat lengths its longest repeated suffix
    allows; the two must agree on every can_extend and try_push.

    A violation is either a contiguous t-overlap factor, or nonempty
    factors x before z with gap >= min_gap whose concatenation x.z
    (z.x in reversed mode) is a t-overlap. With t = 0 the check
    degenerates to "some suffix already occurred with an admissible gap".
    """

    def __init__(
        self,
        k: int,
        t: int,
        min_gap: int = 0,
        reversed_mode: bool = False,
    ):
        if k < 1 or t < 0:
            raise ValueError("need k >= 1 and t >= 0")
        self.k = k
        self.t = t
        self.mg = min_gap
        self.rev = reversed_mode
        self.mmin = max(t, 1)
        self.word: list[int] = []
        self.pos: list[list[int]] = [[] for _ in range(k)]
        self.runs: list[dict[int, int]] = []   # per position: m -> run length
        self.pref: list[int] = [0]             # pref[i] = value of word[:i], base k
        self.powk: list[int] = [1]
        self.fdicts: list[dict[int, int]] = [{}, {}]   # factor value -> earliest end
        self.fd_trail: list[list[tuple[int, int]]] = []
        self.tdicts: list[dict[int, int]] = [{}]       # threat value -> earliest x end
        self.td_trail: list[list[tuple[int, int]]] = []
        self.active_tlens: dict[int, int] = {}          # live threat lengths

    def _powk_to(self, q: int) -> list[int]:
        powk = self.powk
        while len(powk) <= q:
            powk.append(powk[-1] * self.k)
        return powk

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
        if t == 0:
            fdicts = self.fdicts
            qmax = min(L - mg, len(fdicts) - 1)
            for q in range(1, qmax + 1):
                v = (pL - pref[ell - q] * powk[q - 1]) * k + a
                e = fdicts[q].get(v)
                if e is not None and e <= L - q - mg:
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
        fdicts = self.fdicts
        nfd = len(fdicts)
        if not self.rev:
            # z = suffix V.P.P[:t] with period m; x = P[:m-g] seen earlier
            for m, r in row.items():
                if r < t or m < mmin or ell < 2 * m + t + mg:
                    continue
                base = pref[ell - m - t]
                for g in range(min(r - t, m - 1) + 1):
                    s = m - g
                    if s < nfd:
                        v = pref[ell - t - g] - base * powk[s]
                        e = fdicts[s].get(v)
                        if e is not None and e <= L - m - t - g - mg:
                            return True
        else:
            # z = periodic suffix of length s > m pinning Q; x = Q[s-m:] seen earlier
            for m, r in row.items():
                if m < mmin or ell < 2 * m + t + mg:
                    continue
                for s in range(m + 1, min(m + r, 2 * m + t - 1) + 1):
                    xlen = 2 * m + t - s
                    if xlen >= nfd:
                        continue
                    zstart = ell - s
                    v2 = pref[zstart + t] - pref[zstart] * powk[t]
                    if s <= 2 * m:
                        v1 = pref[ell + m - s] - pref[ell - m] * powk[2 * m - s]
                        v = v1 * powk[t] + v2
                    else:
                        v = pref[zstart + t] - pref[ell - 2 * m] * powk[xlen]
                    e = fdicts[xlen].get(v)
                    if e is not None and e <= L - s - mg:
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
        while len(fdicts) <= ell:
            fdicts.append({})
        ftrail = []
        pe = pref[ell]
        for q in range(1, ell + 1):
            v = pe - pref[ell - q] * powk[q]
            d = fdicts[q]
            if v not in d:
                d[v] = L
                ftrail.append((q, v))
        self.fd_trail.append(ftrail)
        ttrail: list[tuple[int, int]] = []
        if t > 0:
            tdicts = self.tdicts
            active = self.active_tlens
            mmin = self.mmin
            if not self.rev:
                # x = P.P[:c] ending here arms the exact string (P.P[:t])[c:]
                for m, r in row.items():
                    if m < mmin:
                        continue
                    for c in range(1, min(r, m + t - 1, L - m + 1) + 1):
                        if c <= m:
                            q = m - c + t
                            v1 = pref[L - c + 1] - pref[L - m + 1] * powk[m - c]
                            v2 = (
                                pref[L - m - c + 1 + t]
                                - pref[L - m - c + 1] * powk[t]
                            )
                            v = v1 * powk[t] + v2
                        else:
                            q = m + t - c
                            v = (
                                pref[L - m - c + t + 1]
                                - pref[L - 2 * m + 1] * powk[q]
                            )
                        while len(tdicts) <= q:
                            tdicts.append({})
                        d = tdicts[q]
                        if v not in d:
                            d[v] = L
                            ttrail.append((q, v))
                            active[q] = active.get(q, 0) + 1
            else:
                # x = Q[s:].Q ending here arms the exact string Q[:s]
                for m, r in row.items():
                    if m < mmin or r < t:
                        continue
                    start = L - m - t + 1
                    for s in range(max(1, m + t - r, 2 * m + t - 1 - L), m + 1):
                        if start < 0 or L - (2 * m + t - s) + 1 < 0:
                            continue
                        v = pref[start + s] - pref[start] * powk[s]
                        while len(tdicts) <= s:
                            tdicts.append({})
                        d = tdicts[s]
                        if v not in d:
                            d[v] = L
                            ttrail.append((s, v))
                            active[s] = active.get(s, 0) + 1
        self.td_trail.append(ttrail)
        return True

    def pop(self) -> None:
        a = self.word.pop()
        self.pos[a].pop()
        self.runs.pop()
        self.pref.pop()
        fdicts = self.fdicts
        for q, v in self.fd_trail.pop():
            del fdicts[q][v]
        tdicts = self.tdicts
        active = self.active_tlens
        for q, v in self.td_trail.pop():
            del tdicts[q][v]
            c = active[q] - 1
            if c:
                active[q] = c
            else:
                del active[q]
