"""Words over Sigma_k = {0..k-1} and classical periodicity primitives.

Everything downstream (detectors, counting, searches) is built on the
notions defined here: borders, periods, primitivity, and the
Lyndon-Schutzenberger decomposition of a pair of overlapping occurrences.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field


class EmptyWordError(ValueError):
    """Raised when an operation that needs a nonempty word gets an empty one."""


class WordFormatError(ValueError):
    """Raised when a textual word cannot be parsed for the given alphabet."""


@dataclass(frozen=True)
class Word:
    """An immutable word over the alphabet {0, 1, ..., k-1}."""

    symbols: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        for s in self.symbols:
            if not 0 <= s < self.k:
                raise ValueError(f"symbol {s} out of range for alphabet size {self.k}")

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, index):
        return self.symbols[index]

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self):
        return format_word(self)

    def factor(self, start: int, end: int) -> "Word":
        """The factor spanning positions start..end inclusive."""
        if not (0 <= start <= end < len(self.symbols)):
            raise IndexError(f"factor span ({start}, {end}) out of range")
        return Word(self.symbols[start : end + 1], self.k)


def word(symbols, k: int) -> Word:
    """Build a Word from any iterable of symbol indices."""
    return Word(tuple(symbols), k)


def parse_word(text: str, k: int) -> Word:
    """Parse the textual format: digit string for k <= 10, comma-separated otherwise.

    Symbols >= k are rejected.
    """
    if k < 1:
        raise WordFormatError(f"alphabet size must be >= 1, got {k}")
    if text == "":
        return Word((), k)
    if k <= 10 and "," not in text:
        if not text.isdigit():
            raise WordFormatError(f"not a digit string: {text!r}")
        syms = tuple(int(c) for c in text)
    else:
        try:
            syms = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise WordFormatError(f"bad symbol in {text!r}") from exc
    for s in syms:
        if not 0 <= s < k:
            raise WordFormatError(f"symbol {s} out of range for alphabet size {k}")
    return Word(syms, k)


def format_word(w: Word) -> str:
    """Inverse of parse_word."""
    if w.k <= 10:
        return "".join(str(s) for s in w.symbols)
    return ",".join(str(s) for s in w.symbols)


def from_letters(text: str) -> Word:
    """Map a natural-language word to integers by first-occurrence order.

    'alfalfa' -> 0120120 over the 3-letter alphabet it uses.
    """
    mapping: dict[str, int] = {}
    syms = []
    for ch in text:
        if ch not in mapping:
            mapping[ch] = len(mapping)
        syms.append(mapping[ch])
    return Word(tuple(syms), max(len(mapping), 1))


@dataclass(frozen=True)
class BorderTable:
    """longest_border[i] = length of the longest proper border of the prefix of length i+1."""

    longest_border: tuple[int, ...] = field(default=())


def failure_function(syms: Sequence[int]) -> list[int]:
    """KMP failure function: entry i is the longest proper border length of
    syms[:i+1]. The smallest period of syms is len(syms) minus the last entry."""
    n = len(syms)
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
    return table


def border_array(w: Word) -> BorderTable:
    """Classical failure-function computation of all prefix border lengths."""
    if len(w) == 0:
        raise EmptyWordError("empty input")
    return BorderTable(tuple(failure_function(w.symbols)))


def period(w: Word) -> int:
    """The smallest period of w: |w| minus its longest proper border length."""
    if len(w) == 0:
        raise EmptyWordError("empty input")
    return len(w) - border_array(w).longest_border[-1]


def is_primitive(w: Word) -> bool:
    """True iff w is not a proper power x^j with j >= 2."""
    if len(w) == 0:
        raise EmptyWordError("empty input")
    p = period(w)
    return p == len(w) or len(w) % p != 0


def is_unbordered(w: Word) -> bool:
    """True iff w has no nonempty proper border."""
    if len(w) == 0:
        raise EmptyWordError("empty input")
    return border_array(w).longest_border[-1] == 0


def occurrences(w: Word, x: Word) -> list[int]:
    """All start positions of x inside w, ascending."""
    if len(x) == 0:
        raise EmptyWordError("empty pattern")
    xs = x.symbols
    ws = w.symbols
    out = []
    m = len(xs)
    for i in range(len(ws) - m + 1):
        if ws[i : i + m] == xs:
            out.append(i)
    return out


def overlap_from_overlapping_pair(
    w: Word, i: int, j: int, n: int
) -> tuple[Word, Word, int]:
    """Decompose two overlapping occurrences of a length-n factor at i < j.

    Returns (u, v, e) with u nonempty, v possibly empty, e >= 0 such that
    w[i..j-1] = uv, w[j..i+n-1] = (uv)^e u and w[i+n..j+n-1] = vu, so the
    whole region w[i..j+n-1] equals (uv)^(e+2) u and contains an overlap.
    """
    if not 0 < j - i < n:
        raise ValueError("occurrences not overlapping")
    if j + n > len(w):
        raise ValueError("occurrences not overlapping")
    if w.symbols[i : i + n] != w.symbols[j : j + n]:
        raise ValueError("occurrences not overlapping")
    d = j - i
    y = w.symbols[i:j]
    t = w.symbols[j : i + n]
    z = w.symbols[i + n : j + n]
    # t = (uv)^e u with |uv| = d and u nonempty forces e and |u|.
    e = (len(t) - 1) // d
    ulen = len(t) - e * d
    u = Word(y[:ulen], w.k)
    v = Word(y[ulen:], w.k)
    assert t == y * e + y[:ulen]
    assert z == v.symbols + u.symbols
    return u, v, e
