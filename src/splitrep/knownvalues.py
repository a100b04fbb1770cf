"""Loader for the checked-in table of known extremal values and witnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .words import Word, parse_word


@dataclass(frozen=True)
class KnownCell:
    """One table cell: table in {C, S, R}, relation '=' or '>=', and witness."""

    table: str
    k: int
    param: int
    relation: str
    value: int
    witness: str | None = None
    lex_least: bool = True

    def witness_word(self) -> Word | None:
        if self.witness is None:
            return None
        return parse_word(self.witness, self.k)


def load_known_cells() -> list[KnownCell]:
    text = resources.files("splitrep.data").joinpath("known_values.json").read_text()
    raw = json.loads(text)
    return [
        KnownCell(
            table=c["table"],
            k=c["k"],
            param=c["param"],
            relation=c["relation"],
            value=c["value"],
            witness=c.get("witness"),
            lex_least=c.get("lex_least", True),
        )
        for c in raw["cells"]
    ]


def exact_c_values() -> dict[tuple[int, int], int]:
    """All exactly known C(k, n) values, for bound composition."""
    return {
        (c.k, c.param): c.value
        for c in load_known_cells()
        if c.table == "C" and c.relation == "="
    }
