"""Explicit finite interpretations and counterexample witnesses.

The universe of an interpretation is {0..k-1} (individuals) followed by
grid points (value elements) at indices {k..k+len(grid)-1}. Atoms hold
individuals only; slot relations go from individuals to anything; regions
hold grid points only.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from desiree.records import Frozen, init_field
from desiree.syntax import ast
from desiree.syntax.render import render_description

GridPoint = Union[Fraction, str]  # numeric value or opaque literal


class Interpretation(Frozen):
    __slots__ = ("k", "grid", "atoms", "slots", "named_regions", "individuals")

    def __init__(self, k: int, grid: tuple[GridPoint, ...] = (),
                 atoms: dict[str, frozenset[int]] | None = None,
                 slots: dict[str, frozenset[tuple[int, int]]] | None = None,
                 named_regions: dict[str, frozenset[int]] | None = None,
                 individuals: dict[str, int] | None = None):
        init_field(self, "k", k)
        init_field(self, "grid", grid)
        init_field(self, "atoms", {} if atoms is None else atoms)
        init_field(self, "slots", {} if slots is None else slots)
        init_field(self, "named_regions",
                   {} if named_regions is None else named_regions)
        init_field(self, "individuals",
                   {} if individuals is None else individuals)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(self.k + len(self.grid)))

    def grid_indices(self) -> range:
        return range(self.k, self.k + len(self.grid))


class Witness(Frozen):
    """A counter-interpretation plus the element separating d1 from d2.

    d1 and d2 are descriptions or their text. `d1_text` and `d2_text`
    render a description when read, so a search whose witness nobody
    prints renders nothing.
    """

    __slots__ = ("interp", "x", "d1", "d2")

    def __init__(self, interp: Interpretation, x: int,
                 d1: ast.Description | str, d2: ast.Description | str):
        init_field(self, "interp", interp)
        init_field(self, "x", x)
        init_field(self, "d1", d1)
        init_field(self, "d2", d2)

    @property
    def d1_text(self) -> str:
        return _text(self.d1)

    @property
    def d2_text(self) -> str:
        return _text(self.d2)

    def to_json(self) -> str:
        return json.dumps(witness_to_dict(self), sort_keys=True)


def _text(d: ast.Description | str) -> str:
    return d if isinstance(d, str) else render_description(d)


def _grid_point_to_json(g: GridPoint) -> dict:
    if isinstance(g, Fraction):
        return {"num": str(g)}
    return {"lit": g}


def _grid_point_from_json(d: dict) -> GridPoint:
    if "num" in d:
        return Fraction(d["num"])
    return d["lit"]


def interp_to_dict(i: Interpretation) -> dict:
    return {
        "k": i.k,
        "grid": [_grid_point_to_json(g) for g in i.grid],
        "atoms": {a: sorted(xs) for a, xs in sorted(i.atoms.items())},
        "slots": {s: sorted(map(list, rel)) for s, rel in sorted(i.slots.items())},
        "named_regions": {r: sorted(xs) for r, xs in sorted(i.named_regions.items())},
        "individuals": dict(sorted(i.individuals.items())),
    }


def interp_from_dict(d: dict) -> Interpretation:
    return Interpretation(
        k=d["k"],
        grid=tuple(_grid_point_from_json(g) for g in d["grid"]),
        atoms={a: frozenset(xs) for a, xs in d["atoms"].items()},
        slots={s: frozenset((x, y) for x, y in rel) for s, rel in d["slots"].items()},
        named_regions={r: frozenset(xs) for r, xs in d["named_regions"].items()},
        individuals=dict(d["individuals"]),
    )


def witness_to_dict(w: Witness) -> dict:
    out = interp_to_dict(w.interp)
    out["x"] = w.x
    out["d1"] = w.d1_text
    out["d2"] = w.d2_text
    return out


def witness_from_json(text: str) -> Witness:
    d = json.loads(text)
    return Witness(interp_from_dict(d), d["x"], d["d1"], d["d2"])
