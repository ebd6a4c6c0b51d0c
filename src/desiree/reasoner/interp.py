"""Explicit finite interpretations and counterexample witnesses.

The universe of an interpretation is {0..k-1} (individuals) followed by
grid points (value elements) at indices {k..k+len(grid)-1}. Atoms hold
individuals only; slot relations go from individuals to anything; regions
hold grid points only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from desiree.syntax import ast
from desiree.syntax.render import render_description

GridPoint = Union[Fraction, str]  # numeric value or opaque literal


@dataclass(frozen=True)
class Interpretation:
    k: int
    grid: tuple[GridPoint, ...] = ()
    atoms: dict[str, frozenset[int]] = field(default_factory=dict)
    slots: dict[str, frozenset[tuple[int, int]]] = field(default_factory=dict)
    named_regions: dict[str, frozenset[int]] = field(default_factory=dict)
    individuals: dict[str, int] = field(default_factory=dict)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(self.k + len(self.grid)))

    def grid_indices(self) -> range:
        return range(self.k, self.k + len(self.grid))


@dataclass(frozen=True)
class Witness:
    """A counter-interpretation plus the element separating d1 from d2.

    d1 and d2 are descriptions or their text. `d1_text` and `d2_text`
    render a description when read, so a search whose witness nobody
    prints renders nothing.
    """

    interp: Interpretation
    x: int
    d1: ast.Description | str
    d2: ast.Description | str

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
