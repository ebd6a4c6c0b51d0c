"""Three-valued reasoning outcome.

Proved is sound (a structural proof exists); Disproved carries a replayable
finite counter-interpretation; Unknown records why neither was reached.
"""
from __future__ import annotations

from typing import Union

from desiree.records import Frozen, init_field


class Proved(Frozen):
    __slots__ = ()

    def __bool__(self) -> bool:  # convenience for `if verdict:` checks
        return True


class Disproved(Frozen):
    __slots__ = ("witness",)

    def __init__(self, witness: object):  # a reasoner.interp.Witness
        init_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return False


class Unknown(Frozen):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        init_field(self, "reason", reason)

    def __bool__(self) -> bool:
        return False


Verdict3 = Union[Proved, Disproved, Unknown]

PROVED = Proved()


def is_proved(v: Verdict3) -> bool:
    return isinstance(v, Proved)
