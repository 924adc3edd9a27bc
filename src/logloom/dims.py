"""The source dimensions of a log record.

A leaf module: it imports only the standard library's `enum` and
`functools`, so the generator can name a dimension without loading
the ingest layer.
"""

from __future__ import annotations

import functools
from enum import Enum


@functools.total_ordering
class Dimension(Enum):
    """Source dimension of a log record.

    Ordering follows declaration order, not alphabetical order; every
    sort key in the package relies on that. Each member carries its
    position as `rank`. Members are singletons, so they hash by identity.
    """

    EVENT = "event"
    STATUS = "status"
    COMM = "comm"
    RAS = "ras"

    rank: int
    __hash__ = object.__hash__

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Dimension):
            return NotImplemented
        return self.rank < other.rank

    def __str__(self) -> str:
        return self.value


for _rank, _dim in enumerate(Dimension):
    _dim.rank = _rank
del _rank, _dim

_DIM_BY_VALUE = {d.value: d for d in Dimension}


def dimension(value: object) -> Dimension:
    """`Dimension(value)`, by a dict lookup when `value` names a member.

    Any other value goes to `Dimension(value)`, so it fails with the
    same ValueError.
    """
    dim = _DIM_BY_VALUE.get(value) if type(value) is str else None
    return Dimension(value) if dim is None else dim
