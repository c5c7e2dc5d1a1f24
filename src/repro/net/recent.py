"""A bounded history of recently seen ids.

Duplicate suppression at two layers keeps the same rule: the link layer
(:class:`repro.net.reliability.ReliabilityReceiver`, frame ids) and the
protocol engines' received-response set
(:class:`repro.core.lqt.RecentResponses`, response ids).  Both remember
ids in arrival order and, once past their limit, forget the oldest half.
"""

from __future__ import annotations

from typing import Hashable


class RecentIds(dict):
    """Ids in arrival order (the keys); the oldest half goes once past ``limit``.

    A plain ``dict`` underneath, so a membership test is the C one.
    """

    __slots__ = ("limit",)

    def __init__(self, limit: int) -> None:
        # ``dict.__new__`` already made the empty dict, so there is no
        # ``dict.__init__`` call to pay for.
        self.limit = limit

    def seen_before(self, key: Hashable) -> bool:
        """Record ``key``; True if it was already present."""
        if key in self:
            return True
        self[key] = None
        if len(self) > self.limit:
            for old in list(self)[: self.limit // 2]:
                del self[old]
        return False
