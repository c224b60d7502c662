"""One bounded, counted LRU memo for every process-wide cache.

Each cache site owns a named :class:`Memo` with a fixed bound, and
passes its key explicitly: the compile memo keys on the fingerprint of
an unhashable plan, which :func:`functools.lru_cache` cannot do.
:func:`stats` reports every memo's counters; :func:`clear_all` resets
them all.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

#: name -> live :class:`Memo`; a memo that is garbage drops out.
_REGISTRY: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Memo:
    """A named LRU of at most ``maxsize`` entries, with counters."""

    def __init__(self, name: str, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self.clear()
        _REGISTRY[name] = self

    def get(self, key, compute, *args):
        """The value under ``key``; ``compute(*args)`` fills a miss.

        Taking the function and its arguments, not a closure, keeps a
        hit to one lookup and one LRU refresh.  A raising ``compute``
        stores nothing and still counts as a miss.
        """
        entries = self._entries
        try:
            value = entries[key]
        except KeyError:
            pass
        else:
            entries.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = entries[key] = compute(*args)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }


def clear_all() -> None:
    """Clear every registered memo."""
    for memo in list(_REGISTRY.values()):
        memo.clear()


def stats() -> dict:
    """``{name: Memo.stats()}`` for every registered memo, by name."""
    return {name: memo.stats() for name, memo in sorted(_REGISTRY.items())}
