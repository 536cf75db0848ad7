"""Dictionary encoding: strings and RDF terms ⇄ dense integer ids.

Interning pays the hash of a value once, at first sight; every later
index operation is an int comparison.  Ids are dense and allocated in
first-appearance order, so decode is a list index and snapshots can
store the dictionary as a flat table.

:class:`TermInterner` additionally supports *lazy* decoding for
snapshot-backed graphs: terms materialize from the mmapped term table
on first access, and the reverse (term → id) map is only built when a
lookup actually needs it, so loading a snapshot does no per-term work.
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["Interner", "Memo", "TermInterner"]


class Interner:
    """A bidirectional value ⇄ dense-int-id dictionary."""

    __slots__ = ("_ids", "_values")

    def __init__(self, values=()):
        self._values: list = list(values)
        self._ids: dict = {v: i for i, v in enumerate(self._values)}

    def intern(self, value) -> int:
        """The id for ``value``, allocating the next dense id if new."""
        ids = self._ids
        i = ids.get(value)
        if i is None:
            i = len(self._values)
            ids[value] = i
            self._values.append(value)
        return i

    def lookup(self, value) -> int | None:
        """The id for ``value``, or None when it was never interned."""
        return self._ids.get(value)

    def value(self, i: int):
        """The value with id ``i``."""
        return self._values[i]

    def values(self) -> list:
        """The id-ordered value list (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"<Interner {len(self._values)} values>"


class TermInterner:
    """An :class:`Interner` for RDF terms with lazy snapshot decoding.

    For ordinary in-memory graphs this is a plain dictionary encoder.
    For graphs loaded from a snapshot, ``_terms`` starts as a list of
    ``None`` placeholders and ``_source`` decodes term ``i`` on demand;
    the reverse map ``_ids`` is built only when the first term → id
    lookup happens (e.g. a bound-pattern query or a mutation).
    """

    __slots__ = ("_terms", "_ids", "_source")

    def __init__(self):
        self._terms: list = []
        self._ids: dict | None = {}
        self._source = None

    @classmethod
    def lazy(cls, source, count: int) -> "TermInterner":
        """An interner of ``count`` terms decoded on demand by ``source``.

        ``source`` must provide ``materialize(i) -> Term``.
        """
        interner = cls()
        interner._terms = [None] * count
        interner._ids = None
        interner._source = source
        return interner

    # ------------------------------------------------------------------ #
    # Decode (id -> term)
    # ------------------------------------------------------------------ #

    def term(self, i: int):
        """The term with id ``i`` (materializing it if snapshot-backed)."""
        t = self._terms[i]
        if t is None:
            t = self._terms[i] = self._source.materialize(i)
        return t

    def _ensure_ids(self) -> dict:
        ids = self._ids
        if ids is None:
            terms = self._terms
            source = self._source
            for i, t in enumerate(terms):
                if t is None:
                    terms[i] = source.materialize(i)
            ids = self._ids = {t: i for i, t in enumerate(terms)}
        return ids

    # ------------------------------------------------------------------ #
    # Encode (term -> id)
    # ------------------------------------------------------------------ #

    def intern(self, term) -> int:
        """The id for ``term``, allocating the next dense id if new."""
        ids = self._ids
        if ids is None:
            ids = self._ensure_ids()
        i = ids.get(term)
        if i is None:
            i = len(self._terms)
            ids[term] = i
            self._terms.append(term)
        return i

    def lookup(self, term) -> int | None:
        """The id for ``term``, or None when it was never interned."""
        ids = self._ids
        if ids is None:
            ids = self._ensure_ids()
        return ids.get(term)

    def __len__(self) -> int:
        return len(self._terms)

    # ------------------------------------------------------------------ #
    # Pickle (materializes lazy terms, drops the mmap-backed source)
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        self._ensure_ids()
        return self._terms

    def __setstate__(self, terms):
        self._terms = terms
        self._ids = {t: i for i, t in enumerate(terms)}
        self._source = None

    def __repr__(self) -> str:
        mode = "lazy" if self._ids is None else "materialized"
        return f"<TermInterner {len(self._terms)} terms ({mode})>"


class Memo(dict):
    """``make(key)`` for each key, computed on its first lookup — how the
    bulk graph builders build each distinct term once."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value
