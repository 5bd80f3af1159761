"""The trace collector's in-memory ring, stored column by column.

A traced run emits tens of thousands of events, most of them per-node
barrier waits and per-frame packet lifecycles.  Keeping each one as a
frozen dataclass costs ~180 bytes of object headers and boxed ints; this
store keeps the same information in typed :mod:`array` columns instead:

* **one table per event kind**, one column per dataclass field:
  integers (times, ids, counts) as int32 (``i``), widened to int64
  (``q``) the first time a value does not fit; float64 (``d``) for
  modelled host costs; and one-byte codes (``B``) for bools and for the
  small string vocabularies (``delivery``, ``decision``, ``action``,
  ``packet_kind``; each string column keeps its own code table);
* **one kind-code column** (``order``) that records the global emission
  order, one byte per event.

The ring keeps the newest ``capacity`` events.  Shedding the oldest event
only advances start offsets (of ``order`` and of that event's table); a
column is compacted once its dead prefix passes half its length, so the
amortized cost per event stays O(1) and memory stays within 2x of the
retained rows.

:class:`~repro.obs.events.TraceEvent` objects remain the read vocabulary:
they are built only when someone reads the ring (:meth:`EventStore.events`,
:meth:`EventStore.of_kind`).
"""

from __future__ import annotations

import functools
import typing
from array import array
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter
from typing import Any, Callable, Union

from repro.obs.events import (
    BarrierWait,
    FastForward,
    FaultTrace,
    PacketTrace,
    QuantumBegin,
    QuantumEnd,
    RequestTrace,
    TraceEvent,
    TransportTrace,
    field_names,
)

#: Every event kind the store holds; a kind's code is its position here.
EVENT_CLASSES: tuple[type[TraceEvent], ...] = (
    QuantumBegin,
    QuantumEnd,
    BarrierWait,
    FastForward,
    PacketTrace,
    FaultTrace,
    TransportTrace,
    RequestTrace,
)

_CODES = {cls: code for code, cls in enumerate(EVENT_CLASSES)}
_KIND_CODES = {cls.kind: code for code, cls in enumerate(EVENT_CLASSES)}

#: Column type per field annotation (``SimTime`` is ``int``).  Integer
#: columns start at int32 and widen to int64 (``q``) on overflow.
_TYPECODES = {int: "i", float: "d", bool: "B", str: "B"}


@functools.cache
def _field_types(cls: type[TraceEvent]) -> tuple[type, ...]:
    """The resolved annotation of each field of *cls*, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple(hints[name] for name in field_names(cls))


def _word_appender(codes: array, words: list[str]) -> Callable[[str], None]:
    """``append`` for a string column: store each word as its code."""
    index = {word: code for code, word in enumerate(words)}

    def append(word: str) -> None:
        code = index.get(word)
        if code is None:
            code = index[word] = len(words)
            words.append(word)
        codes.append(code)

    return append


class _Table:
    """The retained rows of one event kind, one typed column per field."""

    def __init__(self, cls: type[TraceEvent]) -> None:
        self.cls = cls
        self.types = _field_types(cls)
        self.columns = [array(_TYPECODES[kind]) for kind in self.types]
        #: Per string column, its words in code order (None elsewhere).
        self.words: list[Union[list[str], None]] = [
            [] if kind is str else None for kind in self.types
        ]
        #: Rows before ``start`` are shed but not yet compacted away.
        self.start = 0
        self._bind()

    def _bind(self) -> None:
        self.appends = [
            column.append if words is None else _word_appender(column, words)
            for column, words in zip(self.columns, self.words)
        ]
        self.row_of = attrgetter(*field_names(self.cls))

    def __getstate__(self) -> dict[str, Any]:
        # The bound appenders are rebuilt on arrival, not pickled.
        state = self.__dict__.copy()
        del state["appends"], state["row_of"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind()

    def append(self, row: Sequence[Any]) -> None:
        try:
            for append, value in zip(self.appends, row):
                append(value)
        except OverflowError:
            self._append_widening(row)

    def _append_widening(self, row: Sequence[Any]) -> None:
        """Finish a row that overflowed an int32 column, widening it."""
        rows = min(map(len, self.columns))  # columns not yet holding *row*
        for position, value in enumerate(row):
            column = self.columns[position]
            if len(column) > rows:
                continue
            try:
                self.appends[position](value)
            except OverflowError:
                if column.typecode != "i":
                    raise  # a string column with more than 256 words
                self.columns[position] = array("q", column)
                self._bind()
                self.columns[position].append(value)

    def shed(self) -> None:
        """Forget the oldest row; compact once half the columns are dead."""
        self.start += 1
        if 2 * self.start > len(self.columns[0]):
            for column in self.columns:
                del column[: self.start]
            self.start = 0

    def rows(self) -> list[TraceEvent]:
        """The retained rows as event objects, oldest first."""
        start = self.start
        values: list[Iterable[Any]] = []
        for kind, column, words in zip(self.types, self.columns, self.words):
            part = column[start:]
            if kind is bool:
                values.append(map(bool, part))
            elif words is not None:
                values.append(map(words.__getitem__, part))
            else:
                values.append(part)
        return list(map(self.cls, *values))

    def nbytes(self) -> int:
        return sum(len(column) * column.itemsize for column in self.columns)


class EventStore:
    """A bounded ring of trace events (newest win), stored as columns.

    ``dropped`` counts the events shed to make room, so ``len(store) +
    store.dropped`` is every event ever appended.  A ``capacity`` of 0
    retains nothing and counts nothing.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.clear()

    def clear(self, dropped: int = 0) -> None:
        """Empty the ring; *dropped* is the shed count it starts from."""
        self.dropped = dropped
        self._tables = [_Table(cls) for cls in EVENT_CLASSES]
        #: Kind code per retained event, in emission order, from ``_head``.
        self._order = array("B")
        self._head = 0

    def __len__(self) -> int:
        return len(self._order) - self._head

    def append(self, cls: type[TraceEvent], row: Sequence[Any]) -> None:
        """Retain one event of *cls* given its field values in field order."""
        if len(self._order) - self._head == self.capacity:
            if not self.capacity:
                return
            self._shed()
        code = _CODES[cls]
        self._order.append(code)
        self._tables[code].append(row)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append event objects in order, shedding (and counting) as usual."""
        for event in events:
            cls = type(event)
            self.append(cls, self._tables[_CODES[cls]].row_of(event))

    def _shed(self) -> None:
        order = self._order
        self._tables[order[self._head]].shed()
        self._head += 1
        self.dropped += 1
        if 2 * self._head > len(order):
            del order[: self._head]
            self._head = 0

    def events(self) -> list[TraceEvent]:
        """Every retained event, built afresh, in emission order."""
        takes = [iter(table.rows()).__next__ for table in self._tables]
        return [takes[code]() for code in self._order[self._head :]]

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """The retained events of one kind, in emission order."""
        code = _KIND_CODES.get(kind)
        return [] if code is None else self._tables[code].rows()

    def nbytes(self) -> int:
        """Bytes held by the columns and the order column.

        Counts every stored entry (shed-but-uncompacted ones included) at
        its item size, without allocator slack, so it is a deterministic
        function of what was appended.
        """
        return len(self._order) * self._order.itemsize + sum(
            table.nbytes() for table in self._tables
        )


class EventView:
    """Read-only view of a store's retained events, in emission order.

    Each iteration builds the events afresh from the columns; take
    ``list(view)`` once to read them more than once.
    """

    def __init__(self, store: EventStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._store.events())
