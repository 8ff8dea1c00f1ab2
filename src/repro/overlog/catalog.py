"""Table catalog and tuple storage for the Overlog runtime.

Materialized tables follow P2 semantics: each table has a primary key (a
subset of columns); inserting a row whose key collides with an existing row
*replaces* that row.  An empty key spec means the whole row is the key,
giving plain set semantics.

Storage layout
--------------

Rows are Python tuples, keyed by primary key in ``_rows`` — that dict is
the ground truth and what ``lookup_key`` (generated source's PK fast path,
see :mod:`repro.overlog.codegen`) reads with a single hash probe.  Around
it the table keeps *derived* columnar structures, all built lazily and
invalidated by a version counter:

* a **scan snapshot** (``rows_list``): the full row list is materialized
  once per version and shared by every scan until the next mutation.
  Join-plan scans, ``scan()`` iterators and witness probes all reuse it,
  so a steady-state table costs one list build per change, not per read.
  Callers must treat the returned list as read-only.
* **columnar projections** (``column_values``): per-column value arrays
  aligned with the scan snapshot, for column-at-a-time consumers
  (aggregate folds, replication scans) that would otherwise zip tuples.
* **tuple interning**: inserted rows are canonicalized through an intern
  table, so the equal-row tuples that circulate through deltas, banned
  sets and provenance keys share one object and compare by identity
  fast-path inside set/dict probes.

Secondary hash indexes (single-column and composite) are built on first
probe and maintained in place on every insert/delete — including through
``clear()``, which empties them *without replacing the dicts*, so a
compiled plan holding a reference from ``ensure_index`` stays correct
across a clear-then-reinsert cycle (``index_builds`` counts from-scratch
constructions only, and a clear does not reset it).

Event relations are transient: their tuples live only for the duration of a
single timestep and are managed by the evaluator, not stored here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .ast import EventDecl, Program, TableDecl, TimerDecl
from .errors import CatalogError

Row = tuple

_TYPE_CHECKS = {
    "Int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "Float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "Str": lambda v: isinstance(v, str),
    "String": lambda v: isinstance(v, str),
    "Bool": lambda v: isinstance(v, bool),
    "List": lambda v: isinstance(v, tuple),
    "Any": lambda v: True,
}


# A row equal to a stored one can differ from it in type only through
# Python's numeric tower (1 == 1.0 == True), so a no-op insert has
# nothing left to validate once the values in its numeric columns are of
# these exact types; anything else takes the full check.
_EXACT_TYPES = {
    "Int": (int, type(None)),
    "Float": (int, float, type(None)),
    "Bool": (bool, type(None)),
}


@dataclass
class InsertResult:
    """Outcome of a table insert."""

    inserted: bool  # True if the table changed
    displaced: Optional[Row] = None  # row replaced by a primary-key update


# Shared instances for the two allocation-free outcomes (callers only
# read the fields, never mutate them).
_NOT_INSERTED = InsertResult(inserted=False)
_INSERTED_CLEAN = InsertResult(inserted=True)


class Table:
    """A single materialized relation with primary-key update semantics."""

    def __init__(self, decl: TableDecl):
        if any(k < 0 or k >= decl.arity for k in decl.keys):
            raise CatalogError(
                f"table {decl.name}: key column out of range for arity {decl.arity}"
            )
        self.decl = decl
        self.name = decl.name
        self._rows: dict[Row, Row] = {}
        # Canonical instances of stored rows: equal tuples arriving from
        # different producers (network decode, rule projection) are folded
        # onto one object so downstream identity fast-paths fire.
        self._intern: dict[Row, Row] = {}
        # Lazily-built secondary hash indexes (column -> value -> rows),
        # used by the evaluator for bound-column joins; maintained on
        # every insert/delete once built.
        self._indexes: dict[int, dict] = {}
        # Composite hash indexes keyed by an ordered column tuple
        # (columns -> key tuple -> rows).  Built on demand by the join
        # plans that probe them (see repro.overlog.plan); maintained on
        # every insert/delete once built.  ``index_builds`` counts
        # from-scratch constructions so tests can assert each index is
        # built exactly once.
        self._composite_indexes: dict[tuple[int, ...], dict[Row, set[Row]]] = {}
        self.index_builds = 0
        # Per-column type validators, resolved once: only columns with a
        # real check are visited per insert.
        self._type_checks = tuple(
            (col, check)
            for col, tname in enumerate(decl.types)
            if (check := _TYPE_CHECKS.get(tname)) is not None
            and tname != "Any"
        )
        self._numeric_cols = tuple(
            (col, _EXACT_TYPES[tname])
            for col, tname in enumerate(decl.types)
            if tname in _EXACT_TYPES
        )
        # Derived columnar state, invalidated by bumping ``_version``:
        # the memoized scan snapshot and per-column projections.
        self._version = 0
        self._scan_cache: Optional[list[Row]] = None
        self._scan_version = -1
        self._columns: dict[int, list] = {}
        self._columns_version = -1

    def _key_of(self, row: Row) -> Row:
        if not self.decl.keys:
            return row
        return tuple(row[k] for k in self.decl.keys)

    def _check_row(self, row: Row) -> None:
        if len(row) != self.decl.arity:
            raise CatalogError(
                f"table {self.name}: arity mismatch, expected "
                f"{self.decl.arity} got {len(row)}: {row!r}"
            )
        for col, check in self._type_checks:
            value = row[col]
            if value is not None and not check(value):
                raise CatalogError(
                    f"table {self.name}: value {value!r} is not of type "
                    f"{self.decl.types[col]}"
                )

    def insert(self, row: Row) -> InsertResult:
        """Insert ``row``; a primary-key collision replaces the old row."""
        # Re-derivations of stored rows are most inserts: ``_intern``
        # holds exactly the stored rows, so answer those from it.
        try:
            stored = self._intern.get(row)
        except TypeError:
            stored = None
        if stored is not None:
            for col, exact in self._numeric_cols:
                if type(row[col]) not in exact:
                    break
            else:
                return _NOT_INSERTED
        self._check_row(row)
        row = self._intern.setdefault(row, row)
        key = self._key_of(row)
        old = self._rows.get(key)
        if old is row or old == row:
            return _NOT_INSERTED
        self._rows[key] = row
        self._version += 1
        if old is not None and self._intern.get(old) is old:
            del self._intern[old]
        for column, index in self._indexes.items():
            if old is not None:
                bucket = index.get(old[column])
                if bucket is not None:
                    bucket.discard(old)
            index.setdefault(row[column], set()).add(row)
        for columns, index in self._composite_indexes.items():
            if old is not None:
                bucket = index.get(tuple(old[c] for c in columns))
                if bucket is not None:
                    bucket.discard(old)
            index.setdefault(
                tuple(row[c] for c in columns), set()
            ).add(row)
        if old is None:
            return _INSERTED_CLEAN
        return InsertResult(inserted=True, displaced=old)

    def delete(self, row: Row) -> bool:
        """Delete ``row`` if present (exact match).  Returns True on change."""
        key = self._key_of(row)
        stored = self._rows.get(key)
        if stored == row:
            del self._rows[key]
            self._version += 1
            if self._intern.get(stored) is stored:
                del self._intern[stored]
            for column, index in self._indexes.items():
                bucket = index.get(stored[column])
                if bucket is not None:
                    bucket.discard(stored)
            for columns, index in self._composite_indexes.items():
                bucket = index.get(tuple(stored[c] for c in columns))
                if bucket is not None:
                    bucket.discard(stored)
            return True
        return False

    def rows_matching(self, column: int, value) -> list[Row]:
        """Rows whose ``column`` equals ``value``, via a hash index built
        on first use for that column."""
        index = self._indexes.get(column)
        if index is None:
            index = self.ensure_single_index(column)
        return list(index.get(value, ()))

    def rows_matching_ref(self, column: int, value):
        """Like :meth:`rows_matching` but returns the live index bucket
        (a set) without copying.  Callers must finish iterating before
        any table mutation — generated plan functions qualify: they are
        pure and materialize their full output before the evaluator
        applies staged insertions."""
        index = self._indexes.get(column)
        if index is None:
            index = self.ensure_single_index(column)
        return index.get(value, ())

    def ensure_single_index(self, column: int) -> dict:
        """Get-or-build the single-column hash index over ``column``.
        Returned dicts stay valid for the table's lifetime: maintenance
        (including :meth:`clear`) mutates them in place."""
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for row in self._rows.values():
                index.setdefault(row[column], set()).add(row)
            self._indexes[column] = index
            self.index_builds += 1
        return index

    def ensure_index(self, columns: tuple[int, ...]) -> dict:
        """Get-or-build the composite hash index over ``columns``.

        Single-column probes use the legacy per-column index so the two
        machineries never duplicate storage for the same column.  As with
        :meth:`ensure_single_index`, the returned dict is maintained in
        place forever, so callers may cache the reference.
        """
        index = self._composite_indexes.get(columns)
        if index is None:
            index = {}
            for row in self._rows.values():
                index.setdefault(
                    tuple(row[c] for c in columns), set()
                ).add(row)
            self._composite_indexes[columns] = index
            self.index_builds += 1
        return index

    def rows_matching_cols(
        self, columns: tuple[int, ...], values: Row
    ) -> list[Row]:
        """Rows where ``row[c] == v`` for each paired column/value, via a
        composite hash index built on first use for that column tuple."""
        if len(columns) == 1:
            return self.rows_matching(columns[0], values[0])
        return list(self.ensure_index(columns).get(values, ()))

    def contains(self, row: Row) -> bool:
        return self._rows.get(self._key_of(row)) == row

    def lookup_key(self, key: Row) -> Optional[Row]:
        """Fetch the row stored under a primary key, or None."""
        return self._rows.get(key)

    def scan(self) -> Iterator[Row]:
        # The snapshot list is immutable-by-convention and replaced (not
        # mutated) on change, so handing out an iterator over it is safe
        # even if evaluation inserts into this table mid-scan.
        return iter(self.rows_list())

    def rows_list(self) -> list[Row]:
        """Memoized snapshot of all rows as a list (what join plans
        scan).  Rebuilt at most once per table version; treat as
        read-only — mutating the returned list corrupts every concurrent
        scan of the same version."""
        if self._scan_version != self._version:
            self._scan_cache = list(self._rows.values())
            self._scan_version = self._version
        return self._scan_cache

    def column_values(self, column: int) -> list:
        """Columnar projection: all values of ``column``, aligned with
        :meth:`rows_list` order.  Materialized lazily per version and
        cached, for column-at-a-time consumers (folds, health scans)."""
        if self._columns_version != self._version:
            self._columns.clear()
            self._columns_version = self._version
        values = self._columns.get(column)
        if values is None:
            values = self._columns[column] = [
                row[column] for row in self.rows_list()
            ]
        return values

    def clear(self) -> None:
        """Remove every row.  Built indexes are emptied *in place* (the
        dict objects survive), so plan-cached references from
        ``ensure_index``/``ensure_single_index`` remain correct; they are
        not rebuilt, so ``index_builds`` does not change."""
        self._rows.clear()
        self._intern.clear()
        self._version += 1
        for index in self._indexes.values():
            index.clear()
        for index in self._composite_indexes.values():
            index.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return self.scan()


class Catalog:
    """The set of relations known to one runtime instance.

    Built from one or more programs; relation names are global, so two
    programs loaded into the same runtime share tables with matching
    declarations (conflicting redeclarations are rejected).
    """

    def __init__(self):
        self.tables: dict[str, Table] = {}
        self.events: dict[str, EventDecl] = {}
        self.timers: dict[str, TimerDecl] = {}

    def load(self, program: Program) -> None:
        for decl in program.decls:
            if isinstance(decl, TableDecl):
                self._add_table(decl)
            elif isinstance(decl, EventDecl):
                self._add_event(decl)
            elif isinstance(decl, TimerDecl):
                self._add_timer(decl)

    def _add_table(self, decl: TableDecl) -> None:
        if decl.name in self.events or decl.name in self.timers:
            raise CatalogError(f"{decl.name} already declared as an event/timer")
        existing = self.tables.get(decl.name)
        if existing is not None:
            if existing.decl != decl:
                raise CatalogError(f"conflicting redefinition of table {decl.name}")
            return
        self.tables[decl.name] = Table(decl)

    def _add_event(self, decl: EventDecl) -> None:
        if decl.name in self.tables or decl.name in self.timers:
            raise CatalogError(f"{decl.name} already declared as a table/timer")
        existing = self.events.get(decl.name)
        if existing is not None and existing != decl:
            raise CatalogError(f"conflicting redefinition of event {decl.name}")
        self.events[decl.name] = decl

    def _add_timer(self, decl: TimerDecl) -> None:
        if decl.name in self.tables or decl.name in self.events:
            raise CatalogError(f"{decl.name} already declared as a table/event")
        existing = self.timers.get(decl.name)
        if existing is not None and existing != decl:
            raise CatalogError(f"conflicting redefinition of timer {decl.name}")
        self.timers[decl.name] = decl

    def is_materialized(self, name: str) -> bool:
        return name in self.tables

    def is_event(self, name: str) -> bool:
        # Timers behave as events at evaluation time: a firing injects a
        # transient tuple.
        return name in self.events or name in self.timers

    def is_declared(self, name: str) -> bool:
        return name in self.tables or self.is_event(name)

    def arity(self, name: str) -> int:
        if name in self.tables:
            return self.tables[name].decl.arity
        if name in self.events:
            return self.events[name].arity
        if name in self.timers:
            return 2  # (fire_count, now_ms)
        raise CatalogError(f"unknown relation {name}")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name}") from None
