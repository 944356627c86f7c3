"""sqlite3-backed source storage.

The base relation lives in a sqlite table (one row per distinct tuple plus
a ``_count`` multiplicity column).  ``ComputeJoin(Delta-V, R)`` uploads the
partial view change into a temp table and lets sqlite evaluate the join, so
the distributed experiments exercise a real SQL engine at every source.

Each backend owns a private ``:memory:`` connection by default; passing a
path gives a file-backed database (used by the retail example).
"""

from __future__ import annotations

import sqlite3

from repro.relational.delta import Delta
from repro.relational.errors import NegativeCountError, SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.relational import sqlgen
from repro.sources.base import SourceBackend


class SqliteBackend(SourceBackend):
    """Stores the base relation in a sqlite3 table.

    Parameters mirror :class:`~repro.sources.memory.MemoryBackend`, plus
    ``database`` (sqlite path, default in-memory).
    """

    PARTIAL_TABLE = "_partial_dv"

    def __init__(
        self,
        view: ViewDefinition,
        index: int,
        initial: Relation | None = None,
        database: str = ":memory:",
    ):
        self.view = view
        self.index = index
        self.schema = view.schema_of(index)
        self.table = view.name_of(index)
        self._conn = sqlite3.connect(database)
        self._conn.execute(sqlgen.drop_table_sql(self.table))
        self._conn.execute(sqlgen.create_table_sql(self.table, self.schema))
        if initial is not None:
            if initial.schema.attributes != self.schema.attributes:
                raise SchemaError(
                    f"initial contents schema {list(initial.schema.attributes)!r}"
                    f" does not match relation {self.table!r}"
                )
            self._conn.executemany(
                sqlgen.insert_rows_sql(self.table, self.schema),
                [row + (count,) for row, count in initial.items()],
            )
        self._conn.commit()

    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> None:
        """Upsert signed counts, then verify no multiplicity went negative."""
        cur = self._conn.cursor()
        try:
            cur.executemany(
                sqlgen.upsert_count_sql(self.table, self.schema),
                [row + (count,) for row, count in delta.items()],
            )
            negative = cur.execute(
                f"SELECT COUNT(*) FROM {sqlgen.quote_ident(self.table)}"
                f" WHERE {sqlgen.COUNT_COLUMN} < 0"
            ).fetchone()[0]
            if negative:
                bad = cur.execute(
                    sqlgen.select_all_sql(self.table, self.schema)
                    + f" WHERE {sqlgen.COUNT_COLUMN} < 0 LIMIT 1"
                ).fetchone()
                self._conn.rollback()
                raise NegativeCountError(tuple(bad[:-1]), bad[-1])
            cur.execute(sqlgen.prune_zero_sql(self.table))
            self._conn.commit()
        finally:
            cur.close()

    def snapshot(self) -> Relation:
        rows = self._conn.execute(
            sqlgen.select_all_sql(self.table, self.schema)
        ).fetchall()
        return Relation(self.schema, {tuple(r[:-1]): r[-1] for r in rows})

    def compute_join(self, partial: PartialView) -> PartialView:
        index = self.index
        if not partial.is_adjacent(index):
            raise SchemaError(
                f"relation {index} is not adjacent to covered range"
                f" {partial.lo}..{partial.hi}"
            )
        covered = partial.covered
        # Conditions come from the *partial's* view: a multi-view warehouse
        # sends partials of several view definitions to the same backend.
        pview = partial.view
        if pview.schema_of(index).attributes != self.schema.attributes:
            raise SchemaError(
                f"view {pview.name!r} expects schema"
                f" {list(pview.schema_of(index).attributes)!r} at index"
                f" {index}, backend stores {list(self.schema.attributes)!r}"
            )
        condition = pview.conditions_joining(index, covered)
        new_lo, new_hi = min(partial.lo, index), max(partial.hi, index)
        out_schema = pview.wide_schema_range(new_lo, new_hi)

        partial_schema = partial.delta.schema
        cur = self._conn.cursor()
        try:
            cur.execute(sqlgen.drop_table_sql(self.PARTIAL_TABLE))
            cur.execute(
                sqlgen.create_temp_table_sql(self.PARTIAL_TABLE, partial_schema)
            )
            cur.executemany(
                sqlgen.insert_rows_sql(self.PARTIAL_TABLE, partial_schema),
                [row + (count,) for row, count in partial.delta.items()],
            )
            sql, params = sqlgen.join_partial_sql(
                base_table=self.table,
                base_schema=self.schema,
                partial_table=self.PARTIAL_TABLE,
                partial_attrs=partial_schema.attributes,
                condition=condition,
                output_attrs=out_schema.attributes,
            )
            out = Delta(out_schema)
            for row in cur.execute(sql, params):
                out.add(tuple(row[:-1]), row[-1])
            cur.execute(sqlgen.drop_table_sql(self.PARTIAL_TABLE))
        finally:
            cur.close()
        return PartialView(partial.view, new_lo, new_hi, out)

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return f"SqliteBackend({self.table!r})"


__all__ = ["SqliteBackend"]
