"""The store handle: sqlite connection plus interning and error mapping.

:class:`ProfileStore` is the one object writers and providers share.  It
owns the connection, enforces the versioned schema on open, maps every
``sqlite3`` failure onto the repo's typed-error taxonomy
(:class:`~repro.errors.StoreError`, an exit-2 :class:`ConfigError` at
the CLI), and carries the string intern cache the sample columns use --
the on-disk mirror of the profiler's own intern tables.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Iterable

from repro.errors import StoreError
from repro.store.schema import SCHEMA_VERSION, ensure_schema

__all__ = ["ProfileStore", "open_store"]


class ProfileStore:
    """One sqlite profile store: connection, schema, intern cache.

    ``path`` may be a filesystem path or ``":memory:"``.  The schema is
    created (or migrated forward) on open; stores written by a *newer*
    schema refuse to open.  Usable as a context manager: commits on
    clean exit, rolls back on error, always closes.
    """

    def __init__(self, path: str | os.PathLike = ":memory:"):
        self.path = os.fspath(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as error:
            raise StoreError(f"cannot open store {self.path!r}: {error}") from error
        try:
            ensure_schema(self._conn)
        except (sqlite3.Error, sqlite3.Warning) as error:
            self._conn.close()
            raise StoreError(
                f"{self.path!r} is not a profile store: {error}"
            ) from error
        except StoreError:
            self._conn.close()
            raise
        #: value -> string_id cache for the shared intern dictionary.
        self._interned: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    def commit(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ProfileStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._conn.commit()
            else:
                self._conn.rollback()
        finally:
            self._conn.close()

    # -- queries -------------------------------------------------------------

    def execute(self, sql: str, parameters: Iterable = ()) -> sqlite3.Cursor:
        try:
            return self._conn.execute(sql, tuple(parameters))
        except sqlite3.Error as error:
            raise StoreError(f"store query failed: {error}") from error

    def executemany(self, sql: str, rows: Iterable[tuple]) -> sqlite3.Cursor:
        try:
            return self._conn.executemany(sql, rows)
        except sqlite3.Error as error:
            raise StoreError(f"store insert failed: {error}") from error

    @property
    def schema_version(self) -> int:
        (version,) = self.execute("PRAGMA user_version").fetchone()
        return int(version)

    # -- interning -----------------------------------------------------------

    def intern(self, value: str) -> int:
        """The shared dictionary id for ``value`` (inserting on first use)."""
        sid = self._interned.get(value)
        if sid is not None:
            return sid
        row = self.execute(
            "SELECT string_id FROM strings WHERE value = ?", (value,)
        ).fetchone()
        if row is None:
            cursor = self.execute(
                "INSERT INTO strings (value) VALUES (?)", (value,)
            )
            sid = int(cursor.lastrowid)
        else:
            sid = int(row[0])
        self._interned[value] = sid
        return sid


def open_store(path: str | os.PathLike, *, create: bool = True) -> ProfileStore:
    """Open (or create) a profile store at ``path``.

    ``create=False`` requires the file to exist already -- the read-side
    contract for CLI query verbs, which must fail with a one-line typed
    error rather than silently materializing an empty store.
    """
    path = os.fspath(path)
    if path != ":memory:" and not create and not os.path.exists(path):
        raise StoreError(f"no store at {path!r}")
    if path != ":memory:":
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise StoreError(f"store directory {parent!r} does not exist")
    return ProfileStore(path)


# Re-exported for convenience: the schema version a new store gets.
ProfileStore.SCHEMA_VERSION = SCHEMA_VERSION
