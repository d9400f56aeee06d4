"""Streaming fact IO — the disk format behind million-fact workloads.

The existing :mod:`repro.instances.io` loaders materialize an entire
JSON/CSV document before building the instance, which caps workloads at
whatever fits in a parsed DOM.  This module defines the *fact-stream v1*
format — one self-describing header line followed by one tab-separated
fact row per line — together with a buffered :class:`FactStreamWriter`
(rows accumulate in a fixed-size batch and hit the file handle as a
single ``write`` per flush) and a lazy :class:`FactStream` reader whose
construction cost is one header line, regardless of file size.

Format::

    #repro-factstream v1 {"schema": {"R": 2, "S": 1}}
    R\ta\tb
    S\tb

Rows hold ground facts over :class:`~repro.lang.terms.Const` elements
(the workload factory only ever emits those; labeled nulls belong to
chase *results*, which the materializing JSON writer already handles).
Constant names may not contain tabs or newlines — the writer rejects
them instead of producing an unparseable file.

:func:`instance_from_stream` is the ingestion path surfaced as
:meth:`Instance.from_stream <repro.instances.instance.Instance.from_stream>`:
rows are consumed in batches of ``batch_size`` and deduplicated against
the growing fact sets in a single pass over the stream.  Ingest telemetry:
``ingest.facts`` / ``ingest.batches`` counters and an
``ingest.batch_ms`` histogram, recorded per batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from types import TracebackType
from typing import IO, Iterable, Iterator, Sequence, Union

from ..collector import pauses_collector
from ..lang.schema import Relation, Schema
from ..lang.terms import Const
from ..telemetry import TELEMETRY
from .instance import Instance

__all__ = [
    "DEFAULT_BATCH_ROWS",
    "FactStream",
    "FactStreamError",
    "FactStreamWriter",
    "instance_from_stream",
]

DEFAULT_BATCH_ROWS = 8192
"""Rows per writer flush / ingestion batch when callers don't choose."""

_HEADER_PREFIX = "#repro-factstream v1 "

Row = tuple[Relation, tuple[object, ...]]
"""One streamed fact: the relation and its element tuple."""

StreamSource = Union[str, Path, "FactStream", Iterable[Row]]


class FactStreamError(ValueError):
    """Raised for malformed fact-stream files or ill-formed rows."""


def _element_name(relation: Relation, element: object) -> str:
    """The on-disk spelling of one element (validated)."""
    if isinstance(element, Const):
        name = element.name
    elif isinstance(element, str):
        name = element
    else:
        raise FactStreamError(
            f"fact streams hold ground Const facts; got {element!r} "
            f"in a {relation.name} row"
        )
    if "\t" in name or "\n" in name or "\r" in name:
        raise FactStreamError(
            f"constant name {name!r} contains a tab/newline and cannot "
            f"be streamed"
        )
    return name


class FactStreamWriter:
    """Buffered fact-stream writer.

    Rows are formatted immediately but buffered; every ``batch_size``
    rows the buffer is joined and written in one call, so a million-row
    workload costs hundreds of ``write`` syscalls rather than a million.
    Use as a context manager (the final partial batch flushes on close):

    >>> with FactStreamWriter(path, schema) as writer:      # doctest: +SKIP
    ...     writer.write(rel, (Const("a"), Const("b")))

    Telemetry: ``workload.rows_written`` counts rows,
    ``workload.flushes`` counts buffer flushes.
    """

    def __init__(
        self,
        path: str | Path,
        schema: Schema,
        *,
        batch_size: int = DEFAULT_BATCH_ROWS,
    ) -> None:
        if batch_size < 1:
            raise FactStreamError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self._schema = schema
        self._batch_size = batch_size
        self._buffer: list[str] = []
        self._closed = False
        self.rows_written = 0
        self._handle: IO[str] = open(path, "w", encoding="utf-8")
        header = {
            "schema": {rel.name: rel.arity for rel in schema}
        }
        self._handle.write(
            _HEADER_PREFIX + json.dumps(header, sort_keys=True) + "\n"
        )

    def write(self, relation: Relation, elements: Sequence[object]) -> None:
        """Append one fact row (flushes when the batch fills)."""
        if self._closed:
            raise FactStreamError("writer is closed")
        if relation not in self._schema:
            raise FactStreamError(
                f"{relation} is not in the stream schema {self._schema}"
            )
        if len(elements) != relation.arity:
            raise FactStreamError(
                f"row {tuple(elements)!r} has wrong arity for {relation}"
            )
        parts = [relation.name]
        for element in elements:
            parts.append(_element_name(relation, element))
        self._buffer.append("\t".join(parts) + "\n")
        self.rows_written += 1
        if len(self._buffer) >= self._batch_size:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._handle.write("".join(self._buffer))
        self._buffer.clear()
        if TELEMETRY.enabled:
            TELEMETRY.count("workload.flushes")

    def close(self) -> None:
        """Flush the final partial batch and close the file."""
        if self._closed:
            return
        self._flush()
        self._handle.close()
        self._closed = True
        if TELEMETRY.enabled:
            TELEMETRY.count("workload.rows_written", self.rows_written)

    def __enter__(self) -> "FactStreamWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class FactStream:
    """A lazily iterable fact-stream file.

    Construction reads only the header line (schema discovery is O(1)
    in the file size); each ``iter()`` re-opens the file and yields
    ``(relation, elements)`` rows one line at a time, so a 10^7-row
    stream never materializes.  Each constant name is looked up in the
    process-wide :class:`Const` table, so a repeated name resolves to the
    one :class:`Const` of that name, in every pass and across streams
    (workload keys are Zipf-skewed, so the hit rate is high and the
    constructor runs only on a miss).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # Undecodable bytes become lone surrogates instead of raising
        # mid-buffer (a strict text layer decodes ahead of the line being
        # read), so the reader can name the line that holds them.
        with open(
            self.path, "r", encoding="utf-8", errors="surrogateescape"
        ) as handle:
            header = handle.readline()
        if not header.isascii():
            self._check_decodable(header, 1)
        if not header.startswith(_HEADER_PREFIX):
            raise FactStreamError(
                f"{self.path}: not a fact stream (missing "
                f"{_HEADER_PREFIX.strip()!r} header)"
            )
        try:
            payload = json.loads(header[len(_HEADER_PREFIX):])
            declared = payload["schema"]
            relations = [
                Relation(name, int(arity))
                for name, arity in declared.items()
            ]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise FactStreamError(
                f"{self.path}: malformed fact-stream header: {exc}"
            ) from None
        self.schema = Schema(relations)

    def __iter__(self) -> Iterator[Row]:
        by_name = {rel.name: rel for rel in self.schema}
        interned = Const.table.get
        with open(
            self.path, "r", encoding="utf-8", errors="surrogateescape"
        ) as handle:
            handle.readline()  # header
            for number, line in enumerate(handle, 2):
                if not line.isascii():
                    self._check_decodable(line, number)
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                relation = by_name.get(parts[0])
                if relation is None:
                    raise FactStreamError(
                        f"{self.path}:{number}: unknown relation "
                        f"{parts[0]!r}"
                    )
                if len(parts) - 1 != relation.arity:
                    raise FactStreamError(
                        f"{self.path}:{number}: {relation} row has "
                        f"{len(parts) - 1} element(s)"
                    )
                elements = []
                for name in parts[1:]:
                    const = interned(name)
                    if const is None:
                        const = Const(name)
                    elements.append(const)
                yield (relation, tuple(elements))

    def _check_decodable(self, line: str, number: int) -> None:
        """Raise :class:`FactStreamError` naming ``path:number`` if
        ``line`` holds bytes that were not UTF-8."""
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise FactStreamError(
                f"{self.path}:{number}: undecodable bytes (fact streams "
                f"are UTF-8)"
            ) from None


def _resolve_source(
    source: StreamSource, schema: Schema | None
) -> tuple[Iterable[Row], Schema, bool]:
    """The row iterable, the effective schema, and whether rows are
    already validated (file streams validate while parsing)."""
    if isinstance(source, (str, Path)):
        source = FactStream(source)
    if isinstance(source, FactStream):
        effective = source.schema if schema is None else schema
        return source, effective, schema is None
    if schema is None:
        raise FactStreamError(
            "instance_from_stream needs an explicit schema= for plain "
            "row iterables (file streams carry one in their header)"
        )
    return source, schema, False


@pauses_collector
def instance_from_stream(
    source: StreamSource,
    *,
    schema: Schema | None = None,
    batch_size: int = DEFAULT_BATCH_ROWS,
) -> Instance:
    """Build an :class:`Instance` by a single batched pass over rows.

    ``source`` is a fact-stream path, an open :class:`FactStream`, or
    any iterable of ``(relation, elements)`` rows (then ``schema=`` is
    required).  Rows are consumed in batches of ``batch_size``:
    duplicates are dropped and the domain is the elements seen.  Every
    batch records ``ingest.facts`` / ``ingest.batches``
    and an ``ingest.batch_ms`` histogram observation.

    The result is equal (``==``, and bit-identical under every engine)
    to ``Instance.from_facts`` over the same rows — the streaming axis
    of ``tests/test_differential_chase.py`` pins that.

    Like :func:`repro.chase.engine.chase`, it runs with the cyclic
    garbage collector paused (:func:`repro.collector.pauses_collector`).
    """
    if batch_size < 1:
        raise FactStreamError(f"batch_size must be >= 1, got {batch_size}")
    rows, effective_schema, validated = _resolve_source(source, schema)
    relations: dict[Relation, set[tuple[object, ...]]] = {
        rel: set() for rel in effective_schema
    }

    enabled = TELEMETRY.enabled

    def ingest(chunk: list[Row]) -> None:
        started = perf_counter()
        for relation, elements in chunk:
            extent = relations.get(relation)
            if extent is None:
                raise FactStreamError(
                    f"{relation} is not in the schema {effective_schema}"
                )
            if not validated and len(elements) != relation.arity:
                raise FactStreamError(
                    f"row {elements!r} has wrong arity for {relation}"
                )
            extent.add(elements)
        if enabled:
            TELEMETRY.count("ingest.facts", len(chunk))
            TELEMETRY.count("ingest.batches")
            TELEMETRY.observe(
                "ingest.batch_ms", (perf_counter() - started) * 1e3
            )

    chunk: list[Row] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            ingest(chunk)
            chunk = []
    if chunk:
        ingest(chunk)

    # The domain is derived once at the end instead of per row: one
    # pass over the (smaller, deduplicated) extents does it.
    seen: set[object] = set()
    for extent in relations.values():
        for elements in extent:
            seen.update(elements)

    return Instance._trusted(
        effective_schema,
        frozenset(seen),
        {rel: frozenset(tuples) for rel, tuples in relations.items()},
    )
