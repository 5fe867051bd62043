"""Fleet-representative benchmark messages (HyperProtoBench-style).

HyperProtoBench distills Google's fleet-wide protobuf usage into a handful
of benchmark message families spanning the observed size/shape spectrum.
We define five families along the same axes:

* ``M1`` -- small, flat, integer-heavy (RPC envelope style);
* ``M2`` -- string-heavy with several short text fields (logging style);
* ``M3`` -- nested two levels with sub-messages (structured records);
* ``M4`` -- repeated-field heavy (batched values);
* ``M5`` -- large mixed payload with bytes blobs (storage rows).

:class:`MessageCorpus` generates deterministic pseudo-random instances of
each family, which the SoC validation benchmark serializes and hashes.
"""

from __future__ import annotations

import random

from repro.protowire.descriptor import (
    FieldDescriptor,
    FieldType,
    Message,
    MessageDescriptor,
)

__all__ = ["BENCH_FAMILIES", "MessageCorpus"]


def _fd(name, number, type_, repeated=False, message_type=None):
    return FieldDescriptor(
        name=name, number=number, type=type_, repeated=repeated, message_type=message_type
    )


_M1 = MessageDescriptor(
    "M1",
    (
        _fd("request_id", 1, FieldType.INT64),
        _fd("shard", 2, FieldType.INT64),
        _fd("priority", 3, FieldType.SINT64),
        _fd("deadline_ms", 4, FieldType.INT64),
        _fd("is_retry", 5, FieldType.BOOL),
    ),
)

_M2 = MessageDescriptor(
    "M2",
    (
        _fd("service", 1, FieldType.STRING),
        _fd("method", 2, FieldType.STRING),
        _fd("user_agent", 3, FieldType.STRING),
        _fd("trace_id", 4, FieldType.STRING),
        _fd("status_line", 5, FieldType.STRING),
        _fd("latency_us", 6, FieldType.INT64),
    ),
)

_M3_INNER = MessageDescriptor(
    "M3.Inner",
    (
        _fd("key", 1, FieldType.STRING),
        _fd("value", 2, FieldType.DOUBLE),
        _fd("weight", 3, FieldType.FLOAT),
    ),
)

_M3_MIDDLE = MessageDescriptor(
    "M3.Middle",
    (
        _fd("label", 1, FieldType.STRING),
        _fd("inner", 2, FieldType.MESSAGE, message_type=_M3_INNER),
        _fd("count", 3, FieldType.INT64),
    ),
)

_M3 = MessageDescriptor(
    "M3",
    (
        _fd("record_id", 1, FieldType.INT64),
        _fd("left", 2, FieldType.MESSAGE, message_type=_M3_MIDDLE),
        _fd("right", 3, FieldType.MESSAGE, message_type=_M3_MIDDLE),
        _fd("checksum", 4, FieldType.INT64),
    ),
)

_M4 = MessageDescriptor(
    "M4",
    (
        _fd("series_id", 1, FieldType.INT64),
        _fd("timestamps", 2, FieldType.INT64, repeated=True),
        _fd("values", 3, FieldType.DOUBLE, repeated=True),
        _fd("tags", 4, FieldType.STRING, repeated=True),
    ),
)

_M5 = MessageDescriptor(
    "M5",
    (
        _fd("row_key", 1, FieldType.STRING),
        _fd("column_family", 2, FieldType.STRING),
        _fd("payload", 3, FieldType.BYTES),
        _fd("version", 4, FieldType.INT64),
        _fd("compressed", 5, FieldType.BOOL),
        _fd("cells", 6, FieldType.MESSAGE, repeated=True, message_type=_M3_INNER),
    ),
)

BENCH_FAMILIES: tuple[MessageDescriptor, ...] = (_M1, _M2, _M3, _M4, _M5)

_WORDS = (
    "spanner", "bigtable", "bigquery", "shuffle", "tablet", "paxos",
    "colossus", "borg", "dremel", "capacitor", "jupiter", "dapper",
)


class MessageCorpus:
    """Deterministic generator of benchmark message instances."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def _word(self) -> str:
        return self._rng.choice(_WORDS)

    def _text(self, words: int) -> str:
        return "/".join(self._word() for _ in range(words))

    def make(self, family: str) -> Message:
        """One pseudo-random instance of the named family (``"M1"``..``"M5"``)."""
        builder = getattr(self, f"_make_{family.lower()}", None)
        if builder is None:
            raise KeyError(f"unknown message family {family!r}")
        return builder()

    def batch(self, family: str, count: int) -> list[Message]:
        return [self.make(family) for _ in range(count)]

    def mixed_batch(self, count: int) -> list[Message]:
        """A fleet-weighted mix across all five families."""
        out = []
        for _ in range(count):
            family = self._rng.choice(BENCH_FAMILIES).name.split(".")[0]
            out.append(self.make(family))
        return out

    def _make_m1(self) -> Message:
        rng = self._rng
        return (
            _M1.new()
            .set("request_id", rng.getrandbits(48))
            .set("shard", rng.randrange(1024))
            .set("priority", rng.randrange(-16, 16))
            .set("deadline_ms", rng.randrange(1, 60_000))
            .set("is_retry", rng.random() < 0.1)
        )

    def _make_m2(self) -> Message:
        rng = self._rng
        return (
            _M2.new()
            .set("service", self._text(2))
            .set("method", self._word())
            .set("user_agent", self._text(4))
            .set("trace_id", f"{rng.getrandbits(64):016x}")
            .set("status_line", self._text(3))
            .set("latency_us", rng.randrange(50, 500_000))
        )

    def _inner(self) -> Message:
        rng = self._rng
        return (
            _M3_INNER.new()
            .set("key", self._word())
            .set("value", rng.uniform(-1e6, 1e6))
            .set("weight", rng.random())
        )

    def _middle(self) -> Message:
        rng = self._rng
        return (
            _M3_MIDDLE.new()
            .set("label", self._text(2))
            .set("inner", self._inner())
            .set("count", rng.randrange(1000))
        )

    def _make_m3(self) -> Message:
        rng = self._rng
        return (
            _M3.new()
            .set("record_id", rng.getrandbits(32))
            .set("left", self._middle())
            .set("right", self._middle())
            .set("checksum", rng.getrandbits(32))
        )

    def _make_m4(self) -> Message:
        rng = self._rng
        count = rng.randrange(8, 64)
        base = rng.getrandbits(40)
        message = _M4.new().set("series_id", rng.getrandbits(32))
        message.set("timestamps", [base + i * 1000 for i in range(count)])
        message.set("values", [rng.gauss(0.0, 10.0) for _ in range(count)])
        message.set("tags", [self._word() for _ in range(rng.randrange(1, 6))])
        return message

    def _make_m5(self) -> Message:
        rng = self._rng
        message = (
            _M5.new()
            .set("row_key", self._text(3))
            .set("column_family", self._word())
            .set("payload", rng.randbytes(rng.randrange(128, 1024)))
            .set("version", rng.randrange(1 << 20))
            .set("compressed", rng.random() < 0.5)
        )
        for _ in range(rng.randrange(2, 6)):
            message.add("cells", self._inner())
        return message

