"""Immutable sorted string tables with bloom filters."""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import struct
from typing import Any, Iterator, Sequence

__all__ = ["BloomFilter", "SSTable"]

#: The first 28 bytes of a SHA-256 digest as seven little-endian uint32s.
_DIGEST_WORDS = struct.Struct("<7I")


class BloomFilter:
    """A classic bloom filter over string keys.

    Sized for a target false-positive rate: ``m = -n ln(p) / ln(2)^2`` bits
    and ``k = (m/n) ln(2)`` hash functions, with hashes derived from
    non-overlapping slices of a SHA-256 digest.
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items < 1:
            raise ValueError("expected_items must be >= 1")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        bits = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
        self.num_bits = max(8, int(bits))
        self.num_hashes = max(1, round(self.num_bits / expected_items * math.log(2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.items_added = 0

    def _positions(self, key: str) -> tuple[int, ...]:
        # Hash i is the i-th little-endian 32-bit slice of the digest,
        # cycling through its first 28 bytes: word i % 7.
        words = _DIGEST_WORDS.unpack_from(hashlib.sha256(key.encode()).digest())
        num_hashes = self.num_hashes
        if num_hashes > 7:
            words = (words * (num_hashes // 7 + 1))[:num_hashes]
        elif num_hashes < 7:
            words = words[:num_hashes]
        num_bits = self.num_bits
        return tuple([word % num_bits for word in words])

    def add(self, key: str) -> None:
        bits = self._bits
        for position in self._positions(key):
            bits[position >> 3] |= 1 << (position & 7)
        self.items_added += 1

    def might_contain(self, key: str) -> bool:
        bits = self._bits
        for position in self._positions(key):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True


class SSTable:
    """An immutable sorted run backed by a DFS file.

    Holds the sorted keys/values in memory for the simulation while the
    *bytes* live in the DFS file named ``path`` (reads charge the storage
    path).  ``level`` follows LSM convention: 0 for fresh flushes, deeper
    levels for compacted runs.
    """

    _ids = itertools.count()

    def __init__(
        self,
        entries: Sequence[tuple[str, Any]],
        *,
        path: str,
        level: int = 0,
        value_bytes: float = 100.0,
    ):
        if not entries:
            raise ValueError("an SSTable needs at least one entry")
        keys = [key for key, _ in entries]
        if keys != sorted(keys):
            raise ValueError("SSTable entries must be sorted by key")
        if len(set(keys)) != len(keys):
            raise ValueError("SSTable keys must be unique")
        self.sstable_id = next(SSTable._ids)
        self.path = path
        self.level = level
        self._keys = keys
        self._values = [value for _, value in entries]
        self.bloom = BloomFilter(expected_items=len(keys))
        for key in keys:
            self.bloom.add(key)
        self.size_bytes = sum(len(k) + value_bytes for k in keys)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def key_range(self) -> tuple[str, str]:
        return (self._keys[0], self._keys[-1])

    def might_contain(self, key: str) -> bool:
        return self.bloom.might_contain(key)

    def get(self, key: str) -> tuple[bool, Any]:
        """(found, value); callers should bloom-check first."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return True, self._values[index]
        return False, None

    def scan(self, start: str, end: str) -> Iterator[tuple[str, Any]]:
        lo = bisect.bisect_left(self._keys, start)
        hi = bisect.bisect_left(self._keys, end)
        for index in range(lo, hi):
            yield self._keys[index], self._values[index]

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(zip(self._keys, self._values))
