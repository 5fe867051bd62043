"""The periodic scraper: time-series snapshots driven by *simulated* time.

A :class:`Scraper` schedules itself on the simulation's event heap via
:meth:`~repro.sim.Environment.schedule_call` -- the cheap callable path, no
:class:`~repro.sim.Event` object -- and on each fire invokes a read-only
collector that returns the current metric values.  Snapshots accumulate in a
picklable :class:`TimeSeries` so parallel workers can ship their series home
over the shard merge channel.

Determinism: scrape callbacks only *read* simulation state and write into
the metrics registry.  They consume event-heap sequence numbers, but a
consistent monotonic shift never reorders simulation events relative to each
other, so every measurement (profiler samples, spans, query records) is
byte-identical with scraping on or off -- asserted by the observability
parity suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.sim import Environment

__all__ = ["TimeSeries", "Scraper"]

Collector = Callable[[float], Mapping[str, float]]


@dataclass
class TimeSeries:
    """Scrape snapshots for one platform: fixed columns, one row per scrape.

    ``retain`` bounds the row count for long-lived (service-mode) series:
    when set, only the newest ``retain`` rows are kept and older ones are
    discarded on append.  Batch runs leave it ``None`` (keep everything).
    """

    columns: tuple[str, ...] = ()
    rows: list[tuple[float, ...]] = field(default_factory=list)
    retain: int | None = None

    def append(self, sim_time: float, values: Mapping[str, float]) -> None:
        if not self.columns:
            self.columns = tuple(sorted(values))
        self.rows.append(
            (sim_time, *(float(values.get(name, 0.0)) for name in self.columns))
        )
        if self.retain is not None and len(self.rows) > self.retain:
            del self.rows[: len(self.rows) - self.retain]

    def __len__(self) -> int:
        return len(self.rows)

    def latest(self) -> dict[str, float]:
        """The last snapshot as ``{column: value}`` (plus ``"time"``)."""
        if not self.rows:
            return {}
        row = self.rows[-1]
        out = {"time": row[0]}
        out.update(zip(self.columns, row[1:]))
        return out

    def column(self, name: str) -> list[float]:
        try:
            index = self.columns.index(name) + 1
        except ValueError:
            raise KeyError(f"no column {name!r} (have {self.columns})") from None
        return [row[index] for row in self.rows]

    def times(self) -> list[float]:
        return [row[0] for row in self.rows]


class Scraper:
    """Periodically snapshots a collector while the simulation runs.

    The collector is called with the current simulated time and must return
    a flat ``{metric_name: value}`` mapping; it is also the natural place to
    refresh registry gauges.  After the platform's serve loop completes,
    call :meth:`stop` to take one final snapshot and stop rescheduling.
    """

    def __init__(self, env: Environment, period: float, collect: Collector):
        if period <= 0:
            raise ValueError("scrape period must be positive")
        self.env = env
        self.period = period
        self.collect = collect
        self.series = TimeSeries()
        self._running = False

    def start(self) -> "Scraper":
        if self._running:
            raise RuntimeError("scraper already started")
        self._running = True
        self.env.schedule_call(self.env.now + self.period, self._fire)
        return self

    def _fire(self) -> None:
        if not self._running:
            return
        now = self.env.now
        self.series.append(now, self.collect(now))
        self.env.schedule_call(now + self.period, self._fire)

    def stop(self) -> TimeSeries:
        """Take a final snapshot at the current sim time and stop."""
        if self._running:
            self._running = False
            self.series.append(self.env.now, self.collect(self.env.now))
        return self.series
