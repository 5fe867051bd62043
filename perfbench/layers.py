"""Fold a cProfile run into self time per simulator layer.

Each profiled function's self time goes to the layer its module belongs
to, keyed by path under the ``repro`` package.  Functions outside the
package -- C builtins, the standard library, numpy -- have no layer of
their own: their self time is charged to the layers that called them, in
proportion to the time each caller spent in them, following callers up
until a ``repro`` frame is reached.
"""

from __future__ import annotations

import pstats
from pathlib import Path

#: Every layer the fold reports, in display order.
LAYERS = (
    "sim",
    "platforms.bigquery",
    "platforms.spanner",
    "platforms.bigtable",
    "platforms.common",
    "cluster",
    "storage",
    "profiling.gwp",
    "profiling.dapper",
    "profiling",
    "workloads",
    "observability",
    "store",
    "analysis",
    "other",
)

_PLATFORM_PACKAGES = {"bigquery", "bigtable", "spanner"}
_SINGLE = {"sim", "cluster", "storage", "workloads", "observability", "store", "analysis"}


def layer_of(filename: str, package: Path) -> str | None:
    """The layer of a source file, or None when it is outside ``package``."""
    try:
        parts = Path(filename).resolve().relative_to(package).parts
    except ValueError:
        return None
    head = parts[0]
    if head in _SINGLE:
        return head
    if head == "platforms":
        if len(parts) > 2 and parts[1] in _PLATFORM_PACKAGES:
            return f"platforms.{parts[1]}"
        return "platforms.common"
    if head == "profiling":
        module = Path(parts[-1]).stem
        return f"profiling.{module}" if module in ("gwp", "dapper") else "profiling"
    return "other"


def fold(profile, package: Path) -> dict[str, float]:
    """Self seconds per layer from a ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats
    file_layer: dict[str, str | None] = {}
    shares: dict[tuple, dict[str, float]] = {}

    def own_layer(key) -> str | None:
        filename = key[0]
        if filename not in file_layer:
            file_layer[filename] = (
                None if filename.startswith(("~", "<")) else layer_of(filename, package)
            )
        return file_layer[filename]

    def share(key, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``key``'s time owed to each layer."""
        layer = own_layer(key)
        if layer is not None:
            return {layer: 1.0}
        if key in shares:
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        weights = {
            caller: edge[2] or edge[3] for caller, edge in callers.items()
            if caller not in visiting
        }
        total = sum(weights.values())
        if not total:
            result = {"other": 1.0}
        else:
            result: dict[str, float] = {}
            for caller, weight in weights.items():
                for name, part in share(caller, visiting | {key}).items():
                    result[name] = result.get(name, 0.0) + part * weight / total
        shares[key] = result
        return result

    seconds = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, self_time, _, _) in stats.items():
        for name, part in share(key, frozenset()).items():
            seconds[name] += self_time * part
    return seconds
