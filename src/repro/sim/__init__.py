"""A small discrete-event simulation kernel.

This is the substrate under every simulator in the reproduction: the
datacenter cluster (:mod:`repro.cluster`), the three platform simulators
(:mod:`repro.platforms`) and the RISC-V SoC model (:mod:`repro.soc`).

The design follows the classic process-interaction style (as popularized by
SimPy, re-implemented here from scratch): simulation processes are Python
generators that ``yield`` events; the :class:`~repro.sim.engine.Environment`
advances a virtual clock from event to event.

Public surface:

* :class:`~repro.sim.engine.Environment` -- the event loop and clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process` -- the event types processes wait on.
* :func:`~repro.sim.engine.all_of` / :func:`~repro.sim.engine.any_of` /
  :func:`~repro.sim.engine.quorum_of` -- composite wait conditions
  (``quorum_of`` exists for consensus protocols: wake when K of N acks land).
* :class:`~repro.sim.resources.Resource` -- counted resource with FIFO
  queueing (CPU cores, disk channels).
* :class:`~repro.sim.resources.Store` -- FIFO item queue (mailboxes,
  pipeline FIFOs between chained accelerators).
"""

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    all_of,
    any_of,
    quorum_of,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "all_of",
    "any_of",
    "quorum_of",
    "Resource",
    "Store",
]
