"""The SoC model: cores and RoCC-attached accelerators doing real work."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.crypto.sha3 import Sha3_256
from repro.protowire.descriptor import Message
from repro.sim import Environment, Resource
from repro.soc import params

__all__ = ["CpuCore", "ProtoAccelerator", "Sha3Accelerator", "AcceleratorSoC"]


@dataclass
class CpuCore:
    """One in-order core: serialized execution with busy accounting."""

    env: Environment
    name: str
    clock_hz: float = params.CPU_CLOCK_HZ
    _unit: Resource = field(init=False, repr=False)
    busy_seconds: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._unit = Resource(self.env, capacity=1)

    def execute(self, seconds: float) -> Generator:
        """Simulation process: occupy the core for ``seconds``."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        grant = self._unit.request()
        yield grant
        try:
            if seconds > 0:
                yield self.env.timeout(seconds)
            self.busy_seconds += seconds
        finally:
            self._unit.release(grant)

    # -- software implementations of the two benchmark kernels ----------------

    def serialize_software(self, message: Message) -> Generator:
        """Serialize on the CPU; returns (wire_bytes, cpu_seconds)."""
        wire = message.serialize()
        seconds = (
            params.SER_CPU_PER_MESSAGE + len(wire) * params.SER_CPU_PER_BYTE
        )
        yield from self.execute(seconds)
        return wire, seconds

    def sha3_software(self, payload: bytes) -> Generator:
        """Hash on the CPU; returns (digest, cpu_seconds)."""
        hasher = Sha3_256(payload)
        digest = hasher.digest()
        seconds = (
            params.SHA3_CPU_PER_MESSAGE
            + hasher.permutations * params.SHA3_CPU_PER_PERMUTATION
        )
        yield from self.execute(seconds)
        return digest, seconds


class _RoccAccelerator:
    """Shared RoCC accelerator plumbing: setup once per invocation batch.

    ``link_bandwidth`` models an *off-chip* placement: every invocation's
    payload takes a round trip over the link (Equation 8's ``2·B/BW``
    term).  ``None`` is the on-chip shared-memory case (no transfer).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        setup_seconds: float,
        link_bandwidth: float | None = None,
    ):
        if link_bandwidth is not None and link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        self.env = env
        self.name = name
        self.setup_seconds = setup_seconds
        self.link_bandwidth = link_bandwidth
        self._unit = Resource(env, capacity=1)
        self.invocations = 0
        self.busy_seconds = 0.0
        self.bytes_transferred = 0.0

    def _transfer_seconds(self, nbytes: float) -> float:
        if self.link_bandwidth is None or nbytes <= 0:
            return 0.0
        self.bytes_transferred += 2.0 * nbytes
        return 2.0 * nbytes / self.link_bandwidth

    def setup(self) -> Generator:
        """Simulation process: one-time configuration (t_setup)."""
        grant = self._unit.request()
        yield grant
        try:
            if self.setup_seconds > 0:
                yield self.env.timeout(self.setup_seconds)
        finally:
            self._unit.release(grant)

    def _occupy(self, seconds: float) -> Generator:
        grant = self._unit.request()
        yield grant
        try:
            if seconds > 0:
                yield self.env.timeout(seconds)
            self.busy_seconds += seconds
            self.invocations += 1
        finally:
            self._unit.release(grant)


class ProtoAccelerator(_RoccAccelerator):
    """ProtoAcc-style protobuf serialization accelerator."""

    def __init__(
        self,
        env: Environment,
        name: str = "protoacc",
        link_bandwidth: float | None = None,
    ):
        super().__init__(
            env, name, setup_seconds=params.PROTOACC_SETUP,
            link_bandwidth=link_bandwidth,
        )

    def serialize(self, message: Message) -> Generator:
        """Simulation process: returns the real wire bytes."""
        wire = message.serialize()
        seconds = params.PROTOACC_PER_MESSAGE + len(wire) * params.PROTOACC_PER_BYTE
        seconds += self._transfer_seconds(len(wire))
        yield from self._occupy(seconds)
        return wire


class Sha3Accelerator(_RoccAccelerator):
    """SHA3 accelerator (one Keccak permutation per 136-byte block)."""

    def __init__(
        self,
        env: Environment,
        name: str = "sha3acc",
        link_bandwidth: float | None = None,
    ):
        super().__init__(
            env, name, setup_seconds=params.SHA3ACC_SETUP,
            link_bandwidth=link_bandwidth,
        )

    def hash(self, payload: bytes) -> Generator:
        """Simulation process: returns the real SHA3-256 digest."""
        hasher = Sha3_256(payload)
        digest = hasher.digest()
        seconds = (
            params.SHA3ACC_PER_MESSAGE
            + hasher.permutations * params.SHA3ACC_PER_PERMUTATION
        )
        seconds += self._transfer_seconds(len(payload))
        yield from self._occupy(seconds)
        return digest


@dataclass
class AcceleratorSoC:
    """The validation SoC: three cores, ProtoAcc and SHA3 on RoCC ports.

    Mirrors the artifact's configuration: the protobuf accelerator and the
    SHA3 accelerator hang off separate Rocket cores, with a third plain core
    for benchmark management.  ``accelerator_link_bandwidth`` moves both
    accelerators off-chip behind a shared-bandwidth link (the Section 6.4
    "different accelerator placements" extension); ``None`` keeps them
    on-chip as in the paper's artifact (B_i = 0).
    """

    env: Environment
    accelerator_link_bandwidth: float | None = None
    cores: tuple[CpuCore, CpuCore, CpuCore] = field(init=False)
    protoacc: ProtoAccelerator = field(init=False)
    sha3acc: Sha3Accelerator = field(init=False)

    def __post_init__(self) -> None:
        self.cores = (
            CpuCore(self.env, "rocket0"),
            CpuCore(self.env, "rocket1"),
            CpuCore(self.env, "rocket2"),
        )
        self.protoacc = ProtoAccelerator(
            self.env, link_bandwidth=self.accelerator_link_bandwidth
        )
        self.sha3acc = Sha3Accelerator(
            self.env, link_bandwidth=self.accelerator_link_bandwidth
        )
