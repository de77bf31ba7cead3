"""The assembled dual-core system-on-chip.

:class:`DualCoreSoC` wires together two stepped cores, the four-mailbox
bank, shared SRAM, per-core interrupt controllers, a timed-event
scheduler and a tracer.  Its :meth:`DualCoreSoC.step` advances simulated
time by one tick: each core gets ``steps_per_tick`` scheduling steps,
then due timed events fire.  Because every step is an explicit call,
any interleaving of master and slave activity is a deterministic,
replayable schedule — the property pTest's merger exploits.

Per-tick contract: one :meth:`DualCoreSoC.step` call is exactly one
simulated tick, and every tick is stepped — there is no multi-tick
skip, and each core that is not halted gets its ``step`` call on every
tick.  Instrumentation relies on this: wrappers around ``step`` count
ticks and classify each one.  Speed comes from making an uneventful
tick cheap in every layer, never from skipping it.

Defaults model the OMAP5912 OSK of the paper's evaluation: both cores at
192 MHz (1:1 step ratio), four mailboxes, 250 KB shared SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.sim.events import EventScheduler, SimClock
from repro.sim.interrupts import InterruptController
from repro.sim.mailbox import MailboxBank, OverflowPolicy
from repro.sim.memory import OMAP5912_SRAM_BYTES, SharedMemory
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer


class Core(Protocol):
    """What the SoC needs from a core model."""

    name: str

    def step(self, now: int) -> bool:
        """Perform one scheduling step at time ``now``.

        Returns ``True`` if the core did useful work (ran a task or
        handled a message), ``False`` if it idled.
        """
        ...  # pragma: no cover - protocol

    def is_halted(self) -> bool:
        """Whether the core has stopped (e.g. kernel panic)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SoCConfig:
    """Static platform parameters (OMAP5912 OSK defaults)."""

    master_name: str = "arm926"
    slave_name: str = "c55x"
    master_clock_mhz: int = 192
    slave_clock_mhz: int = 192
    sram_bytes: int = OMAP5912_SRAM_BYTES
    mailbox_capacity: int = 4
    mailbox_policy: OverflowPolicy = OverflowPolicy.REJECT
    #: Scheduling steps each core takes per simulated tick.  With equal
    #: clocks this is (1, 1); a 2:1 ratio models a faster master, etc.
    master_steps_per_tick: int = 1
    slave_steps_per_tick: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.master_steps_per_tick < 1 or self.slave_steps_per_tick < 1:
            raise SimulationError("steps_per_tick values must be >= 1")


@dataclass
class DualCoreSoC:
    """The simulated platform: two cores plus shared fabric."""

    config: SoCConfig = field(default_factory=SoCConfig)
    clock: SimClock = field(default_factory=SimClock)
    tracer: Tracer = field(default_factory=Tracer)
    master: Core | None = None
    slave: Core | None = None
    scheduler: EventScheduler = field(init=False)
    mailboxes: MailboxBank = field(init=False)
    sram: SharedMemory = field(init=False)
    master_irq: InterruptController = field(default_factory=InterruptController)
    slave_irq: InterruptController = field(default_factory=InterruptController)
    rng: RngStreams = field(init=False)
    ticks_run: int = 0

    def __post_init__(self) -> None:
        self.scheduler = EventScheduler(self.clock)
        self.mailboxes = MailboxBank.omap5912(
            capacity=self.config.mailbox_capacity,
            policy=self.config.mailbox_policy,
        )
        self.sram = SharedMemory(size=self.config.sram_bytes)
        self.rng = RngStreams(master_seed=self.config.seed)

    def attach(self, master: Core, slave: Core) -> None:
        """Install the two core models (must happen before stepping)."""
        self.master = master
        self.slave = slave

    @property
    def now(self) -> int:
        return self.clock.now

    def step(self) -> bool:
        """Advance one tick; returns ``True`` if either core did work."""
        master, slave = self.master, self.slave
        if master is None or slave is None:
            raise SimulationError("cores not attached; call attach() first")
        config = self.config
        now = self.clock.now
        worked = False
        for _ in range(config.master_steps_per_tick):
            if not master.is_halted():
                worked |= master.step(now)
        for _ in range(config.slave_steps_per_tick):
            if not slave.is_halted():
                worked |= slave.step(now)
        self.clock.advance(1)
        self.scheduler.fire_due()
        self.ticks_run += 1
        return worked

    def run(
        self,
        max_ticks: int,
        until: Callable[["DualCoreSoC"], bool] | None = None,
        idle_limit: int | None = None,
    ) -> int:
        """Step the SoC until a predicate holds or budgets run out.

        Parameters
        ----------
        max_ticks:
            Hard tick budget for this call.
        until:
            Optional stop predicate evaluated after every tick.
        idle_limit:
            Stop after this many *consecutive* ticks in which neither
            core did work and no events are pending (system quiescent).

        Returns the number of ticks executed.
        """
        if max_ticks < 0:
            raise SimulationError(f"negative tick budget {max_ticks}")
        idle_run = 0
        for executed in range(1, max_ticks + 1):
            worked = self.step()
            if until is not None and until(self):
                return executed
            if worked or self.scheduler.pending():
                idle_run = 0
            else:
                idle_run += 1
                if idle_limit is not None and idle_run >= idle_limit:
                    return executed
        return max_ticks

    def both_halted(self) -> bool:
        if self.master is None or self.slave is None:
            return False
        return self.master.is_halted() and self.slave.is_halted()
