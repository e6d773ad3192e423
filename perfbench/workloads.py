"""The benchmark workloads and the passes that drive them.

Every workload is a ``ScenarioSpec.from_dict`` payload owned by this file.
Payloads set only fields that change what a slot computes (``dataset``,
``seed``, ``n_sensors``, ``n_slots``, ``mobility``, ``streams``,
``sharding``, ``incremental``); the other spec knobs stay at their
defaults so the benchmark runs unchanged when they are retired.  The
program is driven only through public entry points:
``MarketplaceService.from_spec`` / ``.submit`` / ``.tick_once`` and
``ScenarioSpec.build`` / ``SlotEngine.step``.

A run makes several passes over the identical slots, each on a fresh
instance, and keeps each slot's fastest time.  The number of slots in a
pass is fixed by ``--seconds``, the number of passes and the workload's
nominal slot time, never by the clock, so the work done (and every
counter and digest) is a function of workload, seed and seconds.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from repro.core.metrics import SimulationSummary
from repro.datasets.scenario import ScenarioSpec
from repro.experiments.replay import allocation_signature
from repro.service.loadgen import BurstyProfile, LoadGenerator
from repro.service.marketplace import MarketplaceService

_AGGREGATE = {
    "budget_factor": 2.5,
    "count_spread": 0,
    "sensing_range": 10.0,
    "min_side": 6.0,
    "max_side": 12.0,
    "coverage_radius": 2.0,
}


def _point(n_queries: int) -> dict:
    return {"kind": "point", "params": {"n_queries": n_queries, "budget": 15.0, "dmax": 2.0}}


def _aggregate(n_queries: int) -> dict:
    return {"kind": "aggregate", "params": dict(_AGGREGATE, mean_queries=n_queries)}


@dataclass(frozen=True)
class Size:
    """One size of a workload: the fleet, its streams and its pace."""

    n_sensors: int
    streams: tuple
    nominal_slot_s: float
    queue: int = 0
    cap: int = 0
    base_rate: float = 0.0
    burst_rate: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "service" or "engine"
    sizes: dict
    reps: int  # passes over the identical slots in one run
    setups: int  # set-ups per run (the passes' own plus set-up-only ones)
    churn: float | None = None

    def payload(self, size: str, seed: int, n_slots: int) -> dict:
        s = self.sizes[size]
        out = {
            "name": f"perfbench-{self.name}",
            "dataset": "rwm",
            "seed": seed,
            "n_sensors": s.n_sensors,
            "n_slots": n_slots,
            "sharding": "auto",
            "incremental": "auto",
            "streams": [dict(stream) for stream in s.streams],
        }
        if self.churn is not None:
            out["mobility"] = {"kind": "churn", "fraction": self.churn}
        return out

    def timed_slots(self, size: str, seconds: float) -> int:
        """Timed slots per pass, so that all passes take about ``seconds``."""
        return max(3, int(round(seconds / (self.reps * self.sizes[size].nominal_slot_s))))


WORKLOADS = {
    # Queueing: arrivals outrun the admission cap, every sensor moves each
    # tick, so kernel and raster rows are rebuilt every tick.  A metro-scale
    # fleet with small aggregate regions keeps a tick's arrays fleet-sized;
    # on a shared host its ticks were steadier than those of a 1k fleet.
    "service_burst": Workload(
        "service_burst", "service",
        {
            "full": Size(100_000, (_point(64), _aggregate(16)), 0.10,
                         queue=48, cap=12, base_rate=4, burst_rate=80),
            "tiny": Size(4000, (_point(16), _aggregate(4)), 0.05,
                         queue=24, cap=6, base_rate=2, burst_rate=40),
        },
        reps=4,
        setups=16,
    ),
    # No coverage work: the greedy net recompute and sharded point lookup
    # dominate, at the memory scale of a metro fleet.
    "metro_points": Workload(
        "metro_points", "engine",
        {
            "full": Size(100_000, (_point(300),), 0.55),
            "tiny": Size(4000, (_point(40),), 0.05),
        },
        churn=0.02,
        reps=6,
        setups=8,
    ),
}

BURST_PERIOD = 4
BURST_LENGTH = 1


@dataclass
class PassResult:
    """What one pass over a workload measured and produced.

    Per-slot lists are indexed by timed slot.  ``settles`` holds one
    ``(due slot, settle slot)`` pair per settled query, so query latencies
    can be rebuilt from any per-slot times.
    """

    setup_s: list = field(default_factory=list)
    slot_s: list = field(default_factory=list)  # warm slot / tick_once wall times
    step_s: list = field(default_factory=list)  # slot time plus the submits before it
    settles: list = field(default_factory=list)
    submitted: int = 0
    admitted: int = 0
    refused: int = 0
    queue_depths: list = field(default_factory=list)
    moved: int = 0
    rounds: int = 0
    assignments: int = 0
    failures: list = field(default_factory=list)
    slot_hashes: list = field(default_factory=list)
    minor_faults: int = 0
    counts: dict = field(default_factory=dict)
    ref_loop_s: tuple = (0.0, 0.0)  # host-drift probe just before / after the timed slots
    pass_slot_p50_s: list = field(default_factory=list)  # each pass's own median slot time

    @property
    def settled(self) -> int:
        return len(self.settles)

    @property
    def wall_s(self) -> float:
        """Timed wall time: every warm slot with the submits before it."""
        return sum(self.step_s)

    @property
    def latencies(self) -> list:
        """Per settled query: from its slot's submit instant to the end of
        the slot that settles it (the open loop is keyed to slots, so this
        is the sum of the step times in between)."""
        ends = [0.0]
        for dt in self.step_s:
            ends.append(ends[-1] + dt)
        return [ends[b + 1] - ends[a] for a, b in self.settles]

    @property
    def wait_slots(self) -> list:
        return [b - a for a, b in self.settles]

    @property
    def tail_slots(self) -> int:
        """Distinct slots that settle a query slower than the latency p90."""
        lat = self.latencies
        if not lat:
            return 0
        cut = quantile(lat, 0.9)
        return len({b for (_, b), x in zip(self.settles, lat) if x > cut})

    def work(self) -> tuple:
        """Everything a pass computed, as opposed to how long it took."""
        return (self.slot_hashes, self.settles, self.counts, self.moved, self.rounds,
                self.assignments, self.submitted, self.admitted, self.queue_depths)


def _canonical(signature) -> str:
    """Order-independent text of one ``allocation_signature``."""
    if signature is None:
        return "None"
    selected, assignments, values, payments = signature
    return repr((
        selected,
        sorted(assignments.items()),
        sorted(values.items()),
        sorted(payments.items()),
    ))


def slot_hashes(signatures) -> list[str]:
    """One short hash per slot's allocation signature."""
    return [hashlib.sha256(_canonical(sig).encode()).hexdigest()[:16] for sig in signatures]


def digest_of(hashes) -> str:
    return hashlib.sha256("".join(hashes).encode()).hexdigest()[:16]


def ref_loop() -> float:
    """A fixed numpy + pure-Python loop: the host-drift probe.

    Recorded for context only; it never normalises or gates a metric.
    """
    t0 = time.perf_counter()
    a = np.arange(400_000, dtype=float)
    for i in range(8):
        np.sort(a[::-1] * (1.0 + i))
    total = 0
    for i in range(400_000):
        total += i & 7
    return time.perf_counter() - t0


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Run:
    """One workload instance, driven slot by slot so two can run in lockstep."""

    def __init__(self, workload: Workload, size: str, seed: int, n_timed: int, recorder,
                 arrivals: dict, setup_only: bool = False) -> None:
        self.size = workload.sizes[size]
        self.seed = seed
        self.n_timed = n_timed
        self.arrivals = arrivals
        self.setup_only = setup_only
        self.payload = workload.payload(size, seed, n_timed + 1)
        self.rec = recorder
        self.out = PassResult()

    def setup(self) -> None:
        """Build the workload and run its cold slot (timed as set-up)."""
        self.rec.slot = 0
        self.rec.on = True
        self.out.setup_s.append(self._build_and_cold())
        self.rec.on = False
        self._after_slot(0)
        self.rec.counts.clear()
        self.rec.spans.clear()
        self._faults0 = _minor_faults()

    def step(self, slot: int) -> None:
        self.rec.slot = slot
        self.rec.on = True
        self._timed_slot(slot)
        self.rec.on = False
        self._after_slot(slot)

    def finish(self) -> PassResult:
        out = self.out
        out.minor_faults = _minor_faults() - self._faults0
        out.slot_hashes = slot_hashes(self._signatures())
        out.counts = dict(self.rec.counts)
        return out

    def _after_slot(self, slot: int) -> None:
        """Verify the last slot's allocation (outside timing) and tally its work."""
        result = self._engine().last_result
        out = self.out
        try:
            result.verify()
        except Exception as exc:  # a violated invariant is a failed operation
            out.failures.append(f"slot {slot}: verify failed: {exc}")
        if slot:
            delta = self._engine().last_delta
            out.moved += 0 if delta is None else len(delta.moved)
            out.rounds += len(result.selected)
            out.assignments += sum(len(v) for v in result.assignments.values())


class _EngineRun(_Run):
    """``SlotEngine.step`` over a compiled spec; every query is due at slot start."""

    def _build_and_cold(self) -> float:
        t0 = time.perf_counter()
        self.engine = ScenarioSpec.from_dict(self.payload).build()
        self.summary = SimulationSummary()
        self.engine.step(self.summary)
        dt = time.perf_counter() - t0
        self._sigs = [allocation_signature(self.engine.last_result)]
        return dt

    def _engine(self):
        return self.engine

    def _timed_slot(self, slot: int) -> None:
        out = self.out
        t0 = time.perf_counter()
        record = self.engine.step(self.summary)
        dt = time.perf_counter() - t0
        self.rec.on = False
        out.slot_s.append(dt)
        out.step_s.append(dt)
        out.submitted += record.issued
        out.admitted += record.issued
        out.settles.extend([(slot - 1, slot - 1)] * record.issued)
        self._sigs.append(allocation_signature(self.engine.last_result))

    def _signatures(self):
        return self._sigs


class _ServiceRun(_Run):
    """The marketplace service fed by a tick-keyed bursty open loop."""

    def _build_and_cold(self) -> float:
        s = self.size
        t0 = time.perf_counter()
        self.service = MarketplaceService.from_spec(
            ScenarioSpec.from_dict(self.payload),
            max_queue_depth=s.queue, max_admitted_per_tick=s.cap,
        )
        build_s = time.perf_counter() - t0
        self.rec.on = False
        self.schedule = self._arrivals(1 if self.setup_only else self.n_timed + 1)
        self.rec.on = True
        t0 = time.perf_counter()
        for query in self.schedule[0]:
            self.service.submit(query)
        self.service.tick_once()
        self._due: dict[int, int] = {}
        return build_s + time.perf_counter() - t0

    def _arrivals(self, n_ticks: int) -> list:
        """The client's arrival schedule, generated outside set-up time.

        Generating aggregate queries is slow, so one run generates each
        schedule once and hands every instance a deep copy: the instances
        then settle equal but separate query objects.  A schedule's ticks do
        not depend on its length.
        """
        if n_ticks not in self.arrivals:
            s = self.size
            profile = BurstyProfile(s.base_rate, s.burst_rate, period=BURST_PERIOD,
                                    burst_length=BURST_LENGTH)
            self.arrivals[n_ticks] = LoadGenerator(
                profile, self.service.workloads, seed=self.seed).schedule(n_ticks)
        return copy.deepcopy(self.arrivals[n_ticks])

    def _engine(self):
        return self.service.engine

    def _timed_slot(self, tick: int) -> None:
        out, service = self.out, self.service
        t_due = time.perf_counter()
        tickets = [service.submit(query) for query in self.schedule[tick]]
        t0 = time.perf_counter()
        service.tick_once()
        t_end = time.perf_counter()
        self.rec.on = False
        out.slot_s.append(t_end - t0)
        out.step_s.append(t_end - t_due)
        for ticket in tickets:
            if ticket.accepted:
                self._due[ticket.seq] = tick - 1
        out.submitted += len(tickets)
        out.admitted += sum(1 for ticket in tickets if ticket.accepted)
        for seq in service.trace.slots[-1].seqs:
            if seq in self._due:  # arrivals of the cold tick carry set-up time
                out.settles.append((self._due.pop(seq), tick - 1))
        out.queue_depths.append(service.queue_depth)

    def _signatures(self):
        return self.service.slot_signatures

    def finish(self) -> PassResult:
        out = super().finish()
        out.refused = out.submitted - out.admitted
        return out


def make_run(workload: Workload, size: str, seed: int, n_timed: int, recorder,
             arrivals: dict | None = None, setup_only: bool = False) -> _Run:
    """One instance; instances given the same ``arrivals`` dict share the
    generated arrival schedules of a service workload."""
    cls = _ServiceRun if workload.kind == "service" else _EngineRun
    return cls(workload, size, seed, n_timed, recorder,
               {} if arrivals is None else arrivals, setup_only)


def run_pass(workload: Workload, size: str, seed: int, n_timed: int, recorder,
             arrivals: dict | None = None) -> PassResult:
    """Set up one fresh instance and run ``n_timed`` timed warm slots."""
    run = make_run(workload, size, seed, n_timed, recorder, arrivals)
    run.setup()
    for slot in range(1, n_timed + 1):
        run.step(slot)
    return run.finish()


def run_repeated(workload: Workload, size: str, seed: int, n_timed: int,
                 recorder, reps: int) -> PassResult:
    """``reps`` passes over the identical slots, one fresh instance each.

    Each slot's time is its fastest of the passes, so a slot counts as slow
    only when the host was slow in every pass.  Set-up-only instances bring
    the set-ups to ``workload.setups`` in all, and every set-up time is
    kept.  Every pass must compute exactly what the first did: a
    pass that differs counts its differing slots as failed.
    """
    def setup_only() -> None:
        gc.collect()  # the previous instance is gone before the next is built
        run = make_run(workload, size, seed, n_timed, recorder, arrivals, setup_only=True)
        run.setup()
        setup_s.append(run.out.setup_s[0])
        setup_failures.extend(run.out.failures)

    # Set-up-only instances go before each pass and after the last, so the
    # set-ups sample the host across the whole run.
    extra = max(0, workload.setups - reps)
    arrivals: dict = {}
    setup_s, setup_failures, passes = [], [], []
    before = ref_loop()
    for i in range(reps + 1):
        for _ in range(extra * (i + 1) // (reps + 1) - extra * i // (reps + 1)):
            setup_only()
        if i < reps:
            gc.collect()
            passes.append(run_pass(workload, size, seed, n_timed, recorder, arrivals))
    after = ref_loop()
    first = passes[0]
    out = PassResult(**{
        name: getattr(first, name) for name in PassResult.__dataclass_fields__
    })
    out.setup_s = setup_s + [p.setup_s[0] for p in passes]
    out.slot_s = [min(ts) for ts in zip(*(p.slot_s for p in passes))]
    out.step_s = [min(ts) for ts in zip(*(p.step_s for p in passes))]
    out.minor_faults = sum(p.minor_faults for p in passes) // reps
    out.failures = setup_failures + [f for p in passes for f in p.failures]
    for i, p in enumerate(passes[1:], 2):
        if p.work() != first.work():
            bad = sum(a != b for a, b in zip(p.slot_hashes, first.slot_hashes)) or 1
            out.failures.extend([f"pass {i} computed differently from pass 1"] * bad)
    out.ref_loop_s = (before, after)
    out.pass_slot_p50_s = [median(p.slot_s) for p in passes]
    return out


def lockstep(workload: Workload, size: str, seed: int, n_timed: int,
             installed, plain_recorder) -> tuple[PassResult, PassResult]:
    """A traced and an untraced instance of the same slots, interleaved.

    ``installed`` is the probe context for the traced instance; its probes
    are on only while that instance runs.  Each slot runs on both instances
    back to back, alternating which goes first, so both see the same host
    phase and the pairwise slot differences measure the tracing overhead.
    """
    gc.collect()
    arrivals: dict = {}
    traced = make_run(workload, size, seed, n_timed, installed.recorder, arrivals)
    plain = make_run(workload, size, seed, n_timed, plain_recorder, arrivals)
    with installed:
        traced.setup()
    plain.setup()
    for slot in range(1, n_timed + 1):
        if slot % 2:
            plain.step(slot)
        with installed:
            traced.step(slot)
        if not slot % 2:
            plain.step(slot)
    return traced.finish(), plain.finish()


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else math.nan
