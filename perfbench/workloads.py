"""The benchmark's workloads: seeded inputs, timed repetitions, checks, spans.

Every workload is a closed loop: one repetition at a time from this
process.  A repetition builds its inputs outside the measured region,
then times one call into the program:

* ``balancing-10k`` — ``SimulationEngine.run`` of the 10k-validator Gasper
  balancing attack for 2 epochs (throughput: slots per second);
* ``gossip-10k`` — the same for 10k healthy validators under calibrated
  gossip hop delays, 4 epochs (slots per second);
* ``bouncing-mc`` — the Figure-10 Monte-Carlo at ``jobs=2`` (trials per
  second);
* ``sweep-resume`` — a cold per-trial-cached sweep into a fresh cache
  directory at ``jobs=2`` (trials per second);
* ``sweep-replay`` — the same sweep replayed from a populated cache
  (replayed trials per second).

A traced round runs one repetition untraced and the same repetition again
with the layer functions wrapped in spans (``jobs=1``, so every span stays
in this process); the difference of the two wall times is the tracing
overhead.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import math
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents import base as agents_base
from repro.analysis.bouncing import BouncingAttackModel
from repro.analysis.montecarlo import BouncingMonteCarlo
from repro.cache import ResultCache
from repro.core.trials import group_chunks, plan_chunks, plan_task_chunks
from repro.network.latency import GossipPropagation
from repro.network.transport import TransportStats
from repro.sim.scenarios import build_preset
from repro.sim.sweeps import SWEEP_CHUNK_SIZE, ScenarioSpec, run_sweep_resumable

from spans import Tracer

# ----------------------------------------------------------------------
# Per-layer spans
# ----------------------------------------------------------------------
def _count_kernel_work(tracer: Tracer, args: tuple, kwargs: dict, outcome: Any) -> None:
    """Elements stepped and bytes the epoch kernel reads and writes."""
    engine = args[0]
    active = np.asarray(args[1] if len(args) > 1 else kwargs["active"])
    read = engine.stakes.nbytes + engine.scores.nbytes + engine.ejected.nbytes + active.nbytes
    written = (
        outcome.stakes.nbytes
        + outcome.scores.nbytes
        + outcome.ejected.nbytes
        + outcome.newly_ejected.nbytes
    )
    tracer.counters["kernel.elements"] += active.size
    tracer.counters["kernel.bytes"] += read + written


def _count_stored_bytes(tracer: Tracer, args: tuple, kwargs: dict, key: str) -> None:
    tracer.counters["cache.bytes_written"] += args[0].path_for_key(key).stat().st_size


def _count_fetch_hit(tracer: Tracer, args: tuple, kwargs: dict, payload: Any) -> None:
    tracer.counters["cache.hits"] += payload is not None


#: ``(span name, module, class or None for a module function, attribute, exit hook)``.
SPAN_TARGETS = (
    ("sim.engine.run", "repro.sim.engine", "SimulationEngine", "run", None),
    ("sim.node.receive", "repro.sim.node", "Node", "receive", None),
    ("sim.node.branch_weight", "repro.sim.node", "Node", "branch_weight", None),
    ("sim.node.head", "repro.sim.node", "Node", "head", None),
    ("sim.node.process_epoch_end", "repro.sim.node", "Node", "process_epoch_end", None),
    ("spec.store.get_head_weighted", "repro.spec.forkchoice", "Store", "get_head_weighted", None),
    ("spec.slashing.observe_batch", "repro.spec.slashing", "SlashingDetector", "observe_batch", None),
    ("network.adversary.send_to_validators", "repro.network.adversary", "Adversary", "send_to_validators", None),
    ("network.transport.broadcast", "repro.network.transport", "Network", "broadcast", None),
    ("network.transport.deliveries_until", "repro.network.transport", "Network", "deliveries_until", None),
    ("network.latency.delivery_times", "repro.network.latency", "LatencyModel", "delivery_times", None),
    ("network.latency.hops_from", "repro.network.latency", "GossipPropagation", "hops_from", None),
    ("core.batched_engine.step", "repro.core.stake_engine", "BatchedStakeEngine", "step", _count_kernel_work),
    ("analysis.montecarlo", "repro.analysis.montecarlo", "BouncingMonteCarlo", "run", None),
    ("sim.sweeps.spec_build", "repro.sim.sweeps", "ScenarioSpec", "build", None),
    ("sim.sweeps.summarize_trial", "repro.sim.sweeps", None, "summarize_trial", None),
    ("cache.store", "repro.cache", "ResultCache", "store", _count_stored_bytes),
    ("cache.fetch", "repro.cache", "ResultCache", "fetch", _count_fetch_hit),
)

#: Agent methods, timed on every agent class that defines them.
AGENT_SPANS = {
    "propose": "agents.propose",
    "attest": "agents.attest",
    "attest_committee": "agents.attest_committee",
}

#: The root span around each measured region.
ROOT_SPAN = "workload"

#: Spans whose self time is "the rest of the layer" not covered by a
#: child span; their metric is ``<name>.other.s``.
OTHER_SPANS = (ROOT_SPAN, "sim.engine.run", "analysis.montecarlo")

SPAN_NAMES = (
    (ROOT_SPAN,) + tuple(target[0] for target in SPAN_TARGETS) + tuple(AGENT_SPANS.values())
)


def _agent_classes() -> List[type]:
    importlib.import_module("repro.agents.honest")
    importlib.import_module("repro.agents.byzantine")
    importlib.import_module("repro.agents.profiles")
    classes, pending = [], [agents_base.ValidatorAgent]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


def install_spans(tracer: Tracer) -> None:
    """Wrap every traced layer function (undo with ``tracer.restore()``)."""
    for name, module, owner, attr, hook in SPAN_TARGETS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        tracer.patch(target, attr, name, hook)
    for cls in _agent_classes():
        for attr, name in AGENT_SPANS.items():
            method = vars(cls).get(attr)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                tracer.patch(cls, attr, name)


def _span_keys(name: str) -> Tuple[str, Optional[str]]:
    """The self-time and call-count metric names of span ``name``."""
    self_time = name + (".other.s" if name in OTHER_SPANS else ".s")
    return self_time, (None if name == ROOT_SPAN else name + ".calls")


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self time and calls per span, plus the ratios and work derived from them."""
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        self_time, calls = _span_keys(name)
        metrics[self_time] = tracer.self_s.get(name, 0.0)
        if calls is not None:
            metrics[calls] = tracer.calls.get(name, 0)
    calls, counters = tracer.calls, tracer.counters
    # Store.get_head_weighted is called only on a Node.head cache miss.
    heads = calls.get("sim.node.head", 0)
    metrics["sim.node.head_cache_hit_ratio"] = (
        1.0 - calls.get("spec.store.get_head_weighted", 0) / heads if heads else 0.0
    )
    step_s = tracer.self_s.get("core.batched_engine.step", 0.0)
    steps = calls.get("core.batched_engine.step", 0)
    metrics["core.kernel.element_epochs_per_s"] = (
        counters["kernel.elements"] / step_s if step_s else 0.0
    )
    metrics["core.kernel.bytes_per_step"] = counters["kernel.bytes"] / steps if steps else 0.0
    metrics["cache.bytes_written"] = counters["cache.bytes_written"]
    fetches = calls.get("cache.fetch", 0)
    metrics["cache.hit_ratio"] = counters["cache.hits"] / fetches if fetches else 0.0
    metrics["trace.wall_s"] = tracer.wall_s
    return metrics


#: Counts read from a slot simulation's result (0 on other workloads).
SLOT_SIM_COUNTS = (
    "network.sent",
    "network.delivered",
    "network.latency_delayed",
    "sim.split_events",
    "sim.peak_views",
    "sim.finalized_epoch",
)

#: Dispatch plan and parallel efficiency (0 where nothing is dispatched).
TRIALS_METRICS = {
    "core.trials.units": "count",
    "core.trials.largest_unit_share": "ratio",
    "core.trials.parallel_efficiency": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        self_time, calls = _span_keys(name)
        units[self_time] = "s"
        if calls is not None:
            units[calls] = "count"
    units.update(
        {
            "sim.node.head_cache_hit_ratio": "ratio",
            "core.kernel.element_epochs_per_s": "1/s",
            "core.kernel.bytes_per_step": "B",
            "cache.bytes_written": "B",
            "cache.hit_ratio": "ratio",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    units.update({name: "count" for name in SLOT_SIM_COUNTS})
    units.update(TRIALS_METRICS)
    return units


# ----------------------------------------------------------------------
# Checks and repetitions
# ----------------------------------------------------------------------
class Checks:
    """Correctness checks, counted as operations for the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    """One measured repetition."""

    #: Work completed: simulated slots, or trials.
    units: float
    #: Wall time of the measured region.
    seconds: float
    #: What the checks inspect.
    output: Any


def timed(tracer: Optional[Tracer], call: Callable[[], Any]) -> tuple:
    """``(result, seconds)`` of ``call``, inside a root span when tracing."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        result = call()
    else:
        with tracer.root(ROOT_SPAN):
            result = call()
    return result, time.perf_counter() - start


def derived_seed(*words: int) -> int:
    """A well-mixed 32-bit seed from integer words."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


class Workload:
    """Base class: a workload's inputs come from ``seed`` only."""

    name = ""
    #: Worker processes of a measured repetition.
    jobs = 1

    def __init__(self, seed: int, toy: bool, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.toy = toy
        self.workdir = workdir

    def prepare(self) -> None:
        """Inputs shared by every repetition (not timed)."""

    def probe(self) -> None:
        """What a run must construct before its measured region.

        Timed in a fresh interpreter, imports included, as the set-up time.
        """

    def rep(self, k: int, tracer: Optional[Tracer] = None, jobs: Optional[int] = None) -> Rep:
        raise NotImplementedError

    def fingerprint(self, output: Any) -> Any:
        """What must not change between equivalent runs."""
        raise NotImplementedError

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        raise NotImplementedError

    def layer_extras(
        self, checks: Checks, k: int, plain: Rep, traced: Rep
    ) -> Dict[str, float]:
        """Per-layer metrics read from results or extra untraced runs."""
        return {}

    # ------------------------------------------------------------------
    def trace_round(self, checks: Checks, k: int) -> Tuple[Dict[str, float], List[Rep]]:
        """Repetition ``k`` untraced, then traced: per-layer metrics and both reps."""
        plain = self.rep(k, jobs=1)
        tracer = Tracer()
        install_spans(tracer)
        try:
            traced = self.rep(k, tracer=tracer, jobs=1)
        finally:
            tracer.restore()
        checks.expect(
            self.fingerprint(plain.output) == self.fingerprint(traced.output),
            "the traced run's result differs from the untraced run's",
        )
        checks.expect(
            math.isclose(tracer.total_self_s(), tracer.wall_s, rel_tol=1e-9, abs_tol=1e-9),
            "span self times do not sum to the traced wall time",
        )
        metrics = span_metrics(tracer)
        metrics["trace.overhead_s"] = tracer.wall_s - plain.seconds
        metrics.update({name: 0 for name in SLOT_SIM_COUNTS + tuple(TRIALS_METRICS)})
        metrics.update(self.layer_extras(checks, k, plain, traced))
        return metrics, [plain, traced]


# ----------------------------------------------------------------------
# Slot simulations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotSimOutcome:
    """What the checks need from one simulation result.

    Kept instead of the result, which holds every view's state: holding
    those across repetitions would make peak memory grow with their count.
    """

    split_events: int
    peak_views: int
    finalized_epoch: int
    stats: TransportStats
    #: Digest of the epoch snapshots and view events.
    digest: str

    @classmethod
    def of(cls, result: Any) -> "SlotSimOutcome":
        history = repr((result.snapshots, result.view_events)).encode()
        return cls(
            split_events=len(result.split_events()),
            peak_views=result.peak_view_count,
            finalized_epoch=result.max_finalized_epoch(),
            stats=result.transport_stats,
            digest=hashlib.blake2b(history, digest_size=16).hexdigest(),
        )


class SlotSimWorkload(Workload):
    preset = ""
    epochs = 0

    def build(self, k: int):
        raise NotImplementedError

    def probe(self) -> None:
        self.build(0)

    def rep(self, k: int, tracer: Optional[Tracer] = None, jobs: Optional[int] = None) -> Rep:
        engine = self.build(k)
        result, seconds = timed(tracer, lambda: engine.run(self.epochs))
        return Rep(self.epochs * engine.config.slots_per_epoch, seconds, SlotSimOutcome.of(result))

    def fingerprint(self, outcome: SlotSimOutcome) -> Any:
        return outcome

    def layer_extras(
        self, checks: Checks, k: int, plain: Rep, traced: Rep
    ) -> Dict[str, float]:
        outcome = traced.output
        return {
            "network.sent": outcome.stats.sent,
            "network.delivered": outcome.stats.delivered,
            "network.latency_delayed": outcome.stats.latency_delayed,
            "sim.split_events": outcome.split_events,
            "sim.peak_views": outcome.peak_views,
            "sim.finalized_epoch": outcome.finalized_epoch,
        }


class BalancingWorkload(SlotSimWorkload):
    """The Gasper balancing attack: targeted sends split the honest view."""

    name = "balancing-10k"
    preset = "mainnet-balancing-10k"
    epochs = 2

    def build(self, k: int):
        overrides = {"n_validators": 256} if self.toy else {}
        return build_preset(self.preset, seed=f"perfbench-{self.seed}-{k}", **overrides)

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        for rep in reps:
            outcome = rep.output
            checks.expect(outcome.split_events == 1, "balancing: expected one view split")
            checks.expect(outcome.peak_views == 3, "balancing: expected peak views 3")
            checks.expect(outcome.finalized_epoch == 0, "balancing: something finalized")


class GossipWorkload(SlotSimWorkload):
    """A healthy network under gossip hop delays that cross a phase boundary."""

    name = "gossip-10k"
    preset = "mainnet-gossip-10k"
    epochs = 4

    def __init__(self, seed: int, toy: bool, workdir: pathlib.Path) -> None:
        super().__init__(seed, toy, workdir)
        # Per-hop delay range in seconds; perfbench/README.md records the
        # calibration (0.29-0.87 already fragments the view into ~26 groups).
        self.hop_delay = (0.45, 1.4) if toy else (0.282, 0.846)
        self.overrides = {"n_validators": 256} if toy else {}

    def build(self, k: int):
        return build_preset(
            self.preset,
            seed=f"perfbench-{self.seed}-{k}",
            latency_model=GossipPropagation(
                hop_delay=self.hop_delay, seed=derived_seed(self.seed, k)
            ),
            **self.overrides,
        )

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        for rep in reps:
            checks.expect(rep.output.finalized_epoch >= 2, "gossip: finalized epoch below 2")
        # About 4 delayed deliveries per input on average, but a single
        # input can delay none, so this holds for the run as a whole.
        checks.expect(
            sum(rep.output.stats.latency_delayed for rep in reps) >= 1,
            "gossip: no latency-delayed message in the run",
        )


# ----------------------------------------------------------------------
# Monte-Carlo
# ----------------------------------------------------------------------
class BouncingWorkload(Workload):
    """Figure 10: the probabilistic bouncing attack, trial-batched."""

    name = "bouncing-mc"
    jobs = 2
    beta0 = 1.0 / 3.0
    p0 = 0.5
    #: Binomial tolerance of the curve check, in standard errors.
    z = 4.0

    def __init__(self, seed: int, toy: bool, workdir: pathlib.Path) -> None:
        super().__init__(seed, toy, workdir)
        self.n_trials, self.n_honest, self.horizon, every = (
            (64, 32, 200, 100) if toy else (512, 256, 4000, 500)
        )
        self.record_epochs = list(range(every, self.horizon + 1, every))
        model = BouncingAttackModel(beta0=self.beta0, p0=self.p0)
        self.closed_form = {
            epoch: model.exceed_threshold_probability(float(epoch), both_branches=True)
            for epoch in self.record_epochs
        }

    def simulator(self) -> BouncingMonteCarlo:
        return BouncingMonteCarlo(
            beta0=self.beta0,
            p0=self.p0,
            n_honest=self.n_honest,
            enforce_stopping=False,
            seed=self.seed,
        )

    def probe(self) -> None:
        self.simulator()

    def run_mc(self, horizon: int, record_epochs: List[int], jobs: int, tracer=None) -> Rep:
        simulator = self.simulator()
        result, seconds = timed(
            tracer,
            lambda: simulator.run(
                n_trials=self.n_trials,
                horizon=horizon,
                record_epochs=record_epochs,
                jobs=jobs,
            ),
        )
        return Rep(self.n_trials, seconds, result)

    def rep(self, k: int, tracer: Optional[Tracer] = None, jobs: Optional[int] = None) -> Rep:
        return self.run_mc(self.horizon, self.record_epochs, jobs or self.jobs, tracer)

    def fingerprint(self, result: Any) -> Any:
        return [
            (trial.stop_epoch, trial.byzantine_proportion_branch_a, trial.byzantine_proportion_branch_b)
            for trial in result.trials
        ]

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        n = self.n_trials
        first = self.fingerprint(reps[0].output)
        for rep in reps:
            curve = rep.output.exceed_probability_curve()
            within = True
            for epoch, expected in self.closed_form.items():
                p = min(max(expected, 1.0 / n), 1.0 - 1.0 / n)
                within &= abs(curve[epoch] - expected) <= self.z * math.sqrt(p * (1 - p) / n)
            checks.expect(within, "bouncing-mc: curve outside the binomial tolerance")
        for rep in reps[1:]:
            checks.expect(self.fingerprint(rep.output) == first, "bouncing-mc: repeat differs")
        # jobs=1 == jobs=2 on the same trial plan, over a shorter horizon.
        short = max(1, self.horizon // 16)
        serial = self.run_mc(short, [short], jobs=1)
        parallel = self.run_mc(short, [short], jobs=2)
        checks.expect(
            self.fingerprint(serial.output) == self.fingerprint(parallel.output),
            "bouncing-mc: jobs=1 and jobs=2 differ",
        )

    def layer_extras(
        self, checks: Checks, k: int, plain: Rep, traced: Rep
    ) -> Dict[str, float]:
        parallel = self.rep(k, jobs=2)
        checks.expect(
            self.fingerprint(parallel.output) == self.fingerprint(plain.output),
            "bouncing-mc: jobs=1 and jobs=2 differ at full size",
        )
        simulator = self.simulator()
        groups = group_chunks(
            plan_chunks(self.n_trials, seed=self.seed), simulator.default_batch(self.n_trials)
        )
        sizes = [sum(chunk.size for chunk in group) for group in groups]
        return {
            "core.trials.units": len(groups),
            "core.trials.largest_unit_share": max(sizes) / self.n_trials,
            "core.trials.parallel_efficiency": plain.seconds / (2 * parallel.seconds),
        }


# ----------------------------------------------------------------------
# Sweeps through the result cache
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """Cold per-trial-cached sweep into a fresh cache directory."""

    name = "sweep-resume"
    jobs = 2
    sway_delays = (0.0, 2.0)

    def __init__(self, seed: int, toy: bool, workdir: pathlib.Path) -> None:
        super().__init__(seed, toy, workdir)
        self.n_trials, self.n_validators = (4, 32) if toy else (64, 128)
        self.specs = [
            ScenarioSpec(
                builder="balancing",
                kwargs={"n_validators": self.n_validators, "sway_delay": delay},
                epochs=2,
                seed=f"perfbench-{seed}",
                label=f"sway-{delay:g}",
            )
            for delay in self.sway_delays
        ]
        self.total = self.n_trials * len(self.specs)
        self._dirs = itertools.count()

    def fresh_cache(self) -> ResultCache:
        return ResultCache(self.workdir / f"cache-{next(self._dirs)}")

    def probe(self) -> None:
        ResultCache(self.workdir / "probe")

    def sweep(self, cache: ResultCache, jobs: int, tracer: Optional[Tracer] = None) -> Rep:
        result, seconds = timed(
            tracer, lambda: run_sweep_resumable(self.specs, self.n_trials, cache, jobs=jobs)
        )
        # A digest of the rows' bytes, so repetitions do not pile up rows.
        rows = hashlib.blake2b(json.dumps(result.trial_rows).encode(), digest_size=16).hexdigest()
        return Rep(self.total, seconds, (rows, cache))

    def rep(self, k: int, tracer: Optional[Tracer] = None, jobs: Optional[int] = None) -> Rep:
        return self.sweep(self.fresh_cache(), jobs or self.jobs, tracer)

    def fingerprint(self, output: Any) -> Any:
        return output[0]

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        rows = reps[0].output[0]
        for rep in reps:
            cache = rep.output[1]
            checks.expect(rep.output[0] == rows, "sweep: rows differ between cold passes")
            checks.expect(cache.stats.stores == self.total, "sweep: cold stores != trials")
        warm_cache = ResultCache(reps[-1].output[1].cache_dir)
        warm = self.sweep(warm_cache, self.jobs)
        checks.expect(warm.output[0] == rows, "sweep: warm rows differ from cold rows")
        checks.expect(warm_cache.stats.stores == 0, "sweep: the warm pass stored entries")

    def layer_extras(
        self, checks: Checks, k: int, plain: Rep, traced: Rep
    ) -> Dict[str, float]:
        parallel = self.rep(k, jobs=2)
        checks.expect(parallel.output[0] == plain.output[0], "sweep: jobs=1 and jobs=2 differ")
        units = plan_task_chunks(range(self.total), chunk_size=SWEEP_CHUNK_SIZE)
        return {
            "core.trials.units": len(units),
            "core.trials.largest_unit_share": max(unit.size for unit in units) / self.total,
            "core.trials.parallel_efficiency": plain.seconds / (2 * parallel.seconds),
        }


class SweepReplayWorkload(SweepWorkload):
    """The same sweep replayed warm from a cache populated before timing."""

    name = "sweep-replay"

    def prepare(self) -> None:
        self.populated = self.fresh_cache()
        cold = self.sweep(self.populated, self.jobs)
        self.cold_rows = cold.output[0]
        self.cold_stores = self.populated.stats.stores

    def rep(self, k: int, tracer: Optional[Tracer] = None, jobs: Optional[int] = None) -> Rep:
        return self.sweep(ResultCache(self.populated.cache_dir), jobs or self.jobs, tracer)

    def check(self, checks: Checks, reps: Sequence[Rep]) -> None:
        checks.expect(self.cold_stores == self.total, "sweep: cold stores != trials")
        for rep in reps:
            cache = rep.output[1]
            checks.expect(rep.output[0] == self.cold_rows, "sweep: warm rows differ from cold rows")
            checks.expect(cache.stats.stores == 0, "sweep: the warm pass stored entries")
            checks.expect(cache.stats.hits == self.total, "sweep: the warm pass missed entries")

    def layer_extras(
        self, checks: Checks, k: int, plain: Rep, traced: Rep
    ) -> Dict[str, float]:
        return {}


WORKLOADS = {
    cls.name: cls
    for cls in (
        BalancingWorkload,
        GossipWorkload,
        BouncingWorkload,
        SweepWorkload,
        SweepReplayWorkload,
    )
}
