"""Seeded request generators for the three daemon workloads.

Every workload is a list of :class:`Request` built entirely from the seed
before the timed phase; the daemon only ever sees the requests.  A closed
loop issues them in index order and stops at the time limit, so whatever
prefix a run reaches must look like the whole list: presets, strategies and
budget tightness are interleaved in fixed rounds, and the seed only picks
batch sizes, budget jitter and the order inside a round.  That keeps the
metric distributions of two seeds close while their cells differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.dfgraph import DFGraph
from repro.core.schedule import checkpoint_all_schedule
from repro.core.simulator import schedule_peak_memory
from repro.experiments.presets import build_training_graph
from repro.solvers.warm import min_feasible_budget_floor

__all__ = ["Request", "Workload", "WORKLOADS", "build_workload"]

EXACT = "checkmate_ilp"
HEURISTICS = ("ap_sqrt_n", "chen_sqrt_n", "checkpoint_all")


@dataclass(frozen=True)
class Request:
    """One solve request and the client-side graph that decodes its result."""

    index: int
    strategy: str
    budget: Optional[float]
    graph: DFGraph
    batch_size: int
    #: Preset name when the daemon builds the graph itself; ``None`` when the
    #: graph travels by wire value.
    preset: Optional[str]
    #: A cell pre-warmed during set-up, so the daemon answers from its plan cache.
    hot: bool = False

    def cell(self) -> Tuple[str, int, str, Optional[float]]:
        """The plan-cache identity of the request, as the generator sees it."""
        return (self.graph.name, self.batch_size, self.strategy, self.budget)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    why: str
    requests: List[Request]
    #: Requests solved during set-up (never part of the timed list).
    warmup: List[Request]


def _exact_budget(graph: DFGraph, tightness: float) -> float:
    """A budget ``tightness`` of the way from the feasibility floor up to
    the checkpoint-all peak: 0 is the tightest feasible budget, 1 stores all."""
    floor = min_feasible_budget_floor(graph)
    peak = schedule_peak_memory(graph, checkpoint_all_schedule(graph))
    return float(int(floor + tightness * (peak - floor)))


def _slack_budget(graph: DFGraph, rng: random.Random) -> float:
    """A budget above every heuristic's peak: constants plus all
    activations, plus 5-50% headroom (a seeded, practically unique value)."""
    base = graph.constant_overhead + graph.total_activation_memory()
    return float(int(base * rng.uniform(1.05, 1.5)))


# --------------------------------------------------------------------------- #
# exact-cold: every request is a fresh exact ILP solve by preset name
# --------------------------------------------------------------------------- #
#: Budget tightness per preset, cycled round by round; ``None`` skips the
#: preset for that round.  Chosen so one HiGHS solve takes roughly 50-250 ms
#: on one core: tight enough that every third linear_cnn cell must recompute
#: (t=0.1), loose enough that a run holds 200+ samples (segnet below 0.5 and
#: resnet_tiny/vgg16 below 0.25 take seconds).  vgg16, the largest
#: formulation, comes every other round.
EXACT_TIGHTNESS: Dict[str, Tuple[Optional[float], ...]] = {
    "linear_cnn": (0.1, 0.3, 0.3),
    "resnet_tiny": (0.4,),
    "vgg16": (0.4, None),
    "segnet": (0.5,),
}
EXACT_BATCHES = range(1, 401)
EXACT_WARMUP_BATCH = 500


def exact_cold(seed: int, count: int) -> Tuple[List[Request], List[Request]]:
    rng = random.Random(f"exact-cold/{seed}")
    presets = list(EXACT_TIGHTNESS)
    # Every round has at least len(presets) - 1 requests.
    rounds = math.ceil(count / (len(presets) - 1))
    # (preset, batch) pairs are unique: no plan-cache hit, no formulation
    # reuse and no warm-start neighbour anywhere in the run.
    batches = {p: rng.sample(EXACT_BATCHES, rounds) for p in presets}
    phase = {p: rng.randrange(len(EXACT_TIGHTNESS[p])) for p in presets}
    requests: List[Request] = []
    for round_ in range(rounds):
        order = presets[:]
        rng.shuffle(order)
        for preset in order:
            cycle = EXACT_TIGHTNESS[preset]
            tightness = cycle[(round_ + phase[preset]) % len(cycle)]
            if tightness is None:
                continue
            tightness += rng.uniform(-0.02, 0.02)
            batch = batches[preset][round_]
            graph = build_training_graph(preset, batch_size=batch)
            requests.append(Request(len(requests), EXACT,
                                    _exact_budget(graph, tightness), graph,
                                    batch, preset))
    warmup = []
    for preset in presets:
        graph = build_training_graph(preset, batch_size=EXACT_WARMUP_BATCH)
        warmup.append(Request(len(warmup), EXACT, _exact_budget(graph, 0.6),
                              graph, EXACT_WARMUP_BATCH, preset))
    return requests[:count], warmup


# --------------------------------------------------------------------------- #
# hot-serving: mostly plan-cache hits on pre-warmed cells
# --------------------------------------------------------------------------- #
HOT_PRESETS = ("linear_cnn", "resnet_tiny", "vgg16")
#: The pre-warmed cells: (preset, strategy, tightness or None for no budget).
HOT_CELLS = (
    ("linear_cnn", EXACT, 0.25),
    ("resnet_tiny", EXACT, 0.4),
    ("vgg16", EXACT, 0.4),
    ("linear_cnn", "ap_sqrt_n", None),
    ("resnet_tiny", "ap_sqrt_n", None),
    ("resnet_tiny", "chen_sqrt_n", None),
    ("vgg16", "checkpoint_all", None),
    ("vgg16", "chen_sqrt_n", None),
)
#: One request in every HOT_BLOCK is a unique-budget heuristic solve.
HOT_BLOCK = 5
HOT_BATCHES = range(1, 33)


def hot_serving(seed: int, count: int) -> Tuple[List[Request], List[Request]]:
    rng = random.Random(f"hot-serving/{seed}")
    graphs: Dict[str, Tuple[int, DFGraph]] = {}
    for preset in HOT_PRESETS:
        batch = rng.choice(HOT_BATCHES)
        graphs[preset] = (batch, build_training_graph(preset, batch_size=batch))
    warmup = []
    for preset, strategy, tightness in HOT_CELLS:
        batch, graph = graphs[preset]
        budget = None if tightness is None else _exact_budget(graph, tightness)
        warmup.append(Request(len(warmup), strategy, budget, graph, batch,
                              preset, hot=True))
    offset = rng.randrange(len(warmup))
    seen_budgets = set()
    requests: List[Request] = []
    hot_i = unique_i = 0
    while len(requests) < count:
        unique_slot = rng.randrange(HOT_BLOCK)
        for slot in range(HOT_BLOCK):
            if slot == unique_slot:
                preset = HOT_PRESETS[unique_i % len(HOT_PRESETS)]
                strategy = HEURISTICS[(unique_i // len(HOT_PRESETS)) % len(HEURISTICS)]
                batch, graph = graphs[preset]
                budget = _slack_budget(graph, rng)
                while (preset, strategy, budget) in seen_budgets:
                    budget += 1.0
                seen_budgets.add((preset, strategy, budget))
                requests.append(Request(len(requests), strategy, budget, graph,
                                        batch, preset))
                unique_i += 1
            else:
                cell = warmup[(offset + hot_i) % len(warmup)]
                requests.append(Request(len(requests), cell.strategy,
                                        cell.budget, cell.graph,
                                        cell.batch_size, cell.preset, hot=True))
                hot_i += 1
    return requests[:count], warmup


# --------------------------------------------------------------------------- #
# fresh-wire: a distinct graph by wire value in every request
# --------------------------------------------------------------------------- #
WIRE_MODELS = ("resnet50", "mobilenet", "unet", "vgg19")
WIRE_BATCHES = range(1, 4001)
WIRE_WARMUP_BATCHES = (4001, 4002)


def fresh_wire(seed: int, count: int) -> Tuple[List[Request], List[Request]]:
    rng = random.Random(f"fresh-wire/{seed}")
    per_model = math.ceil(count / len(WIRE_MODELS))
    batches = {m: rng.sample(WIRE_BATCHES, per_model) for m in WIRE_MODELS}

    def request(index: int, model: str, batch: int, strategy: str) -> Request:
        graph = build_training_graph(model, batch_size=batch)
        return Request(index, strategy, _slack_budget(graph, rng), graph,
                       batch, None)

    requests: List[Request] = []
    for round_ in range(per_model):
        order = list(WIRE_MODELS)
        rng.shuffle(order)
        for model in order:
            strategy = HEURISTICS[len(requests) % len(HEURISTICS)]
            requests.append(request(len(requests), model,
                                    batches[model][round_], strategy))
    warmup = [request(i, model, batch, HEURISTICS[i % len(HEURISTICS)])
              for i, (model, batch) in enumerate(
                  (m, b) for b in WIRE_WARMUP_BATCHES for m in WIRE_MODELS)]
    return requests[:count], warmup


#: name -> (backend, max_rate, generator, why).  ``max_rate`` is a request
#: rate the daemon does not reach on a 2-CPU host; it sizes the generated list
#: so the timed phase never runs out of requests.
_GENERATORS = {
    "exact-cold": ("thread", 16.0, exact_cold,
                   "every request is a fresh exact ILP solve, so HiGHS is "
                   "nearly all of the server's time"),
    "hot-serving": ("thread", 900.0, hot_serving,
                    "80% plan-cache hits on pre-warmed cells, so fixed "
                    "serving overhead is nearly the whole request"),
    "fresh-wire": ("process", 90.0, fresh_wire,
                   "a distinct graph by wire value per request on the process "
                   "backend: cache misses, wire decoders and worker IPC"),
}
WORKLOADS = tuple(_GENERATORS)


def build_workload(name: str, seed: int, seconds: float) -> Workload:
    """Generate the named workload's requests for a run of ``seconds``."""
    backend, max_rate, generate, why = _GENERATORS[name]
    count = max(64, math.ceil(max_rate * seconds))
    requests, warmup = generate(seed, count)
    return Workload(name, backend, why, requests, warmup)
