"""The three workloads of the benchmark of record.

Each workload turns ``--seed`` into its inputs (``generate``, part of
set-up), runs one timed operation at a time on them (``run``), and checks
every output outside the timed region (``check``).  A *pass* runs every
operation once; the runner repeats passes until the measuring time is used.

* ``paper-grid`` — the laptop-scale paper grid: ``default_grid`` families ×
  clusters × S1–S4 × deadlines 1/1.5/2/3 at 60 tasks (128 instances), each
  built from its workflow and run with all 17 variants as one batch job
  through a fresh ``repro.api.Client`` per pass (every job misses the cache).
* ``scale-ladder`` — the paper's size regime: atacseq and eager at about 1k
  and 3k workflow tasks on the large cluster, S2, deadline 1.5; each
  instance is built and scheduled with ASAP, pressWR and pressWR-LS.
* ``online-sim`` — the 1,000-arrival burst stream of 8-task workflows
  through ``repro.sim.simulate`` (8 slots, FIFO, persistence forecast,
  ``slack``), where per-arrival job building and single-variant
  ``Client.solve`` calls with cache hits dominate.

Workflows of the batch workloads are generated in set-up; the timed
operation runs from workflow to validated schedules, instance build
included.  The simulator builds its own workflows per arrival, so for it
generation is timed.
"""

from __future__ import annotations

import copy
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.api import Client, Job
from repro.core.variants import variant_names
from repro.experiments.instances import build_instance, default_grid
from repro.experiments.metrics import median_cost_ratio
from repro.io.wire import canonical_json
from repro.platform_.presets import scaled_large_cluster, scaled_small_cluster
from repro.schedule.cost import carbon_cost_per_time_unit
from repro.sim import engine
from repro.utils.rng import derive_rng
from repro.workflow.generators import generate_workflow

__all__ = ["WORKLOADS"]

_CLUSTERS = {
    "small": lambda: scaled_small_cluster(2),
    "large": lambda: scaled_large_cluster(4),
}


@dataclass
class Cell:
    """One generated input of a batch workload: a workflow and its build recipe."""

    label: str
    family: str
    tasks: int
    cluster: str
    scenario: str
    deadline_factor: float
    workflow: object
    rng: object  # the cell's generator, in its state right after generation


def _cell(family: str, tasks: int, cluster: str, scenario: str, factor: float, seed: int) -> Cell:
    """Generate one grid cell's workflow with the seeding of ``make_instance``."""
    rng = derive_rng(seed, family, tasks, cluster, scenario, int(factor * 10), seed)
    workflow = generate_workflow(family, tasks, rng=rng)
    label = f"{family}-{tasks}-{cluster}-{scenario}-d{factor:g}"
    return Cell(label, family, tasks, cluster, scenario, factor, workflow, rng)


class _Batch:
    """A batch workload: build each cell's instance and submit one job per instance."""

    name = ""
    variants: Sequence[str] = ()

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.records: List[object] = []
        self.hits = 0
        self.misses = 0

    def generate(self) -> List[Cell]:
        raise NotImplementedError

    def warmup(self, cells: List[Cell]) -> None:
        self.run(Client(), cells[0])

    def begin_pass(self) -> Client:
        return Client()

    def end_pass(self, client: Client) -> None:
        """Collect the cache counters of the pass's client."""
        stats = client.stats()
        self.hits += int(stats["hits"])
        self.misses += int(stats["misses"])

    def run(self, client: Client, cell: Cell):
        instance = build_instance(
            cell.workflow,
            _CLUSTERS[cell.cluster](),
            scenario=cell.scenario,
            deadline_factor=cell.deadline_factor,
            rng=copy.deepcopy(cell.rng),
            name=cell.label,
            metadata={"family": cell.family, "target_tasks": cell.tasks},
        )
        return client.submit(Job.from_instance(instance, variants=self.variants))

    def check(self, cell: Cell, result, gate, first_pass: bool) -> int:
        """Gate every schedule of one job; return the number of plans checked."""
        for outcome in result.results:
            gate.check_schedule(
                cell.label, outcome.variant, outcome.schedule, outcome.carbon_cost,
                carbon_cost_per_time_unit, full=first_pass,
            )
        if first_pass:
            self.records.extend(result.records)
        return len(result.results)

    def units(self, result) -> int:
        """Instances one operation covers."""
        return 1

    def cost_ratio(self) -> float:
        """Mean over the heuristics of their total carbon cost relative to ASAP's total."""
        asap = sum(r.carbon_cost for r in self.records if r.variant == "ASAP")
        heuristics = [r for r in self.records if r.variant != "ASAP"]
        count = len({r.variant for r in heuristics})
        return sum(r.carbon_cost for r in heuristics) / (count * asap)

    def details(self, cells: List[Cell], times: List[float]) -> Dict[str, object]:
        """The paper's Fig. 4 number: mean over heuristics of the median per-instance ratio."""
        return {"fig4_median_cost_ratio": statistics.fmean(median_cost_ratio(self.records).values())}


class PaperGrid(_Batch):
    name = "paper-grid"
    variants = tuple(variant_names())

    def generate(self) -> List[Cell]:
        return [
            _cell(spec.family, spec.num_tasks, spec.cluster, spec.scenario,
                  spec.deadline_factor, spec.seed)
            for spec in default_grid(sizes=(60,), seed=self.seed)
        ]


class ScaleLadder(_Batch):
    name = "scale-ladder"
    variants = ("ASAP", "pressWR", "pressWR-LS")
    families = ("atacseq", "eager")
    rungs = (1000, 3000)

    def generate(self) -> List[Cell]:
        return [
            _cell(family, tasks, "large", "S2", 1.5, self.seed)
            for tasks in self.rungs
            for family in self.families
        ]

    def warmup(self, cells: List[Cell]) -> None:
        self.run(Client(), _cell(self.families[0], 200, "large", "S2", 1.5, self.seed))

    def details(self, cells: List[Cell], times: List[float]) -> Dict[str, object]:
        """Adds the median speed-adjusted seconds per instance of each rung."""
        rungs = {
            f"ladder_{tasks // 1000}k_s": statistics.median(
                elapsed for cell, elapsed in zip(cells, times) if cell.tasks == tasks
            )
            for tasks in self.rungs
        }
        return {**super().details(cells, times), **rungs}


class OnlineSim:
    """The 1,000-arrival burst stream through the online simulator."""

    name = "online-sim"
    arrivals = 1000

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.gap = 0.0
        self.hits = 0
        self.misses = 0

    def config(self, arrivals: int):
        return engine.SimulationConfig(
            horizon=arrivals * 20,
            arrivals="burst",
            burst_period=20,
            burst_size=1,
            slots=8,
            policy="fifo",
            forecast="persistence",
            tasks=(8,),
            variant="slack",
            cache_size=64,
            seed=self.seed,
        )

    def generate(self) -> List[object]:
        return [self.config(self.arrivals)]

    def warmup(self, configs: List[object]) -> None:
        engine.simulate(self.config(20))

    def begin_pass(self) -> None:
        return None

    def end_pass(self, ctx: None) -> None:
        pass

    def run(self, ctx: None, config):
        # Looked up at call time, so the traced run sees its wrapper.
        return engine.simulate(config)

    def check(self, config, report, gate, first_pass: bool) -> int:
        gate.check_report(report, self.arrivals, canonical_json(report.to_dict()))
        if first_pass:
            self.gap = float(report.metrics["carbon_gap"])
        self.hits += int(report.service["hits"])
        self.misses += int(report.service["misses"])
        return len(report.jobs)

    def units(self, report) -> int:
        """Arrivals one simulation covers."""
        return max(1, len(report.jobs))

    def cost_ratio(self) -> float:
        """Online carbon over the clairvoyant oracle's (the report's carbon gap)."""
        return self.gap

    def details(self, configs: List[object], times: List[float]) -> Dict[str, object]:
        return {"cache_hits": self.hits, "cache_misses": self.misses}


WORKLOADS: Dict[str, type] = {
    PaperGrid.name: PaperGrid,
    ScaleLadder.name: ScaleLadder,
    OnlineSim.name: OnlineSim,
}
