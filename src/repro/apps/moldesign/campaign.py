"""End-to-end molecular design campaigns on any workflow configuration.

One call — :func:`run_moldesign_campaign` — builds the testbed, installs the
"software" (oracle + library), wires the chosen §V-B workflow stack, runs
the Thinker to its simulation budget, and returns a
:class:`MolDesignOutcome` with everything the Fig. 5/6 harnesses need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.common import AppMethod, TopicPolicy, WorkflowHandle, build_workflow
from repro.apps.environment import register_software
from repro.apps.moldesign.config import MolDesignConfig
from repro.apps.moldesign.tasks import (
    LIBRARY_KEY,
    SIMULATOR_KEY,
    run_inference,
    simulate_molecule,
    train_model,
)
from repro.apps.moldesign.thinker import MolDesignThinker
from repro.core.result import Result
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, Testbed, build_paper_testbed
from repro.sim.chemistry import MoleculeLibrary, TightBindingSimulator

__all__ = ["MolDesignOutcome", "run_moldesign_campaign"]


@dataclass
class MolDesignOutcome:
    """Everything measured in one campaign run."""

    workflow: str
    seed: int
    threshold: float
    n_found: int
    n_simulated: int
    found_timeline: list[tuple[float, int]]
    ml_makespans: list[float]
    results: dict[str, list[Result]] = field(default_factory=dict)
    cpu_idle_gaps: list[float] = field(default_factory=list)
    gpu_idle_gaps: list[float] = field(default_factory=list)
    n_failures: int = 0
    #: Per-store operation summaries (cache hit rates back the paper's
    #: sub-100 ms proxy-resolution observation).
    store_metrics: dict[str, dict] = field(default_factory=dict)
    #: Runtime capacity moves when ``config.elastic_steering`` is on
    #: (:class:`repro.elastic.SteeringEvent` records, in order).
    steering_events: list = field(default_factory=list)
    #: The final decision ledger (molecule index -> simulated IP) — what
    #: the durability harness digests to prove crash/resume determinism.
    database: dict[int, float] = field(default_factory=dict)

    @property
    def cpu_utilization(self) -> float:
        """Busy fraction of CPU workers between first and last task."""
        sims = [r.time_running for r in self.results.get("simulate", []) if r.time_running]
        busy = sum(sims)
        idle = sum(self.cpu_idle_gaps)
        return busy / (busy + idle) if busy + idle > 0 else 0.0


def run_moldesign_campaign(
    workflow: str = "funcx+globus",
    config: MolDesignConfig | None = None,
    *,
    seed: int = 0,
    testbed: Testbed | None = None,
    constants: PaperConstants | None = None,
    n_cpu_workers: int | None = None,
    n_gpu_workers: int | None = None,
    join_timeout: float | None = 600.0,
    faas_cloud: object | None = None,
    tenant: str = "default",
    run_id: str | None = None,
    checkpoint: object | None = None,
    resume: bool = False,
    crash_after_results: int | None = None,
) -> MolDesignOutcome:
    """Run one campaign; ``join_timeout`` is wall seconds (safety net).

    ``faas_cloud``/``tenant`` let the campaign run as one tenant of a
    shared (sharded) cloud instead of building its own — see
    :func:`repro.apps.common.build_workflow`.  ``run_id`` pins the
    workflow's resource names (pool/endpoint/store prefixes); fixing it
    makes elastic chaos keys deterministic across runs.

    ``checkpoint`` (a :class:`repro.durable.CampaignCheckpoint`) journals
    the Thinker's decision state; ``resume=True`` restores from it before
    starting, continuing a killed campaign without recomputing completed
    simulations; ``crash_after_results`` kills the campaign after that many
    results (the durability harness's crash lever)."""
    config = config or MolDesignConfig()
    testbed = testbed or build_paper_testbed(seed=seed, constants=constants)
    n_cpu = n_cpu_workers if n_cpu_workers is not None else testbed.constants.n_cpu_workers

    library = MoleculeLibrary(
        config.n_molecules, n_features=config.n_features, seed=config.seed
    )
    simulator = TightBindingSimulator(
        library,
        duration_mean=config.sim_duration,
        artifact_bytes=config.sim_artifact_bytes,
        seed=seed,
    )
    register_software(LIBRARY_KEY, library, replace=True)
    register_software(SIMULATOR_KEY, simulator, replace=True)

    methods = [
        AppMethod(simulate_molecule, resource="cpu", topic="simulate"),
        AppMethod(train_model, resource="gpu", topic="train"),
        AppMethod(run_inference, resource="gpu", topic="infer"),
    ]
    policies = {
        "simulate": TopicPolicy(locality="local", threshold=10_000),
        "train": TopicPolicy(locality="cross", threshold=10_000),
        "infer": TopicPolicy(locality="cross", threshold=10_000),
    }
    handle: WorkflowHandle = build_workflow(
        workflow,
        testbed,
        methods,
        policies,
        n_cpu_workers=n_cpu,
        n_gpu_workers=n_gpu_workers,
        run_id=run_id,
        faas_cloud=faas_cloud,
        tenant=tenant,
        elastic=config.elastic_steering,
    )
    steering = None
    if config.elastic_steering:
        from repro.elastic import SteeringPolicy

        n_gpu = (
            n_gpu_workers
            if n_gpu_workers is not None
            else testbed.constants.n_gpu_workers
        )
        steering = SteeringPolicy(
            {"cpu": handle.cpu_pool, "gpu": handle.gpu_pool},
            total_workers=n_cpu + n_gpu,
        )
    thinker = MolDesignThinker(
        handle.queues,
        testbed.theta_login,
        config,
        library,
        n_cpu_slots=n_cpu,
        cross_store=handle.stores.get("cross"),
        rng_seed=seed,
        steering=steering,
        checkpoint=checkpoint,
        crash_after_results=crash_after_results,
    )
    if resume:
        if checkpoint is None:
            raise ValueError("resume=True requires a checkpoint")
        snapshot, events = checkpoint.load_state()
        thinker.restore_state(snapshot, events)
    with handle:
        with at_site(testbed.theta_login):
            thinker.start()
        thinker.done.wait(timeout=join_timeout)
        thinker.done.set()  # release any still-parked agents
        thinker.join(timeout=30)
        store_metrics = {
            name: store.metrics.summary() for name, store in handle.stores.items()
        }
        if checkpoint is not None and crash_after_results is None:
            # A clean finish compacts the decision log into one snapshot;
            # a crashed run leaves the log as-is (a dead process cannot
            # compact), which is exactly what resume replays.
            checkpoint.save_state(thinker.export_state())

    return MolDesignOutcome(
        workflow=workflow,
        seed=seed,
        threshold=thinker.threshold,
        n_found=thinker.n_found,
        n_simulated=len(thinker.database),
        found_timeline=thinker.found_timeline,
        ml_makespans=thinker.ml_makespans,
        results=thinker.results,
        cpu_idle_gaps=list(handle.cpu_pool.idle_gaps),
        gpu_idle_gaps=list(handle.gpu_pool.idle_gaps),
        n_failures=len(thinker.task_failures),
        store_metrics=store_metrics,
        steering_events=list(steering.events) if steering is not None else [],
        database=dict(thinker.database),
    )
