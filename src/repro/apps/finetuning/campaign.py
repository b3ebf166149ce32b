"""End-to-end surrogate fine-tuning campaigns (any workflow configuration).

:func:`run_finetuning_campaign` pre-trains the ensemble on the TTM-labeled
corpus (done before the timed run, like the paper), runs the active-learning
campaign to its new-structure budget, and evaluates force RMSD on the §III-B
ground-truth test set — before and after fine-tuning, which is exactly the
Fig. 7a content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.common import AppMethod, TopicPolicy, WorkflowHandle, build_workflow
from repro.apps.environment import register_software
from repro.apps.finetuning.config import FineTuneConfig
from repro.apps.finetuning.tasks import (
    DFT_KEY,
    infer_energies,
    run_dft,
    run_sampling,
    train_schnet,
)
from repro.apps.finetuning.thinker import FineTuneThinker
from repro.core.result import Result
from repro.ml.ensemble import bootstrap_indices
from repro.ml.schnet import RbfBasis, SchnetSurrogate
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, Testbed, build_paper_testbed
from repro.sim.datasets import DftSimulator, hydronet_like_dataset
from repro.sim.water import Structure, make_test_set

__all__ = ["FineTuneOutcome", "pretrain_ensemble", "evaluate_force_rmsd", "run_finetuning_campaign"]


@dataclass
class FineTuneOutcome:
    """Everything measured in one fine-tuning campaign run."""

    workflow: str
    seed: int
    n_new_structures: int
    rmsd_before: float
    rmsd_after: float
    energy_rmse_before: float
    energy_rmse_after: float
    results: dict[str, list[Result]] = field(default_factory=dict)
    cpu_idle_gaps: list[float] = field(default_factory=list)
    gpu_idle_gaps: list[float] = field(default_factory=list)
    n_failures: int = 0
    store_metrics: dict[str, dict] = field(default_factory=dict)
    #: Runtime capacity moves when ``config.elastic_steering`` is on
    #: (:class:`repro.elastic.SteeringEvent` records, in order).
    steering_events: list = field(default_factory=list)


def pretrain_ensemble(
    config: FineTuneConfig,
    structures: list[Structure],
    energies: np.ndarray,
    *,
    seed: int = 0,
) -> list[SchnetSurrogate]:
    """Train the initial ensemble on the TTM corpus (bootstrap subsets)."""
    basis = RbfBasis(n_centers=config.n_rbf_centers)
    subsets = bootstrap_indices(len(structures), config.n_ensemble, seed=seed)
    models = []
    for member, idx in enumerate(subsets):
        model = SchnetSurrogate(
            basis,
            hidden=config.hidden_layers,
            seed=seed * 100 + member,
            weight_padding=config.model_padding,
        )
        model.train(
            [structures[int(i)] for i in idx],
            energies[idx],
            epochs=config.pretrain_epochs,
            seed=seed * 100 + member,
        )
        models.append(model)
    return models


def evaluate_force_rmsd(
    models: list[SchnetSurrogate],
    test_set: list[tuple[Structure, float, np.ndarray]],
) -> tuple[float, float]:
    """(force RMSD, energy RMSE) of the ensemble-mean prediction."""
    force_sq, force_n = 0.0, 0
    energy_sq = 0.0
    for structure, energy, forces in test_set:
        predicted_f = np.mean([m.predict_forces(structure) for m in models], axis=0)
        predicted_e = float(np.mean([m.predict_energy(structure) for m in models]))
        diff = predicted_f - forces
        force_sq += float(np.sum(diff * diff))
        force_n += diff.size
        energy_sq += (predicted_e - energy) ** 2
    return (
        float(np.sqrt(force_sq / force_n)),
        float(np.sqrt(energy_sq / len(test_set))),
    )


def run_finetuning_campaign(
    workflow: str = "funcx+globus",
    config: FineTuneConfig | None = None,
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
) -> FineTuneOutcome:
    """Run one fine-tuning campaign; ``join_timeout`` is wall seconds.

    ``faas_cloud``/``tenant`` let the campaign run as one tenant of a
    shared (sharded) cloud instead of building its own — see
    :func:`repro.apps.common.build_workflow`.  ``run_id`` pins the
    workflow's resource names (pool/endpoint/store prefixes).
    ``checkpoint``/``resume`` journal and restore the Thinker's decision
    state (accepted DFT results, retrain cadence) so a killed campaign
    keeps its credit toward ``target_new_structures``."""
    config = config or FineTuneConfig()
    testbed = testbed or build_paper_testbed(seed=seed, constants=constants)
    n_cpu = n_cpu_workers if n_cpu_workers is not None else testbed.constants.n_cpu_workers

    pre_structures, pre_energies = hydronet_like_dataset(
        config.n_pretrain, n_waters=config.n_waters, seed=config.seed
    )
    models = pretrain_ensemble(config, pre_structures, pre_energies, seed=seed)
    test_set = make_test_set(
        n_trajectories=4, n_steps=16, n_waters=config.n_waters, seed=seed + 999
    )
    rmsd_before, e_rmse_before = evaluate_force_rmsd(models, test_set)

    register_software(DFT_KEY, DftSimulator(duration_mean=config.dft_duration, seed=seed), replace=True)

    methods = [
        AppMethod(run_dft, resource="cpu", topic="simulate"),
        AppMethod(run_sampling, resource="cpu", topic="sample"),
        AppMethod(train_schnet, resource="gpu", topic="train"),
        AppMethod(infer_energies, resource="gpu", topic="infer"),
    ]
    policies = {
        "simulate": TopicPolicy(locality="local", threshold=10_000),
        "sample": TopicPolicy(locality="local", threshold=10_000),
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
    thinker = FineTuneThinker(
        handle.queues,
        testbed.theta_login,
        config,
        models,
        n_cpu_slots=n_cpu,
        cross_store=handle.stores.get("cross"),
        rng_seed=seed,
        steering=steering,
        checkpoint=checkpoint,
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
        thinker.done.set()
        thinker.join(timeout=30)
        store_metrics = {
            name: store.metrics.summary() for name, store in handle.stores.items()
        }
        if checkpoint is not None:
            checkpoint.save_state(thinker.export_state())

    rmsd_after, e_rmse_after = evaluate_force_rmsd(thinker.models, test_set)
    return FineTuneOutcome(
        workflow=workflow,
        seed=seed,
        n_new_structures=len(thinker.new_structures),
        rmsd_before=rmsd_before,
        rmsd_after=rmsd_after,
        energy_rmse_before=e_rmse_before,
        energy_rmse_after=e_rmse_after,
        results=thinker.results,
        cpu_idle_gaps=list(handle.cpu_pool.idle_gaps),
        gpu_idle_gaps=list(handle.gpu_pool.idle_gaps),
        n_failures=len(thinker.task_failures),
        store_metrics=store_metrics,
        steering_events=list(steering.events) if steering is not None else [],
    )
