"""The molecular-design steering policy (§III-A, §V-D).

Agents:

* ``submit_simulation`` — one per free CPU slot (plus a small backlog):
  sends the next-best unsimulated molecule.  Because the decision needs no
  result *data*, re-dispatch is millisecond-fast (§V-D2's 5 ms median).
* ``process_simulation`` — records the new IP, advances the success
  timeline, and triggers a retrain every ``retrain_after`` results.
* ``start_retraining`` — fans out one training task per ensemble member.
* ``process_training`` — as *each* model finishes (the paper submits
  inference "after the first model completes training"), manually proxies
  it once into the cross-site store and fans out that model's inference
  chunks; all chunks share the proxy, so only the first resolution per
  resource pays the transfer — the ahead-of-time caching effect behind the
  paper's sub-100 ms proxy resolutions.
* ``process_inference`` — accumulates chunk scores; when the batch is
  complete, reorders the task queue by UCB and records the *ML makespan*
  (retrain request → queue reordered), Fig. 6's responsiveness metric.
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from typing import TYPE_CHECKING

from repro.apps.moldesign.config import MolDesignConfig
from repro.bench.recording import emit
from repro.core.queues import ColmenaQueues
from repro.core.result import Result
from repro.core.thinker import (
    BaseThinker,
    ResourceCounter,
    agent,
    event_responder,
    result_processor,
    task_submitter,
)
from repro.ml.mpnn import MpnnSurrogate
from repro.net.clock import get_clock
from repro.net.topology import Site
from repro.proxystore.prefetch import hints_for_proxies
from repro.proxystore.store import Store
from repro.serialize import Blob
from repro.sim.chemistry import MoleculeLibrary

if TYPE_CHECKING:  # pragma: no cover
    from repro.durable import CampaignCheckpoint
    from repro.elastic import SteeringPolicy

__all__ = ["MolDesignThinker"]


class MolDesignThinker(BaseThinker):
    """Active-learning controller for the molecular design campaign."""

    def __init__(
        self,
        queues: ColmenaQueues,
        site: Site,
        config: MolDesignConfig,
        library: MoleculeLibrary,
        *,
        n_cpu_slots: int,
        cross_store: Store | None = None,
        rng_seed: int = 0,
        steering: "SteeringPolicy | None" = None,
        checkpoint: "CampaignCheckpoint | None" = None,
        crash_after_results: int | None = None,
    ) -> None:
        super().__init__(
            queues,
            site,
            ResourceCounter(n_cpu_slots + config.backlog, ["simulation"]),
        )
        assert self.resources is not None
        self.resources.allocate("simulation", n_cpu_slots + config.backlog)
        self.config = config
        self.library = library
        self.cross_store = cross_store
        #: Optional write-ahead journal for decision state: every consumed
        #: result is appended *before* the in-memory state advances, so a
        #: killed campaign resumes without recomputing completed tasks.
        self.checkpoint = checkpoint
        #: Test/chaos lever: simulate a campaign-process crash by setting
        #: ``done`` after this many simulation results.
        self.crash_after_results = crash_after_results
        #: Optional runtime capacity lever over the elastic pools ("cpu" /
        #: "gpu"); None (the default) keeps the static-pool behavior.
        self.steering = steering
        self.threshold = library.top_quantile_threshold(config.threshold_quantile)

        rng = np.random.default_rng(rng_seed)
        self._lock = threading.Lock()
        self._ranked: list[int] = list(rng.permutation(len(library)))
        self._cursor = 0
        self._in_flight: set[int] = set()
        self.database: dict[int, float] = {}
        self._sims_submitted = 0
        self._sims_completed = 0
        self._since_retrain = 0
        self._retraining = False
        self._batch_id = 0
        self._ml_start: float | None = None
        self._batch_scores: np.ndarray | None = None
        self._batch_chunks_received = 0
        self._cumulative_sim_time = 0.0

        #: (cumulative simulation CPU-seconds, molecules found) — Fig. 6a.
        self.found_timeline: list[tuple[float, int]] = [(0.0, 0)]
        #: Retrain-request -> queue-reordered durations — Fig. 6b.
        self.ml_makespans: list[float] = []
        #: Every Result, by topic — Figs. 5/7 draw from these ledgers.
        self.results: dict[str, list[Result]] = {
            "simulate": [],
            "train": [],
            "infer": [],
        }
        self.task_failures: list[Result] = []
        # Trained models waiting for their inference fan-out.  Submission
        # involves staging gigabytes into the data fabric, so it runs on its
        # own agent — the train-result processor must stay responsive.
        self._inference_work: "queue.Queue[tuple[object, dict]]" = queue.Queue()

    # -- helpers ------------------------------------------------------------
    @property
    def n_found(self) -> int:
        return sum(1 for ip in self.database.values() if ip > self.threshold)

    def _next_molecule(self) -> int | None:
        while self._cursor < len(self._ranked):
            candidate = int(self._ranked[self._cursor])
            self._cursor += 1
            if candidate not in self.database and candidate not in self._in_flight:
                return candidate
        return None

    # -- agents ----------------------------------------------------------------
    @task_submitter(task_type="simulation")
    def submit_simulation(self) -> None:
        with self._lock:
            if self._sims_submitted >= self.config.max_simulations:
                # Budget exhausted: park this slot permanently.
                return
            molecule = self._next_molecule()
            if molecule is None:
                return
            self._in_flight.add(molecule)
            self._sims_submitted += 1
        self.queues.send_request(
            "simulate_molecule", args=(molecule,), topic="simulate"
        )

    @result_processor(topic="simulate")
    def process_simulation(self, result: Result) -> None:
        assert self.resources is not None
        self.results["simulate"].append(result)
        if not result.success:
            self.task_failures.append(result)
            self.resources.release("simulation", 1)
            return
        record = result.access_value()
        molecule = record["molecule_index"]
        if self.checkpoint is not None:
            # Write-ahead: the decision event is durable (charged append)
            # before the in-memory state consumes it, so a crash after this
            # line never re-simulates this molecule.
            self.checkpoint.note(
                "sim_result",
                molecule=int(molecule),
                ip=float(record["ip"]),
                wall_time=float(record["wall_time"]),
            )
        with self._lock:
            self._in_flight.discard(molecule)
            self.database[molecule] = record["ip"]
            self._sims_completed += 1
            self._cumulative_sim_time += record["wall_time"]
            self.found_timeline.append((self._cumulative_sim_time, self.n_found))
            self._since_retrain += 1
            trigger_retrain = (
                self._since_retrain >= self.config.retrain_after
                and not self._retraining
                and len(self.database) >= self.config.n_initial
                and self._sims_completed < self.config.max_simulations
            )
            if trigger_retrain:
                self._retraining = True
                self._since_retrain = 0
                self._batch_id += 1
                self._ml_start = get_clock().now()
                self._batch_scores = np.full(
                    (self.config.n_ensemble, len(self.library)), np.nan
                )
                self._batch_chunks_received = 0
            batch = self._batch_id
            finished = self._sims_completed >= self.config.max_simulations
            crashed = (
                self.crash_after_results is not None
                and self._sims_completed >= self.crash_after_results
            )
        # The next simulation can start immediately; the data-independent
        # decision is just a slot release (the paper's 5 ms decision time).
        self.resources.release("simulation", 1)
        if trigger_retrain:
            if self.checkpoint is not None:
                self.checkpoint.note("retrain", batch=batch)
            self.set_event("retrain")
            # The learning threshold is hit: give the GPU lane the workers
            # (kill sim capacity to make room for training, per bragg.py).
            self._steer(
                self.config.steer_train_weights, reason=f"retrain batch {batch}"
            )
        if finished or crashed:
            self.done.set()

    @event_responder(event="retrain")
    def start_retraining(self) -> None:
        with self._lock:
            known = sorted(self.database)
            y = np.array([self.database[i] for i in known])
            batch = self._batch_id
        x = self.library.fingerprints(known)
        rng = np.random.default_rng(batch)
        subset_size = max(4, int(round(0.8 * len(known))))
        for member in range(self.config.n_ensemble):
            idx = rng.choice(len(known), size=min(subset_size, len(known)), replace=False)
            model = MpnnSurrogate(
                self.library.n_features,
                hidden=self.config.hidden_layers,
                seed=batch * 100 + member,
                weight_padding=self.config.model_padding,
            )
            self.queues.send_request(
                "train_model",
                args=(model, x[idx], y[idx]),
                kwargs={
                    "duration": self.config.train_duration,
                    "epochs": self.config.train_epochs,
                    "seed": batch * 100 + member,
                },
                topic="train",
                task_info={"batch": batch, "member": member},
            )

    @result_processor(topic="train")
    def process_training(self, result: Result) -> None:
        self.results["train"].append(result)
        if not result.success:
            self.task_failures.append(result)
            self._abort_batch_if_dead()
            return
        if result.task_info.get("batch") != self._batch_id:
            return  # a straggler from an abandoned batch
        model = result.access_value()
        self._inference_work.put((model, dict(result.task_info)))

    @agent(critical=False)
    def submit_inference(self) -> None:
        """Fan a freshly trained model out over the library chunks.

        Runs as its own agent because staging the molecule inputs into the
        data fabric takes seconds per chunk; the paper submits inference "as
        soon as the first model completes training", which this preserves
        while keeping the train-result processor unblocked.
        """
        while not self.done.is_set():
            try:
                model, task_info = get_clock().get(self._inference_work, 0.25)
            except queue.Empty:
                continue
            if task_info.get("batch") != self._batch_id:
                continue
            # Manual ahead-of-time proxying: one store entry per model,
            # shared by every chunk task, so the weights cross sites once.
            hints: tuple = ()
            if self.cross_store is not None:
                model = self.cross_store.proxy(model)
                # Every chunk task carries the weights' prefetch hint
                # (pinned: the whole wave shares them), so the executing
                # site starts pulling the model before workers resolve it.
                if self.config.prefetch_hints:
                    hints = hints_for_proxies([model], pin=True)
            chunks = np.array_split(
                np.arange(len(self.library)), self.config.inference_chunks
            )
            for chunk_id, chunk in enumerate(chunks):
                self.queues.send_request(
                    "run_inference",
                    args=(
                        model,
                        chunk,
                        Blob(self.config.inference_input_padding, tag="mol-inputs"),
                    ),
                    kwargs={
                        "duration": self.config.inference_chunk_duration,
                        "output_padding": self.config.inference_output_padding,
                    },
                    topic="infer",
                    task_info={
                        "batch": task_info["batch"],
                        "member": task_info["member"],
                        "chunk": chunk_id,
                    },
                    prefetch=hints,
                )

    @result_processor(topic="infer")
    def process_inference(self, result: Result) -> None:
        self.results["infer"].append(result)
        if not result.success:
            self.task_failures.append(result)
            self._abort_batch_if_dead()
            return
        if result.task_info.get("batch") != self._batch_id:
            return
        record = result.access_value()
        member = result.task_info["member"]
        with self._lock:
            if self._batch_scores is None:
                return
            self._batch_scores[member, record["chunk_indices"]] = record["scores"]
            self._batch_chunks_received += 1
            total = self.config.n_ensemble * self.config.inference_chunks
            if self._batch_chunks_received < total:
                return
            # Batch complete: re-rank everything by UCB.
            mean = np.nanmean(self._batch_scores, axis=0)
            std = np.nanstd(self._batch_scores, axis=0)
            ucb = mean + self.config.kappa * std
            self._ranked = [int(i) for i in np.argsort(-ucb)]
            self._cursor = 0
            self._retraining = False
            self._batch_scores = None
            if self._ml_start is not None:
                self.ml_makespans.append(get_clock().now() - self._ml_start)
                self._ml_start = None
            batch = self._batch_id
        # Queue re-ranked, GPU wave done: hand the workers back to sims.
        self._steer(self.config.steer_sim_weights, reason=f"batch {batch} complete")

    def _abort_batch_if_dead(self) -> None:
        """If an AI task failed, give up on the batch rather than hang."""
        with self._lock:
            self._retraining = False
            self._batch_scores = None
            self._ml_start = None
        self._steer(self.config.steer_sim_weights, reason="batch aborted")

    def _steer(self, weights: tuple[float, float], *, reason: str) -> None:
        """Re-divide worker capacity between the cpu/gpu pools.  Advisory:
        a steering failure must never take down a result processor."""
        if self.steering is None:
            return
        cpu_w, gpu_w = weights
        if self.checkpoint is not None:
            self.checkpoint.note("steer", cpu=cpu_w, gpu=gpu_w, reason=reason)
        try:
            self.steering.set_ratio({"cpu": cpu_w, "gpu": gpu_w}, reason=reason)
        except Exception as exc:  # noqa: BLE001 - capacity hints are best-effort
            emit("steering_error", thinker="moldesign", reason=reason, error=repr(exc))

    # -- checkpoint / resume ---------------------------------------------------
    def export_state(self) -> dict:
        """JSON-safe decision state for :class:`CampaignCheckpoint`."""
        with self._lock:
            return {
                "database": {
                    str(k): float(v) for k, v in sorted(self.database.items())
                },
                "cumulative_sim_time": self._cumulative_sim_time,
                "found_timeline": [[t, n] for t, n in self.found_timeline],
                "since_retrain": self._since_retrain,
                "batch_id": self._batch_id,
                "ml_makespans": list(self.ml_makespans),
            }

    def restore_state(self, snapshot: dict | None, events: list[dict]) -> None:
        """Rebuild decision state from a checkpoint snapshot plus the
        decision events journaled after it; call before ``start()``.

        Resumed work never recomputes: every journaled molecule re-enters
        ``database`` (double-journaled events dedupe on molecule id), the
        simulated/submitted counters restart at the database size, and the
        seeded ranking plus a reset cursor skips completed molecules the
        same way a live run skips them.
        """
        state = {
            "database": {},
            "cumulative_sim_time": 0.0,
            "found_timeline": [[0.0, 0]],
            "since_retrain": 0,
            "batch_id": 0,
            "ml_makespans": [],
        }
        if snapshot:
            state.update(snapshot)
        database = {int(k): float(v) for k, v in state["database"].items()}
        cumulative = float(state["cumulative_sim_time"])
        timeline = [(float(t), int(n)) for t, n in state["found_timeline"]]
        since_retrain = int(state["since_retrain"])
        batch_id = int(state["batch_id"])
        for event in events:
            if event["type"] == "sim_result":
                molecule = int(event["molecule"])
                if molecule in database:
                    continue  # double-journaled (crash inside the append)
                database[molecule] = float(event["ip"])
                cumulative += float(event["wall_time"])
                found = sum(1 for ip in database.values() if ip > self.threshold)
                timeline.append((cumulative, found))
                since_retrain += 1
            elif event["type"] == "retrain":
                since_retrain = 0
                batch_id = int(event["batch"])
            # "steer" events carry no decision state to restore.
        with self._lock:
            self.database = database
            self._sims_completed = len(database)
            self._sims_submitted = len(database)
            self._cumulative_sim_time = cumulative
            self.found_timeline = timeline
            self._since_retrain = since_retrain
            self._batch_id = batch_id
            self.ml_makespans = [float(m) for m in state["ml_makespans"]]
            self._cursor = 0
            self._in_flight.clear()
            finished = self._sims_completed >= self.config.max_simulations
        if finished:
            self.done.set()
