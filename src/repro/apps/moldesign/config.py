"""Configuration for the molecular design campaign (§III-A).

Defaults follow the paper's task characterization — ~60 s simulations
producing ~1 MB, 340 s training tasks shipping ~10 MB models, 900 s
per-model inference over the full library moving ~2.4 GB — with campaign
*sizes* (library, simulation budget, ensemble) scaled down so a full run
fits in a benchmark.  Every scaling knob is explicit here and recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MolDesignConfig"]


@dataclass(frozen=True)
class MolDesignConfig:
    # -- candidate library (paper: 1 115 321 MOSES molecules) ---------------
    n_molecules: int = 3000
    n_features: int = 32
    seed: int = 0
    #: success threshold as an upper quantile of the true IP distribution
    #: (the paper's fixed "IP > 14" cut sits in the upper tail of its set).
    threshold_quantile: float = 0.05

    # -- active-learning loop ------------------------------------------------
    n_initial: int = 48  # random seed simulations before the first retrain
    max_simulations: int = 200  # total simulation budget (paper: 6 node-hours)
    retrain_after: int = 24  # new results per retrain (per batch)
    n_ensemble: int = 4  # paper: 8 MPNNs; scaled with the campaign
    inference_chunks: int = 4  # per-model library scoring is split this way
    kappa: float = 1.0  # UCB exploration weight
    #: extra queued simulations beyond CPU workers.  0 reproduces the
    #: paper's measured idle times (~0.1-0.5 s between tasks); §V-E1 notes
    #: utilization "can be improved even further" with a backlog of >= 1,
    #: which the ablation benchmark exercises.
    backlog: int = 0

    # -- task durations (nominal seconds) -----------------------------------------
    #: The paper's means are 60 s (sim), 340 s (train), 900 s (inference per
    #: model).  The AI durations here are scaled ~2x down so the default
    #: campaign completes multiple ML update cycles within its (scaled)
    #: simulation budget; the data sizes are NOT scaled, which preserves the
    #: communication/computation contrast the paper studies.
    sim_duration: float = 60.0
    train_duration: float = 180.0
    inference_duration_per_model: float = 400.0

    # -- data sizes (nominal bytes; paper's transfer characterization: each
    # inference task moves ~2.4 GB of model weights + inputs + outputs) ------
    sim_artifact_bytes: int = 1_000_000  # ~1 MB per simulation
    model_padding: int = 10_000_000  # ~10 MB of model weights
    inference_input_padding: int = 2_000_000_000  # molecule inputs per task
    inference_output_padding: int = 300_000_000  # scores + metadata per task

    # -- surrogate training (real compute inside the simulated duration) -----------
    train_epochs: int = 40
    hidden_layers: tuple[int, ...] = (48, 48)

    #: Attach :class:`~repro.proxystore.prefetch.PrefetchHint`s for the
    #: proxied model weights to inference submissions, so the executing
    #: site's proxy cache warms ahead of the workers.  Off reproduces the
    #: seed behavior (first resolve pays the wire) for ablations.
    prefetch_hints: bool = True

    #: Task-ratio steering (the bragg.py move): build the pilots as elastic
    #: pools and let the Thinker re-divide workers between the CPU
    #: (simulate) and GPU (train/infer) lanes at runtime — GPU-heavy while
    #: an ML batch is in flight, CPU-heavy once the queue is re-ranked.
    #: Off reproduces the static-pool seed behavior.
    elastic_steering: bool = False

    #: (cpu, gpu) worker weights applied at the learning threshold
    #: (retrain triggered) and after the batch completes, respectively.
    steer_train_weights: tuple[float, float] = (1.0, 2.0)
    steer_sim_weights: tuple[float, float] = (3.0, 1.0)

    @property
    def inference_chunk_duration(self) -> float:
        return self.inference_duration_per_model / self.inference_chunks

    def __post_init__(self) -> None:
        if self.n_initial >= self.max_simulations:
            raise ValueError("n_initial must leave budget for steered simulations")
        if not 0 < self.threshold_quantile < 1:
            raise ValueError("threshold_quantile must be in (0, 1)")
        if self.retrain_after <= 0 or self.n_ensemble <= 0 or self.inference_chunks <= 0:
            raise ValueError("retrain_after, n_ensemble, inference_chunks must be positive")
