"""Tests for the molecular design application (config, tasks, campaign)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.environment import register_software
from repro.apps.moldesign import (
    MolDesignConfig,
    run_inference,
    run_moldesign_campaign,
    simulate_molecule,
    train_model,
)
from repro.apps.moldesign.tasks import LIBRARY_KEY, SIMULATOR_KEY
from repro.ml.mpnn import MpnnSurrogate
from repro.serialize import Blob
from repro.sim.chemistry import MoleculeLibrary, TightBindingSimulator


TINY = MolDesignConfig(
    n_molecules=300,
    n_initial=8,
    max_simulations=36,
    retrain_after=8,
    n_ensemble=2,
    inference_chunks=2,
    sim_duration=6.0,
    train_duration=10.0,
    inference_duration_per_model=10.0,
    inference_input_padding=50_000_000,
    inference_output_padding=10_000_000,
    train_epochs=10,
)


def test_config_validation():
    with pytest.raises(ValueError):
        MolDesignConfig(n_initial=100, max_simulations=50)
    with pytest.raises(ValueError):
        MolDesignConfig(threshold_quantile=1.5)
    with pytest.raises(ValueError):
        MolDesignConfig(retrain_after=0)


def test_config_chunk_duration():
    config = MolDesignConfig(inference_duration_per_model=100.0, inference_chunks=4)
    assert config.inference_chunk_duration == 25.0


# -- task functions --------------------------------------------------------------


@pytest.fixture
def installed_software():
    library = MoleculeLibrary(100, seed=0)
    simulator = TightBindingSimulator(library, duration_mean=0.5, seed=0)
    register_software(LIBRARY_KEY, library, replace=True)
    register_software(SIMULATOR_KEY, simulator, replace=True)
    return library


def test_simulate_molecule_task(installed_software):
    record = simulate_molecule(5)
    assert record["molecule_index"] == 5
    assert abs(record["ip"] - installed_software.true_ip(5)) < 0.5
    assert isinstance(record["artifacts"], Blob)


def test_train_model_task(installed_software):
    library = installed_software
    model = MpnnSurrogate(library.n_features, hidden=(16,), seed=0)
    x = library.fingerprints(list(range(40)))
    y = library.true_ips(list(range(40)))
    trained = train_model(model, x, y, duration=0.5, epochs=10, seed=0)
    pred = trained.predict(x)
    assert np.corrcoef(pred, y)[0, 1] > 0.3


def test_run_inference_task(installed_software):
    library = installed_software
    model = MpnnSurrogate(library.n_features, hidden=(16,), seed=0)
    model.train(library.fingerprints(), library.true_ips(), epochs=5)
    out = run_inference(
        model,
        np.arange(10),
        Blob(1000),
        duration=0.2,
        output_padding=5000,
    )
    assert out["scores"].shape == (10,)
    assert out["artifacts"].nbytes == 5000
    np.testing.assert_array_equal(out["chunk_indices"], np.arange(10))


# -- campaign ----------------------------------------------------------------------------


@pytest.mark.parametrize("workflow", ["parsl+redis", "funcx+globus"])
def test_tiny_campaign_completes(workflow):
    outcome = run_moldesign_campaign(
        workflow,
        TINY,
        seed=3,
        n_cpu_workers=3,
        n_gpu_workers=3,
        join_timeout=120,
    )
    assert outcome.n_simulated == TINY.max_simulations
    assert outcome.n_failures == 0
    assert len(outcome.results["simulate"]) == TINY.max_simulations
    assert outcome.found_timeline[-1][1] == outcome.n_found
    # Reordering happened at least once -> a makespan was recorded.
    assert len(outcome.ml_makespans) >= 1
    assert len(outcome.results["train"]) >= TINY.n_ensemble
    assert (
        len(outcome.results["infer"]) >= TINY.n_ensemble * TINY.inference_chunks
    )
    # Ledger sanity on a simulation result.
    sim = outcome.results["simulate"][0]
    assert sim.task_lifetime > sim.time_running > 0
    assert outcome.cpu_utilization > 0.5


def test_campaign_active_learning_beats_random():
    """After reordering, the steered campaign should find more hits than the
    expected random-draw count.

    At the default 5% threshold a 36-simulation budget expects 1.8 random
    hits and the campaign finds 1 or 2 depending on thread order; at 20% it
    expects 7.2 and finds 8-10, so the comparison has a margin."""
    config = replace(TINY, threshold_quantile=0.2)
    outcome = run_moldesign_campaign(
        "parsl+redis",
        config,
        seed=7,
        n_cpu_workers=3,
        n_gpu_workers=3,
        join_timeout=120,
    )
    random_expectation = config.max_simulations * config.threshold_quantile
    assert outcome.n_found > random_expectation
