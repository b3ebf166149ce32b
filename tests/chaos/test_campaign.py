"""The chaos campaign harness itself: cells pass, ledgers are deterministic."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.chaos.campaign import (
    _REPORT_COUNTERS,
    CONFIGS,
    FAULT_MODES,
    fault_specs,
    render_results,
    run_campaign,
    run_cell,
)


def test_fault_specs_cover_every_mode():
    for mode in FAULT_MODES:
        specs = fault_specs(mode)
        assert specs, mode
    assert fault_specs("none") == ()
    with pytest.raises(ValueError, match="unknown fault mode"):
        fault_specs("meteor_strike")


def test_worker_exception_cell_passes_and_reconciles():
    result = run_cell("worker_exception", "faas-file", seed=0, n_tasks=4)
    assert result.passed, result.failures
    assert result.fires > 0  # the cell actually injected something
    assert result.counters["client.retries"] == result.fires


def test_endpoint_crash_cell_fails_over_without_client_retries():
    result = run_cell("endpoint_crash", "faas-file", seed=0, n_tasks=4)
    assert result.passed, result.failures
    assert result.fires == 1
    assert result.counters["faas.failovers"] >= 1
    assert result.counters["client.retries"] == 0


def test_cell_ledger_digest_is_deterministic():
    first = run_cell("store_corruption", "faas-file", seed=3, n_tasks=4)
    second = run_cell("store_corruption", "faas-file", seed=3, n_tasks=4)
    assert first.passed, first.failures
    assert first.digest == second.digest
    assert first.fires == second.fires


def test_different_seeds_give_different_ledgers():
    a = run_cell("worker_exception", "faas-file", seed=0, n_tasks=6)
    b = run_cell("worker_exception", "faas-file", seed=1, n_tasks=6)
    assert a.passed and b.passed
    assert a.digest != b.digest


def test_run_campaign_renders_a_verdict_table():
    results = run_campaign(
        modes=("worker_exception",), configs=("faas-file",), seed=0, n_tasks=4
    )
    assert len(results) == 1
    report = render_results(results)
    assert "worker_exception" in report
    assert "1/1 cells passed" in report


def test_configs_constant_matches_rig_builders():
    assert set(CONFIGS) == {"faas-file", "faas-redis", "faas-globus"}


def test_every_report_counter_is_emitted_somewhere():
    """A reported counter no module names any more reads 0 in every cell
    and passes any ``== 0`` check without checking anything.  Counters
    emitted through a table (``_STEERED``, ``_SWEPT``) are still literals."""
    src = Path(repro.__file__).parent
    literals = {
        node.value
        for path in src.rglob("*.py")
        if path.relative_to(src).as_posix() != "chaos/campaign.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert [name for name in _REPORT_COUNTERS if name not in literals] == []
