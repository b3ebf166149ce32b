"""The one perf/ module that imports ``repro``.

Everything the benchmark needs from the system under test enters through
here: one builder per stack, the boundary table the tracer wraps, the
source-path → layer map the profiler buckets by, and plain-data readers
for the public records and counters.  The rest of perf/ sees only the
small objects defined below, so a later PR that renames a constructor
switch or folds a layer edits this file or nothing.

Optional constructor switches are passed only while ``inspect.signature``
still accepts them (what was passed is recorded in ``config``), and a
boundary that no longer resolves is reported, not fatal: ROADMAP item 3
can turn switches into defaults without a benchmark edit.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import queue
import random
import statistics
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import observe  # noqa: E402
from repro.apps import AppMethod, TopicPolicy, build_workflow  # noqa: E402
from repro.apps.moldesign.campaign import run_moldesign_campaign  # noqa: E402
from repro.apps.moldesign.config import MolDesignConfig  # noqa: E402
from repro.batch import BatchPolicy  # noqa: E402
from repro.durable import FileJournalBackend, Journal  # noqa: E402
from repro.faas import (  # noqa: E402
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.clock import Clock, get_clock, reset_clock  # noqa: E402
from repro.net.context import at_site  # noqa: E402
from repro.net.defaults import PaperConstants, build_paper_testbed  # noqa: E402
from repro.net.fs import FileSystem  # noqa: E402
from repro.net.topology import FixedLatency, LatencyModel  # noqa: E402
from repro.resilience import HealthPolicy, PoisonPolicy  # noqa: E402
from repro.resources import WorkerPool  # noqa: E402
from repro.serialize import Blob  # noqa: E402
from repro.tenancy import CloudRouter  # noqa: E402

__all__ = [
    "BOUNDARIES",
    "CHARGED_LAYERS",
    "PROFILED_LAYERS",
    "ColmenaStack",
    "FaasStack",
    "counter_sum",
    "current_span_id",
    "histogram_values",
    "install_boundaries",
    "install_observe",
    "layer_of_path",
    "ledger_medians",
    "now",
    "observe_spans",
    "remove_observe",
    "run_campaign",
    "set_time_scale",
    "zero_latency_constants",
]

STORM_PAYLOAD_BYTES = 10_000  # the cloud's redis tier (4 kB..20 kB), as Fig. 3
STORM_WORKERS = 8
FANOUT_WEIGHTS = 8
FANOUT_WEIGHT_BYTES = 60_000_000  # 8 x 60 MB = 480 MB vs the 256 MB site cache
FANOUT_IO_BYTES = 1_000_000
FANOUT_GPU_WORKERS = 4


# -- clock ---------------------------------------------------------------------
def set_time_scale(scale: float) -> None:
    """Re-zero the process clock at ``scale`` wall seconds per nominal one."""
    reset_clock(scale)


def now() -> float:
    """Nominal seconds on the process clock."""
    return get_clock().now()


def zero_latency_constants() -> PaperConstants:
    """``PaperConstants`` with every modelled cost removed: latencies fixed
    at zero, bandwidths effectively infinite, per-operation service times
    zero.  What is left when a task stream runs on these is implementation
    time — real Python CPU and thread hand-offs."""
    base = PaperConstants()
    changes: dict[str, object] = {}
    for field in dataclasses.fields(base):
        value = getattr(base, field.name)
        if isinstance(value, LatencyModel):
            changes[field.name] = FixedLatency(0.0)
        elif field.name.endswith("_bandwidth"):
            changes[field.name] = 1e18
        elif field.name.endswith(("_op_latency", "_service_time", "_overhead")):
            changes[field.name] = 0.0
    return dataclasses.replace(base, **changes)


# -- optional switches ---------------------------------------------------------
def _describe(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if callable(value) and not dataclasses.is_dataclass(value):
        return "<factory>"
    return repr(value)


def _construct(factory, *args, optional: dict, config: dict, **required):
    """Call ``factory``, passing each ``optional`` keyword only if its
    signature still has it, and record in ``config`` which ones went in."""
    accepted = inspect.signature(factory).parameters
    passed = {k: v for k, v in optional.items() if k in accepted}
    for key, value in passed.items():
        config[f"{factory.__name__}.{key}"] = _describe(value)
    return factory(*args, **required, **passed)


# -- task bodies (module-level: they cross the simulated wire by reference) -----
def echo(index: int, payload: Blob) -> int:
    return index


def fanout_task(index: int, weights: Blob, data: Blob) -> dict:
    return {
        "index": index,
        "nbytes": weights.nbytes + data.nbytes,
        "artifacts": Blob(FANOUT_IO_BYTES, tag=f"out{index}"),
    }


# -- stacks ---------------------------------------------------------------------
class _Stack:
    """What the workload drivers and record readers need from either stack:
    ``testbed``, ``cloud`` and ``pool`` attributes, ``send(i)``, ``receive``
    returning ``(i, ok, overhead)`` for the next task to finish, ``close``."""

    def home(self):
        """Context manager pinning the calling thread to the client's site."""
        return at_site(self.testbed.theta_login)

    def queue_waits(self) -> list[float]:
        """``TaskRecord.fetched_at − submitted_at`` for every fetched task."""
        return [
            r.fetched_at - r.submitted_at
            for r in self.cloud.task_records()
            if r.fetched_at is not None
        ]

    def results(self) -> list:
        """The Colmena ``Result`` ledgers collected (none without Colmena)."""
        return []

    def worker_busy_fraction(self, elapsed: float) -> float:
        return self.pool.busy_seconds / (self.pool.n_workers * elapsed)

    def idle_gaps(self) -> list[float]:
        return list(self.pool.idle_gaps)

    def journal_bytes(self) -> int:
        return 0


class FaasStack(_Stack):
    """``FaasClient → cloud → FaasEndpoint`` driven directly, no Colmena.

    ``send(i)`` submits ``echo(i, Blob(10 kB))``; ``receive`` reports an
    ``overhead`` of ``None``: an echo runs for no time, so the caller's round
    trip is it.
    """

    def __init__(self, seed: int, *, hardened: bool, zero_latency: bool = False):
        self.config: dict = {"stack": "storm_hardened" if hardened else "storm"}
        self.testbed = build_paper_testbed(
            seed=seed, constants=zero_latency_constants() if zero_latency else None
        )
        c = self.testbed.constants
        auth = AuthServer()
        token = auth.issue_token(
            auth.register_identity("perf", "anl"), {SCOPE_COMPUTE}
        )
        self.wal: FileSystem | None = None
        if hardened:
            # The journal's medium follows the pass: 2 ms fsyncs when the
            # constants are the paper's, free when they are the zero set.
            self.wal = FileSystem(
                "wal",
                op_latency=0.0 if zero_latency else 2e-3,
                write_bandwidth=1e18 if zero_latency else 1.2e9,
                read_bandwidth=1e18 if zero_latency else 2.0e9,
            )
            wal = self.wal
            self.cloud = _construct(
                CloudRouter,
                self.testbed.faas_cloud,
                self.testbed.network,
                auth,
                c,
                config=self.config,
                optional={
                    "n_shards": 2,
                    "journal_factory": lambda shard_id: Journal(
                        FileJournalBackend(wal, shard_id), name=shard_id
                    ),
                    "health_policy": HealthPolicy(),
                    "poison_policy": PoisonPolicy(),
                },
            )
        else:
            self.cloud = FaasCloud(
                self.testbed.faas_cloud, self.testbed.network, auth, c
            )
        self.pool = WorkerPool(self.testbed.theta_compute, STORM_WORKERS, name="perf")
        self.endpoint = _construct(
            FaasEndpoint,
            "theta",
            self.cloud,
            token,
            self.testbed.theta_login,
            self.pool,
            config=self.config,
            optional={"uplink_batching": True} if hardened else {},
        ).start()
        self.client = _construct(
            FaasClient,
            self.cloud,
            token,
            site=self.testbed.theta_login,
            config=self.config,
            optional=(
                {"batch": BatchPolicy(max_batch=32, flush_deadline=0.05, min_hold=0.002)}
                if hardened
                else {}
            ),
        )
        self._done: "queue.Queue[tuple[int, object]]" = queue.Queue()
        with self.home():
            self._func_id = self.client.register_function(echo)

    def send(self, index: int) -> None:
        future = self.client.submit(
            self._func_id,
            self.endpoint.endpoint_id,
            index,
            Blob(STORM_PAYLOAD_BYTES),
        )
        future.add_done_callback(lambda f, i=index: self._done.put((i, f)))

    def receive(self, wall_timeout: float):
        try:
            index, future = self._done.get(timeout=wall_timeout)
        except queue.Empty:
            return None
        ok = future.exception() is None and future.result() == index
        return index, ok, None

    def close(self) -> None:
        self.client.close()
        self.endpoint.stop()

    def journal_bytes(self) -> int:
        return self.wal.total_bytes() if self.wal is not None else 0


class ColmenaStack(_Stack):
    """``build_workflow("funcx+globus")`` with one GPU method, driven through
    the Colmena queues: the data plane (Globus ProxyStore, site caches,
    transfer service) does the work, the control plane little."""

    def __init__(self, seed: int, *, zero_latency: bool = False) -> None:
        self.config: dict = {"stack": "data_fanout", "workflow": "funcx+globus"}
        self.testbed = build_paper_testbed(
            seed=seed, constants=zero_latency_constants() if zero_latency else None
        )
        self.handle = build_workflow(
            "funcx+globus",
            self.testbed,
            [AppMethod(fanout_task, resource="gpu", topic="fanout")],
            {"fanout": TopicPolicy(locality="cross", threshold=10_000)},
            n_cpu_workers=1,
            n_gpu_workers=FANOUT_GPU_WORKERS,
        ).start()
        self.pool = self.handle.gpu_pool
        self.cloud = self.handle.endpoints[0].cloud
        self.store = self.handle.stores["cross"]
        self._results: list = []
        self._rng = random.Random(seed)
        with self.home():
            self._weights = [
                self.store.proxy(Blob(FANOUT_WEIGHT_BYTES, tag=f"w{k}"))
                for k in range(FANOUT_WEIGHTS)
            ]

    def send(self, index: int) -> None:
        # Zipf-like reuse: weight k is picked with probability ∝ 1/(k+1).
        (weights,) = self._rng.choices(
            self._weights, weights=[1.0 / (k + 1) for k in range(FANOUT_WEIGHTS)]
        )
        self.handle.queues.send_request(
            "fanout_task",
            args=(index, weights, Blob(FANOUT_IO_BYTES, tag=f"in{index}")),
            topic="fanout",
        )

    def receive(self, wall_timeout: float):
        nominal = wall_timeout / get_clock().time_scale
        result = self.handle.queues.get_result("fanout", timeout=nominal)
        if result is None:
            return None
        ok = bool(result.success)
        index = result.args[0]
        if ok:
            value = result.access_value()
            ok = (
                value["index"] == index
                and value["nbytes"] == FANOUT_WEIGHT_BYTES + FANOUT_IO_BYTES
                and value["artifacts"].nbytes == FANOUT_IO_BYTES
            )
        self._results.append(result)
        return index, ok, result.overhead

    def close(self) -> None:
        self.handle.shutdown()

    def results(self) -> list:
        return list(self._results)


def ledger_medians(results: list) -> dict:
    """Medians of the public ``Result`` ledger fields the layer table reads
    (zeros when the workload bypasses Colmena and has no ledger)."""

    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else 0.0

    return {
        "core.queues.client_to_server_p50_s": med(
            r.comm_client_to_server for r in results
        ),
        "faas.server_to_worker_p50_s": med(r.comm_server_to_worker for r in results),
        "resources.time_on_worker_p50_s": med(r.time_on_worker for r in results),
        "serialize.time_serialization_p50_s": med(
            r.time_serialization for r in results
        ),
    }


def run_campaign(
    seed: int, n_simulations: int, *, warmup: bool = False, zero_cost: bool = False
) -> dict:
    """One molecular-design campaign on the cloud-managed stack, reduced to
    plain data.

    ``warmup`` runs the miniature (one wave of simulations on a 150-molecule
    library, no retraining) that set-up uses to build the stack once and fill
    lazy imports.  ``zero_cost`` removes every modelled cost — zero-latency
    constants, task durations of nothing, retraining off — so that what runs
    is the steering loop itself: Thinker, queues, task server, FaaS fabric
    and file store for ``n_simulations`` simulate tasks.

    The testbed and cloud are built here exactly as the campaign would build
    them itself, and handed in, only so the cloud's task records can be read
    afterwards."""
    free = (
        {
            "sim_duration": 1e-9,
            "train_duration": 0.0,
            "inference_duration_per_model": 0.0,
            "retrain_after": 10**9,
        }
        if zero_cost
        else {}
    )
    config = MolDesignConfig(
        n_molecules=150 if warmup else 1200,
        max_simulations=n_simulations,
        n_initial=min(MolDesignConfig.n_initial, n_simulations - 1),
        **free,
    )
    testbed = build_paper_testbed(
        seed=seed, constants=zero_latency_constants() if zero_cost else None
    )
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, AuthServer(), testbed.constants
    )
    outcome = run_moldesign_campaign(
        "funcx+globus", config, seed=seed, testbed=testbed, faas_cloud=cloud
    )
    everything = [r for rs in outcome.results.values() for r in rs]
    sims = outcome.results.get("simulate", [])
    makespan = max(r.time_client_result_received for r in sims) - min(
        r.time_created for r in sims
    )
    return {
        "target": config.max_simulations,
        "n_simulated": outcome.n_simulated,
        "n_failures": outcome.n_failures,
        "attempted": len(everything),
        "unsuccessful": sum(1 for r in everything if not r.success),
        "makespan_s": makespan,
        "overheads": {
            topic: [r.overhead for r in rs if r.overhead is not None]
            for topic, rs in outcome.results.items()
        },
        "tasks_by_topic": {t: len(rs) for t, rs in outcome.results.items()},
        "ml_makespans": list(outcome.ml_makespans),
        "cpu_idle_gaps": list(outcome.cpu_idle_gaps),
        "cpu_utilization": outcome.cpu_utilization,
        "queue_waits": [
            r.fetched_at - r.submitted_at
            for r in cloud.task_records()
            if r.fetched_at is not None
        ],
        "ledger": ledger_medians(everything),
    }


# -- layers ----------------------------------------------------------------------
#: Layers the call profiler reports (bucketed by source path).
PROFILED_LAYERS = (
    "serialize", "net", "faas.client", "faas.cloud", "faas.endpoint", "faas.auth",
    "tenancy", "durable", "bus", "batch", "resilience", "resources", "observe",
    "chaos", "elastic", "proxystore", "transfer", "core", "apps", "bench",
)  # fmt: skip
#: Layers the boundary wrappers attribute calls and modelled charges to.
CHARGED_LAYERS = (
    "faas.client", "faas.cloud", "faas.endpoint", "tenancy", "durable", "bus",
    "batch", "resources", "proxystore", "transfer", "core.queues",
    "core.task_server", "apps",
)  # fmt: skip

_PACKAGE_LAYER = {"ml": "apps", "sim": "apps"}
_REPRO_ROOT = str(pathlib.Path(observe.__file__).resolve().parent.parent)


def layer_of_path(filename: str) -> str | None:
    """``src/repro/<pkg>/<file>.py`` → layer name; ``None`` outside repro.
    A layer is a module: ``faas`` splits per file, other packages do not."""
    if not filename.startswith(_REPRO_ROOT):
        return None
    parts = pathlib.PurePath(filename[len(_REPRO_ROOT) :].lstrip("/\\")).parts
    if not parts:
        return None
    head = parts[0]
    if len(parts) == 1:
        return head[:-3] if head.endswith(".py") else head
    if head == "faas":
        return f"faas.{parts[1][:-3]}"
    return _PACKAGE_LAYER.get(head, head)


#: (layer, "module:Class.method", kind).  ``call`` boundaries are counted and
#: recorded as spans; ``root`` boundaries are thread main loops that never
#: return while the stack lives — they only give their thread a default layer;
#: ``hold`` boundaries also charge their first argument (a requested delay).
#: Underscored names are the only places some threads charge time; they are
#: resolved like the rest and listed under ``missing_boundaries`` if they go.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("faas.client", "repro.faas.client:FaasClient.register_function", "call"),
    ("faas.client", "repro.faas.client:FaasClient.submit", "call"),
    ("faas.client", "repro.faas.client:FaasClient._flush_batch", "call"),
    ("faas.client", "repro.faas.client:FaasClient._handle_completions", "call"),
    ("faas.client", "repro.faas.client:FaasClient._notify_loop", "root"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.register_function", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.submit", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.submit_batch", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.fetch_tasks", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.report_result", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.report_results", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.get_result_payload", "call"),
    ("faas.cloud", "repro.faas.cloud:FaasCloud.heartbeat", "call"),
    ("faas.cloud", "repro.faas.cloud:_PayloadStore.read", "call"),
    ("faas.cloud", "repro.faas.cloud:_PayloadStore.write", "call"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._fetch", "call"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._dispatch", "call"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._uplink_batch", "call"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._heartbeat_tick", "call"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._poll_loop", "root"),
    ("faas.endpoint", "repro.faas.endpoint:FaasEndpoint._uplink_loop", "root"),
    ("tenancy", "repro.tenancy.router:CloudRouter.register_function", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.submit", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.submit_batch", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.fetch_tasks", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.report_result", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.report_results", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.get_result_payload", "call"),
    ("tenancy", "repro.tenancy.router:CloudRouter.heartbeat", "call"),
    ("tenancy", "repro.tenancy.tenant:TenantRegistry.admit_submit", "call"),
    ("tenancy", "repro.tenancy.tenant:TenantRegistry.admit_batch", "call"),
    ("durable", "repro.durable.journal:Journal.append", "call"),
    ("durable", "repro.durable.journal:Journal.snapshot", "call"),
    ("bus", "repro.bus.broker:NotificationBus.publish", "call"),
    ("bus", "repro.bus.consumer:BusConsumer.receive", "call"),
    ("bus", "repro.bus.consumer:BusConsumer.done", "call"),
    ("batch", "repro.batch.batcher:BatchAccumulator.add", "call"),
    ("batch", "repro.batch.batcher:BatchAccumulator.take", "call"),
    ("batch", "repro.batch.reactor:Reactor.call_later", "hold"),
    ("resources", "repro.resources.worker:WorkerPool.submit", "call"),
    ("resources", "repro.resources.worker:WorkerPool._execute", "call"),
    ("proxystore", "repro.proxystore.store:Store.put", "call"),
    ("proxystore", "repro.proxystore.store:Store.put_batch", "call"),
    ("proxystore", "repro.proxystore.store:Store.get", "call"),
    ("proxystore", "repro.proxystore.store:Store.prefetch", "call"),
    ("transfer", "repro.transfer.client:TransferClient.submit", "call"),
    ("transfer", "repro.transfer.client:TransferClient.wait", "call"),
    ("transfer", "repro.transfer.service:TransferService._run_transfer", "call"),
    ("core.queues", "repro.core.queues:ColmenaQueues.send_request", "call"),
    ("core.queues", "repro.core.queues:ColmenaQueues.get_result", "call"),
    ("core.queues", "repro.core.queues:ColmenaQueues.get_task", "call"),
    ("core.queues", "repro.core.queues:ColmenaQueues.send_result", "call"),
    ("core.task_server", "repro.core.task_server:FuncXTaskServer._dispatch", "call"),
    ("core.task_server", "repro.core.task_server:ColmenaTask.__call__", "call"),
    ("core.task_server", "repro.core.task_server:TaskServer._main_loop", "root"),
    ("core.task_server", "repro.core.task_server:TaskServer._forward_loop", "root"),
)


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = qualname.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not callable(inspect.getattr_static(owner, attr)):
        raise AttributeError(f"{path} is not a plain callable")
    return owner, attr


def install_boundaries(recorder) -> dict[str, str]:
    """Wrap every boundary that still resolves, plus ``Clock.sleep`` (each
    charge goes to the innermost boundary on its thread, or to ``apps`` when
    the sleep is user compute).  Returns ``{path: layer}`` for the boundaries
    that did not resolve."""
    missing = {}
    for layer, path, kind in BOUNDARIES:
        try:
            owner, attr = _resolve(path)
        except (ImportError, AttributeError):
            missing[path] = layer
            continue
        recorder.wrap(owner, attr, layer, path.partition(":")[2], kind)
    recorder.wrap_sleep(
        Clock, lambda filename: "apps" if layer_of_path(filename) == "apps" else None
    )
    return missing


# -- repro.observe ----------------------------------------------------------------
def install_observe():
    tracer, registry = observe.Tracer(), observe.MetricsRegistry()
    observe.set_tracer(tracer)
    observe.set_metrics(registry)
    return tracer, registry


def remove_observe() -> None:
    observe.set_tracer(None)
    observe.set_metrics(None)


def current_span_id() -> str | None:
    span = observe.current_span()
    return span.span_id if span is not None else None


def observe_spans(tracer) -> list[dict]:
    return [span.to_dict() for span in tracer.spans()]


def counter_sum(registry, name: str, **labels) -> float:
    """A counter summed over every label set that matches ``labels``."""
    return sum(
        counter.value
        for counter_name, counter_labels, counter in registry.counters()
        if counter_name == name
        and all(counter_labels.get(k) == v for k, v in labels.items())
    )


def histogram_values(registry, name: str) -> list[float]:
    values: list[float] = []
    for hist_name, _, hist in registry.histograms():
        if hist_name == name:
            values.extend(hist.values())
    return values
