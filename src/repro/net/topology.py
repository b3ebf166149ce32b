"""Sites, links, and latency/bandwidth models.

The topology is the root of the simulation: every network operation in the
library (a Redis ``GET``, a FuncX HTTPS call, a Globus transfer) asks the
:class:`Network` for the one-way latency and/or transfer time between the
calling thread's site and the destination site, then sleeps that long on the
virtual clock.

Latency models are small sampler objects so links can have realistic jitter
(wide-area hops use a log-normal distribution, matching the long right tail
the paper observes for Globus web-service calls).
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field

from repro.exceptions import TopologyError

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "Site",
    "Link",
    "Network",
    "LOCALHOST_LATENCY_S",
]

# One-way latency for two components on the same site (loopback / IPC).
LOCALHOST_LATENCY_S = 50e-6


class LatencyModel:
    """Base class: a distribution over one-way latencies in seconds."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    @property
    def typical(self) -> float:
        """A central value (used for documentation and sanity checks)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Deterministic latency; useful in tests."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("latency must be non-negative")

    def sample(self, rng: random.Random) -> float:
        return self.value

    @property
    def typical(self) -> float:
        return self.value


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform jitter in ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"invalid uniform range [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    @property
    def typical(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Log-normal latency parameterized by its *median* and shape ``sigma``.

    Wide-area and cloud-service latencies are well described by a log-normal:
    most samples sit near the median with an occasional slow outlier.  An
    optional ``cap`` bounds pathological samples so scaled-down benchmark
    runs stay fast.
    """

    median: float
    sigma: float = 0.25
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ValueError("median must be >0 and sigma >=0")

    def sample(self, rng: random.Random) -> float:
        value = self.median * math.exp(rng.gauss(0.0, self.sigma))
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    @property
    def typical(self) -> float:
        return self.median


@dataclass(frozen=True)
class Site:
    """A computing location: an HPC login node, a compute fabric, a cloud
    region, or a GPU cluster.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`Network`.
    fs_group:
        Sites with the same (non-``None``) ``fs_group`` mount the same shared
        file system.  Theta's login and compute nodes share one; the GPU
        cluster in the paper deliberately does not.
    allows_inbound:
        Whether services on this site may accept connections initiated from
        *other* sites.  HPC centers in the paper do not, which is exactly why
        the Parsl baseline needs "open ports or a tunnel" and the FuncX stack
        does not (its endpoints only dial out).
    trust_group:
        Sites inside the same administrative facility (same non-``None``
        ``trust_group``) may always connect to each other — e.g. Theta
        compute nodes dialing the interchange on a Theta login node.
    tags:
        Free-form labels ("cpu", "gpu", "cloud") used by resource selection.
    """

    name: str
    fs_group: str | None = None
    allows_inbound: bool = False
    trust_group: str | None = None
    tags: frozenset[str] = frozenset()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Link:
    """A bidirectional network path between two sites."""

    a: str
    b: str
    latency: LatencyModel
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class Network:
    """A registry of sites and links with deterministic latency sampling.

    The network owns a seeded RNG so that experiment runs are reproducible;
    sampling is serialized behind a lock because every component thread
    shares the one network instance.
    """

    seed: int = 0
    default_link: Link | None = None
    _sites: dict[str, Site] = field(default_factory=dict)
    #: ``(a, b) -> Link`` under both orders, so a lookup is one dict read.
    _links: dict[tuple[str, str], Link] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    # -- construction -----------------------------------------------------
    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise TopologyError(f"site {site.name!r} already exists")
        self._sites[site.name] = site
        return site

    def add_link(
        self, a: Site | str, b: Site | str, latency: LatencyModel, bandwidth: float
    ) -> Link:
        a_name, b_name = self._name(a), self._name(b)
        if a_name == b_name:
            raise TopologyError("cannot link a site to itself")
        for name in (a_name, b_name):
            if name not in self._sites:
                raise TopologyError(f"unknown site {name!r}")
        link = Link(a_name, b_name, latency, bandwidth)
        self._links[a_name, b_name] = self._links[b_name, a_name] = link
        return link

    # -- queries ----------------------------------------------------------
    @staticmethod
    def _name(site: Site | str) -> str:
        return site.name if isinstance(site, Site) else site

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise TopologyError(f"unknown site {name!r}") from None

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(self._sites.values())

    def link_between(self, a: Site | str, b: Site | str) -> Link:
        a_name, b_name = self._name(a), self._name(b)
        link = self._links.get((a_name, b_name), self.default_link)
        if link is None:
            raise TopologyError(f"no link between {a_name!r} and {b_name!r}")
        return link

    def _sample(self, model: LatencyModel) -> float:
        with self._lock:
            return model.sample(self._rng)

    def latency(self, a: Site | str, b: Site | str) -> float:
        """Sampled one-way latency in nominal seconds between two sites."""
        # The hot path of every modelled hop: a site's name is read off the
        # object and the link is one dict read (``link_between`` only for a
        # pair with no link of its own).
        a_name, b_name = getattr(a, "name", a), getattr(b, "name", b)
        if a_name == b_name:
            return LOCALHOST_LATENCY_S
        link = self._links.get((a_name, b_name)) or self.link_between(a_name, b_name)
        with self._lock:
            return link.latency.sample(self._rng)

    def rtt(self, a: Site | str, b: Site | str) -> float:
        """Sampled round-trip time (two independent one-way samples)."""
        return self.latency(a, b) + self.latency(b, a)

    def api_legs(
        self, caller: Site | str, service: Site | str, processing: LatencyModel
    ) -> tuple[float, float]:
        """One API call's ``(request, response)`` legs, drawn as an ``rtt``
        and then a ``processing`` sample: the request is the one-way latency
        to ``service`` plus the processing, paid before the service acts;
        the response is the latency back, paid before the caller acts on
        the answer.  A synchronous call pays their sum."""
        out, back = self.latency(caller, service), self.latency(service, caller)
        return out + self._sample(processing), back

    def bandwidth(self, a: Site | str, b: Site | str) -> float:
        """Bytes/second between two sites (effectively infinite locally)."""
        a_name, b_name = getattr(a, "name", a), getattr(b, "name", b)
        if a_name == b_name:
            return 20e9  # intra-node memory/loopback speed
        link = self._links.get((a_name, b_name)) or self.link_between(a_name, b_name)
        return link.bandwidth

    def transfer_time(self, a: Site | str, b: Site | str, nbytes: int) -> float:
        """One-way latency plus serialization delay for ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency(a, b) + nbytes / self.bandwidth(a, b)

    def can_connect(self, caller: Site | str, server: Site | str) -> bool:
        """Whether ``caller`` may open a connection *to* ``server``.

        Allowed when the two are the same site, inside the same trust group
        (intra-facility), or when the server's site accepts inbound traffic
        (cloud services).  Everything else needs a tunnel, which is exactly
        the deployment burden the paper's cloud-managed stack avoids.
        """
        sc, ss = self.site(self._name(caller)), self.site(self._name(server))
        if sc.name == ss.name or ss.allows_inbound:
            return True
        return (
            sc.trust_group is not None
            and sc.trust_group == ss.trust_group
        )

    def shares_filesystem(self, a: Site | str, b: Site | str) -> bool:
        sa, sb = self.site(self._name(a)), self.site(self._name(b))
        return (
            sa.fs_group is not None
            and sb.fs_group is not None
            and sa.fs_group == sb.fs_group
        )
