"""Per-site shared file systems with charged I/O time.

The paper's topology has two relevant volumes: Theta's Lustre file system
(shared by login and compute nodes, used by ProxyStore's *file* backend and
as the staging area for the *Globus* backend) and the UChicago cluster's
file system.  The GPU machine pointedly has access to neither, which is why
cross-resource data movement needs Globus at all.

:class:`FileSystem` is an in-memory blob store that charges metadata latency
plus size/bandwidth for reads and writes — the paper observes that the
serialization time of the file and Globus ProxyStore backends "is a
reflection of the I/O performance of the file system", so that cost must be
modeled.  :class:`MountTable` maps a site's ``fs_group`` to its volume.
"""

from __future__ import annotations

import threading

from repro.exceptions import FileSystemError
from repro.net.clock import Clock, get_clock
from repro.net.context import current_site
from repro.net.topology import Site

__all__ = ["FileSystem", "MountTable"]


class FileSystem:
    """An in-memory POSIX-ish blob store shared by one ``fs_group``."""

    def __init__(
        self,
        name: str,
        *,
        write_bandwidth: float = 1.2e9,
        read_bandwidth: float = 2.0e9,
        op_latency: float = 0.8e-3,
        clock: Clock | None = None,
    ) -> None:
        if write_bandwidth <= 0 or read_bandwidth <= 0 or op_latency < 0:
            raise ValueError("bandwidths must be positive and latency >= 0")
        self.name = name
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self.op_latency = op_latency
        self._clock = clock or get_clock()
        # path -> (real bytes, nominal size charged for I/O and transfers).
        # A file that has been appended to holds a growable ``bytearray``
        # (see ``append``); ``read``/``raw`` hand out immutable bytes.
        self._files: dict[str, tuple[bytes | bytearray, int]] = {}
        self._lock = threading.Lock()

    def _charge(self, nbytes: int, bandwidth: float) -> None:
        self._clock.sleep(self.op_latency + nbytes / bandwidth)

    def write(self, path: str, data: bytes, nominal_size: int | None = None) -> None:
        """Store ``data`` at ``path``.

        ``nominal_size`` lets callers staging :class:`repro.serialize.Blob`-
        padded payloads charge (and later be charged) for the size the bytes
        *represent* rather than their real in-memory length.
        """
        if not isinstance(data, bytes):
            raise TypeError(f"file data must be bytes, got {type(data).__name__}")
        nominal = len(data) if nominal_size is None else int(nominal_size)
        self._charge(nominal, self.write_bandwidth)
        with self._lock:
            self._files[path] = (data, nominal)

    def append(self, path: str, data: bytes, nominal_size: int | None = None) -> int:
        """Append ``data`` to ``path`` (creating it if absent) and return the
        file's new nominal size.

        Only the appended bytes are charged — this is the journal fsync
        primitive: a write-ahead log grows by one record at a time and must
        not pay for rewriting its whole history on every append.  The same
        holds for the real bytes: the file becomes a growable buffer on its
        first append, so an append costs its own length, not the log's.
        """
        if not isinstance(data, bytes):
            raise TypeError(f"file data must be bytes, got {type(data).__name__}")
        nominal = len(data) if nominal_size is None else int(nominal_size)
        self._charge(nominal, self.write_bandwidth)
        with self._lock:
            buffer, old_nominal = self._files.get(path, (b"", 0))
            if not isinstance(buffer, bytearray):
                buffer = bytearray(buffer)
            buffer += data
            new_nominal = old_nominal + nominal
            self._files[path] = (buffer, new_nominal)
            return new_nominal

    def read(self, path: str) -> bytes:
        with self._lock:
            try:
                data, nominal = self._files[path]
            except KeyError:
                raise FileSystemError(f"{self.name}:{path}: no such file") from None
            data = bytes(data)  # snapshot: later appends must not show through
        self._charge(nominal, self.read_bandwidth)
        return data

    def raw(self, path: str) -> tuple[bytes, int]:
        """(data, nominal size) without charging I/O time.

        Used by data-transfer nodes that account their own time budget for
        the whole copy rather than paying per-file I/O twice.
        """
        with self._lock:
            try:
                data, nominal = self._files[path]
            except KeyError:
                raise FileSystemError(f"{self.name}:{path}: no such file") from None
            return bytes(data), nominal

    def write_raw(self, path: str, data: bytes, nominal_size: int) -> None:
        """Store without charging I/O time (see :meth:`raw`)."""
        with self._lock:
            self._files[path] = (data, int(nominal_size))

    def exists(self, path: str) -> bool:
        self._clock.sleep(self.op_latency)
        with self._lock:
            return path in self._files

    def delete(self, path: str) -> bool:
        self._clock.sleep(self.op_latency)
        with self._lock:
            return self._files.pop(path, None) is not None

    def size(self, path: str) -> int:
        """Nominal size of the file (what transfers/bandwidth should charge)."""
        with self._lock:
            try:
                return self._files[path][1]
            except KeyError:
                raise FileSystemError(f"{self.name}:{path}: no such file") from None

    def listdir(self, prefix: str = "") -> list[str]:
        self._clock.sleep(self.op_latency)
        with self._lock:
            return sorted(p for p in self._files if p.startswith(prefix))

    def total_bytes(self) -> int:
        with self._lock:
            return sum(nominal for _, nominal in self._files.values())

    def clear(self) -> None:
        with self._lock:
            self._files.clear()


class MountTable:
    """Maps ``fs_group`` names to :class:`FileSystem` volumes.

    A site with ``fs_group=None`` mounts nothing; attempts to touch a volume
    from such a site raise :class:`FileSystemError` — the same error a task
    on the GPU cluster would hit trying to open a Lustre path.
    """

    def __init__(self) -> None:
        self._volumes: dict[str, FileSystem] = {}

    def add_volume(self, fs: FileSystem) -> FileSystem:
        if fs.name in self._volumes:
            raise FileSystemError(f"volume {fs.name!r} already mounted")
        self._volumes[fs.name] = fs
        return fs

    def volume(self, fs_group: str) -> FileSystem:
        try:
            return self._volumes[fs_group]
        except KeyError:
            raise FileSystemError(f"no volume named {fs_group!r}") from None

    def for_site(self, site: Site | None = None) -> FileSystem:
        """The volume mounted at ``site`` (default: the calling thread's)."""
        site = site or current_site()
        if site is None:
            raise FileSystemError("no site context: cannot resolve a mount")
        if site.fs_group is None:
            raise FileSystemError(f"site {site.name!r} mounts no shared file system")
        return self.volume(site.fs_group)

    def accessible_from(self, site: Site, fs_group: str) -> bool:
        return site.fs_group == fs_group and fs_group in self._volumes
