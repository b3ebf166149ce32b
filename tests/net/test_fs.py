"""Tests for the per-site shared file systems."""

import pytest

from repro.exceptions import FileSystemError
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.fs import FileSystem, MountTable
from repro.net.topology import Site


@pytest.fixture
def fs():
    return FileSystem("vol")


def test_write_read_roundtrip(fs):
    fs.write("a/b.bin", b"hello")
    assert fs.read("a/b.bin") == b"hello"


def test_read_missing_raises(fs):
    with pytest.raises(FileSystemError):
        fs.read("ghost")


def test_size_missing_raises(fs):
    with pytest.raises(FileSystemError):
        fs.size("ghost")


def test_exists_delete(fs):
    fs.write("x", b"1")
    assert fs.exists("x")
    assert fs.delete("x")
    assert not fs.exists("x")
    assert not fs.delete("x")


def test_write_requires_bytes(fs):
    with pytest.raises(TypeError):
        fs.write("x", "not-bytes")  # type: ignore[arg-type]


def test_nominal_size_tracked_separately(fs):
    fs.write("blob", b"tiny", nominal_size=10_000_000)
    assert fs.size("blob") == 10_000_000
    assert fs.read("blob") == b"tiny"
    assert fs.total_bytes() == 10_000_000


def test_nominal_size_defaults_to_real(fs):
    fs.write("x", b"12345")
    assert fs.size("x") == 5


def test_listdir_prefix(fs):
    fs.write("dir/a", b"1")
    fs.write("dir/b", b"2")
    fs.write("other/c", b"3")
    assert fs.listdir("dir/") == ["dir/a", "dir/b"]
    assert len(fs.listdir()) == 3


def test_raw_and_write_raw_skip_charging(fs):
    fs.write_raw("x", b"data", 999)
    assert fs.raw("x") == (b"data", 999)
    with pytest.raises(FileSystemError):
        fs.raw("ghost")


def test_clear(fs):
    fs.write("x", b"1")
    fs.clear()
    assert not fs.exists("x")


def test_io_charges_by_nominal_size():
    fs = FileSystem("vol", write_bandwidth=1e6, read_bandwidth=1e6, op_latency=0.0)
    clock = get_clock()
    start = clock.now()
    fs.write("big", b"x", nominal_size=1_000_000)  # 1 s at 1 MB/s
    write_cost = clock.now() - start
    assert write_cost >= 1.0
    start = clock.now()
    fs.read("big")
    assert clock.now() - start >= 1.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FileSystem("v", write_bandwidth=0)
    with pytest.raises(ValueError):
        FileSystem("v", op_latency=-1)


# -- mount table ---------------------------------------------------------------


def test_mount_table_for_site():
    table = MountTable()
    lustre = table.add_volume(FileSystem("lustre"))
    site = Site("login", fs_group="lustre")
    assert table.for_site(site) is lustre


def test_mount_table_via_context():
    table = MountTable()
    lustre = table.add_volume(FileSystem("lustre"))
    site = Site("login", fs_group="lustre")
    with at_site(site):
        assert table.for_site() is lustre


def test_mount_table_no_context_raises():
    table = MountTable()
    with pytest.raises(FileSystemError):
        table.for_site()


def test_mount_table_site_without_fs_raises():
    table = MountTable()
    with pytest.raises(FileSystemError):
        table.for_site(Site("gpu"))


def test_mount_table_unknown_volume():
    table = MountTable()
    with pytest.raises(FileSystemError):
        table.volume("ghost")
    with pytest.raises(FileSystemError):
        table.for_site(Site("x", fs_group="ghost"))


def test_duplicate_volume_rejected():
    table = MountTable()
    table.add_volume(FileSystem("v"))
    with pytest.raises(FileSystemError):
        table.add_volume(FileSystem("v"))


def test_accessible_from():
    table = MountTable()
    table.add_volume(FileSystem("lustre"))
    assert table.accessible_from(Site("a", fs_group="lustre"), "lustre")
    assert not table.accessible_from(Site("b", fs_group="other"), "lustre")
    assert not table.accessible_from(Site("c"), "lustre")


# -- append is O(appended bytes), and nothing else about it changed ----------------
class _CopyingAppendFileSystem(FileSystem):
    """Reference: ``append`` as it was before files grew in a buffer — the
    whole file is rebuilt from ``old + data`` on every call."""

    def append(self, path, data, nominal_size=None):
        nominal = len(data) if nominal_size is None else int(nominal_size)
        self._charge(nominal, self.write_bandwidth)
        with self._lock:
            old, old_nominal = self._files.get(path, (b"", 0))
            self._files[path] = (bytes(old) + data, old_nominal + nominal)
            return old_nominal + nominal


def test_five_thousand_appends_match_the_copying_reference(recording_clock):
    records = [(f"record-{i}|".encode() * (1 + i % 7), 100 + i) for i in range(5000)]

    def journal(fs_cls):
        del recording_clock.charges[:]
        fs = fs_cls("vol", clock=recording_clock)
        fs.write("seeded.log", b"head|")  # appending to a written file, too
        sizes = [
            fs.append(path, data, nominal_size=nominal)
            for data, nominal in records
            for path in ("wal.log", "seeded.log")
        ]
        return fs, sizes, recording_clock.charged()

    fs, sizes, charges = journal(FileSystem)
    ref, ref_sizes, ref_charges = journal(_CopyingAppendFileSystem)
    assert sizes == ref_sizes
    assert charges == ref_charges
    for path in ("wal.log", "seeded.log"):
        assert fs.read(path) == ref.read(path)
        assert fs.raw(path) == ref.raw(path)
        assert fs.size(path) == ref.size(path)
        assert type(fs.read(path)) is bytes and type(fs.raw(path)[0]) is bytes
    assert fs.total_bytes() == ref.total_bytes()
    assert fs.read("wal.log") == b"".join(data for data, _ in records)


def test_a_read_is_a_snapshot_not_a_view_of_the_growing_file(fs):
    fs.append("wal.log", b"one|")
    before = fs.read("wal.log")
    fs.append("wal.log", b"two|")
    assert before == b"one|"
    assert fs.read("wal.log") == b"one|two|"
    fs.write("wal.log", b"rewritten")
    assert fs.read("wal.log") == b"rewritten"
    assert fs.append("wal.log", b"!") == len(b"rewritten!")


def test_recovery_replays_a_buffered_journal_like_a_copied_one(testbed):
    """``recover_cloud`` over a journal that grew by buffered appends
    rebuilds exactly what it rebuilds from the same records written the
    old, copying way."""
    from repro.durable import FileJournalBackend, Journal, recover_cloud
    from repro.faas.auth import SCOPE_COMPUTE, AuthServer
    from repro.faas.cloud import FaasCloud
    from repro.serialize import serialize

    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})

    def cloud_on(wal, **fabric):
        return FaasCloud(
            testbed.faas_cloud,
            testbed.network,
            auth,
            testbed.constants,
            journal=Journal(FileJournalBackend(wal, "cloud")),
            **fabric,
        )

    wal = FileSystem("wal", op_latency=1e-4)
    cloud = cloud_on(wal)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(len))
    task_ids = [
        cloud.submit(token, "c", func_id, endpoint_id, serialize((("x" * i,), {})))
        for i in range(40)
    ]
    for dispatch in cloud.fetch_tasks(token, endpoint_id, 30)[:20]:
        cloud.report_result(
            token, endpoint_id, dispatch.task_id, True, serialize({"value": 1})
        )
    # The same records, laid down by the copying reference.
    ref_wal = _CopyingAppendFileSystem("ref-wal", op_latency=1e-4)
    for line in wal.read("cloud.log").splitlines(keepends=True):
        ref_wal.append("cloud.log", line)
    assert ref_wal.raw("cloud.log") == wal.raw("cloud.log")

    def recovered(from_wal):
        fresh = cloud_on(from_wal)
        report = recover_cloud(fresh)
        state = [
            (r.task_id, r.status, r.endpoint_id, r.args_locator, r.result_locator)
            for r in map(fresh.task, task_ids)
        ]
        return (report.replayed, report.deduped, report.released, report.renotified), state

    assert recovered(wal) == recovered(ref_wal)
