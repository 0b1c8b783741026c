"""Partition layout and warm-handoff rebalancing.

``rebalance`` is the mechanism behind both resize handoff (cluster
startup re-homes a store written under a different member set) and
drain handoff (a leaver's entries move to the survivors).  The tests
drive it with real ResultStore-written entries so the layout contract
(``shard-<n>/<2-hex>/<digest>.json``) is exercised end to end.
"""

import hashlib
import json

from repro.shard.partition import (
    partition_dir,
    partition_ids,
    rebalance,
    shard_ids,
)
from repro.shard.ring import HashRing


def _write_entry(root, shard, digest):
    path = partition_dir(root, shard) / digest[:2] / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"digest": digest}))
    return path


def _digests(n):
    return [hashlib.sha256(f"entry-{i}".encode()).hexdigest() for i in range(n)]


class TestLayout:
    def test_shard_ids_are_stable(self):
        assert shard_ids(3) == ["shard-0", "shard-1", "shard-2"]

    def test_partition_ids_lists_only_shard_dirs(self, tmp_path):
        for name in ("shard-0", "shard-2", "not-a-shard", "shard-x"):
            (tmp_path / name).mkdir()
        (tmp_path / "stray.json").write_text("{}")
        assert partition_ids(tmp_path) == ["shard-0", "shard-2"]


class TestRebalance:
    def test_everything_lands_on_its_ring_owner(self, tmp_path):
        ring = HashRing(shard_ids(3))
        # scatter entries with no regard for ownership
        digests = _digests(40)
        for i, digest in enumerate(digests):
            _write_entry(tmp_path, f"shard-{i % 3}", digest)
        moved = rebalance(tmp_path, ring)
        assert 0 < moved <= len(digests)
        for digest in digests:
            owner = ring.route(digest)
            path = (
                partition_dir(tmp_path, owner) / digest[:2] / f"{digest}.json"
            )
            assert path.is_file(), (digest, owner)

    def test_rebalance_is_idempotent(self, tmp_path):
        ring = HashRing(shard_ids(3))
        for digest in _digests(20):
            _write_entry(tmp_path, "shard-0", digest)
        assert rebalance(tmp_path, ring) > 0
        assert rebalance(tmp_path, ring) == 0

    def test_departed_members_partition_is_emptied(self, tmp_path):
        """Entries under a partition no longer on the ring all move out."""
        digests = _digests(25)
        full = HashRing(shard_ids(3))
        for digest in digests:
            _write_entry(tmp_path, full.route(digest), digest)
        shrunk = HashRing(shard_ids(3))
        shrunk.remove("shard-2")
        rebalance(tmp_path, shrunk)
        assert not list((tmp_path / "shard-2").rglob("*.json"))
        assert len(list(tmp_path.rglob("*.json"))) == len(digests)

    def test_survivor_entries_do_not_move_on_drain(self, tmp_path):
        """Minimal movement carries through to the filesystem layer."""
        digests = _digests(30)
        full = HashRing(shard_ids(3))
        paths = {d: _write_entry(tmp_path, full.route(d), d) for d in digests}
        shrunk = HashRing(shard_ids(3))
        shrunk.remove("shard-1")
        rebalance(tmp_path, shrunk)
        for digest, path in paths.items():
            if full.route(digest) != "shard-1":
                assert path.is_file(), "survivor entry moved"

    def test_rebalance_preserves_bytes(self, tmp_path):
        ring = HashRing(shard_ids(2))
        digest = _digests(1)[0]
        src = _write_entry(tmp_path, "shard-0", digest)
        payload = src.read_bytes()
        rebalance(tmp_path, ring)
        owner = ring.route(digest)
        dest = partition_dir(tmp_path, owner) / digest[:2] / f"{digest}.json"
        assert dest.read_bytes() == payload
