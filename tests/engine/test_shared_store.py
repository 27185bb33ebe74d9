"""Shared-memory segments: the explicit lifecycle behind the pool arenas.

The pool's input and output arenas are :class:`SharedSegment` objects,
owned by the parent and attached by every worker. These tests pin the
lifecycle that zero-copy staging rests on — an attachment sees (and
writes) the owner's bytes, attach fails loudly on a missing or short
segment, close is idempotent and then loud, the active ledger and the
scope sweep account for every name, and the leak check reports what a
bad teardown leaves behind. Plane stores are private to their process, so
:func:`make_fleet` knows no shared store.
"""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError
from repro.engine import make_fleet
from repro.engine.shared import (
    SharedSegment,
    shared_segment_stats,
    unlink_scope,
)

RNG = np.random.default_rng(31)


class TestMakeFleet:
    @pytest.mark.parametrize("packed", ["mmap", "shared"])
    def test_make_fleet_rejects_unknown_store_string(self, packed):
        with pytest.raises(ArrayStateError, match="unknown plane store"):
            make_fleet(1, packed=packed)


class TestSharedStoreLifecycle:
    def test_attach_sees_the_owners_planes(self):
        owner = SharedSegment.create(8 * 100)
        data = RNG.integers(0, 256, 8 * 100).astype(np.uint8)
        owner.view(np.uint8, data.shape)[:] = data
        attached = SharedSegment.attach(owner.name)
        assert not attached.owner
        assert attached.nbytes >= owner.nbytes
        assert np.array_equal(attached.view(np.uint8, data.shape), data)
        # Writes through the attachment are the owner's writes: one
        # allocation, two mappings — the zero-copy property itself.
        attached.view(np.uint8, data.shape)[:] = 255 - data
        assert np.array_equal(owner.view(np.uint8, data.shape), 255 - data)
        attached.close()
        owner.close()

    def test_attach_validates_size_and_existence(self):
        owner = SharedSegment.create(64)
        with pytest.raises(ArrayStateError, match="bytes"):
            SharedSegment.attach(owner.name, 1 << 20)
        name = owner.name
        owner.close()
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(name, 64)

    def test_close_is_idempotent_and_then_loud(self):
        segment = SharedSegment.create(64)
        name = segment.name
        segment.close()
        segment.close()
        with pytest.raises(ArrayStateError, match="closed"):
            segment.view(np.uint8, (64,))
        # An owner's close unlinks the name.
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(name)

    def test_active_ledger_counts_mappings(self):
        before = shared_segment_stats()["active"]
        owner = SharedSegment.create(64)
        attached = SharedSegment.attach(owner.name)
        assert shared_segment_stats()["active"] == before + 1
        attached.close()
        # The owner still maps the segment: closing an attachment must
        # not retire the name from the ledger.
        assert shared_segment_stats()["active"] == before + 1
        owner.close()
        assert shared_segment_stats()["active"] == before

    def test_scope_sweep_unlinks_by_prefix(self):
        segment = SharedSegment.create(64, scope="repro-test-sweep")
        assert segment.name.startswith("repro-test-sweep-")
        segment.close(unlink=False)    # leak it on purpose
        assert unlink_scope("repro-test-sweep") >= 1
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(segment.name)

    def test_stats_check_reports_open_mappings_by_name(self):
        assert shared_segment_stats().check() == []
        segment = SharedSegment.create(64)
        problems = shared_segment_stats().check()
        assert any("still open" in p and segment.name in p
                   for p in problems)
        segment.close()
        assert shared_segment_stats().check() == []

    def test_stats_check_reports_unswept_files(self):
        try:
            segment = SharedSegment.create(64, scope="repro-test-leak")
            name = segment.name
            segment.close(unlink=False)    # leak: linked but unaccounted
            problems = shared_segment_stats().check()
            assert any("leaked" in p and name in p for p in problems)
        finally:
            unlink_scope("repro-test-leak")
        assert shared_segment_stats().check() == []

    def test_invalid_scope_and_size_rejected(self):
        with pytest.raises(ArrayStateError, match="invalid segment scope"):
            SharedSegment.create(64, scope="has/slash")
        with pytest.raises(ArrayStateError, match="at least one byte"):
            SharedSegment.create(0)
