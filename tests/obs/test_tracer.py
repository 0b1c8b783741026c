"""Tests for span identity, nesting, the ring tracer and activation."""

import json
import threading
import time

import pytest

from repro.obs.context import (
    current_context,
    new_request_id,
    sanitize_request_id,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Tracer,
    build_trees,
    get_tracer,
    span,
    thread_tracer,
    use_tracer,
)


class TestIdentity:
    def test_request_ids_are_unique_and_sortable(self):
        ids = [new_request_id() for _ in range(64)]
        assert len(set(ids)) == 64
        assert all(i.startswith("req-") for i in ids)
        # The millisecond prefix orders ids across ms boundaries.
        earlier = new_request_id()
        time.sleep(0.002)
        assert earlier < new_request_id()

    def test_sanitize_accepts_reasonable_ids(self):
        assert sanitize_request_id("req-1.2:3_x-Y") == "req-1.2:3_x-Y"
        assert sanitize_request_id(new_request_id())

    @pytest.mark.parametrize(
        "bad",
        [None, "", "has space", "bad\r\nheader", "x" * 129, "emoji☃"],
    )
    def test_sanitize_rejects_unusable_ids(self, bad):
        assert sanitize_request_id(bad) == ""


class TestActivation:
    def test_default_tracer_is_null_and_inert(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled
        with span("anything", attr=1) as sp:
            assert sp.context is None
            assert current_context() is None
        assert len(NULL_TRACER) == 0

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with span("op"):
                pass
        assert get_tracer() is NULL_TRACER
        assert [s.name for s in tracer.spans()] == ["op"]

    def test_nested_use_tracer_restores_the_outer(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER

    def test_thread_tracer_overrides_current_thread_only(self):
        shared = Tracer()
        private = Tracer()
        seen = {}

        def other_thread():
            seen["tracer"] = get_tracer()

        with use_tracer(shared):
            with thread_tracer(private):
                assert get_tracer() is private
                t = threading.Thread(target=other_thread)
                t.start()
                t.join()
            assert get_tracer() is shared
        assert seen["tracer"] is shared


class TestSpanNesting:
    def test_child_inherits_trace_and_parents_onto_enclosing(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("parent") as outer:
                outer_ctx = outer.context
                with span("child") as inner:
                    assert inner.context.trace_id == outer_ctx.trace_id
            assert current_context() is None
        parent, child = {s.name: s for s in tracer.spans()}["parent"], {
            s.name: s for s in tracer.spans()
        }["child"]
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        assert parent.trace_id.startswith("req-")
        assert parent.elapsed_s >= child.elapsed_s >= 0.0

    def test_explicit_reattachment_crosses_boundaries(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("remote", trace_id="req-abc", parent_id="feedbeef"):
                pass
        (s,) = tracer.spans()
        assert s.trace_id == "req-abc"
        assert s.parent_id == "feedbeef"

    def test_attrs_from_kwargs_and_set(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("op", digest="d1") as sp:
                sp.set(hit=True)
        (s,) = tracer.spans()
        assert s.attrs == {"digest": "d1", "hit": True}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(KeyError):
                with span("boom"):
                    raise KeyError("x")
            assert current_context() is None
        (s,) = tracer.spans()
        assert s.attrs["error"] == "KeyError"


class TestTracerRing:
    def test_ring_keeps_newest_and_counts_drops(self):
        tracer = Tracer(capacity=2)
        with use_tracer(tracer):
            for name in ("a", "b", "c"):
                with span(name):
                    pass
        assert [s.name for s in tracer.spans()] == ["b", "c"]
        assert tracer.dropped == 1
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_jsonl_log_mirrors_ring(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        tracer = Tracer(log_path=log)
        try:
            with use_tracer(tracer):
                with span("logged", digest="d"):
                    pass
        finally:
            tracer.close()
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["name"] == "logged"
        assert Span.from_dict(doc) == tracer.spans()[0]

    def test_ingest_repatriates_worker_documents(self):
        worker = Tracer()
        with use_tracer(worker):
            with span("exec.task"):
                with span("simulate"):
                    pass
        parent = Tracer()
        assert parent.ingest(s.as_dict() for s in worker.spans()) == 2
        assert [s.name for s in parent.spans()] == ["simulate", "exec.task"]
        assert parent.spans() == worker.spans()


class TestBuildTrees:
    def test_nested_forest(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("root1"):
                with span("kid"):
                    pass
            with span("root2"):
                pass
        trees = build_trees(tracer.spans())
        assert [t["span"].name for t in trees] == ["root1", "root2"]
        assert [c["span"].name for c in trees[0]["children"]] == ["kid"]
        assert trees[1]["children"] == []

    def test_orphans_become_roots(self):
        s = Span("lost", "req-1", "aa", "absent-parent", 1.0, 0.5)
        (root,) = build_trees([s])
        assert root["span"] is s and root["children"] == []
