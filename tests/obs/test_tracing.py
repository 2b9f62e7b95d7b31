"""Unit tests of structured tracing: spans, captures, and the no-op path."""

from __future__ import annotations

import threading

import pytest

from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    SpanRecorder,
    capture,
    current_span,
    disable_tracing,
    enable_tracing,
    enabled,
    render_tree,
    trace_span,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing globally off."""
    disable_tracing()
    yield
    disable_tracing()


class TestNoopPath:
    def test_disabled_returns_singleton(self):
        assert trace_span("x") is NOOP_SPAN
        assert current_span() is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with trace_span("x", a=1) as span:
            span.set("k", "v")
        assert span is NOOP_SPAN
        assert span.find("x") is None
        assert list(span.walk()) == []


class TestSpans:
    def test_nesting_and_recording(self):
        recorder = enable_tracing(SpanRecorder())
        with trace_span("root", kind="test") as root:
            with trace_span("child") as child:
                with trace_span("grandchild"):
                    pass
        assert root.children == [child]
        assert len(child.children) == 1
        assert root.duration is not None
        assert child.duration <= root.duration
        assert recorder.spans() == [root]

    def test_only_roots_are_recorded(self):
        recorder = enable_tracing(SpanRecorder())
        with trace_span("root"):
            with trace_span("child"):
                pass
        assert len(recorder) == 1
        assert recorder.latest().name == "root"

    def test_exception_tags_error_and_unwinds_stack(self):
        enable_tracing(SpanRecorder())
        with pytest.raises(RuntimeError):
            with trace_span("root") as root:
                with trace_span("child") as child:
                    raise RuntimeError("boom")
        assert child.attrs["error"] == "RuntimeError"
        assert root.attrs["error"] == "RuntimeError"
        assert current_span() is NOOP_SPAN  # stack fully unwound

    def test_walk_and_find(self):
        with capture():
            with trace_span("a") as a:
                with trace_span("b"):
                    with trace_span("c"):
                        pass
        assert [span.name for span in a.walk()] == ["a", "b", "c"]
        assert a.find("c").name == "c"
        assert a.find("missing") is None


class TestRecorder:
    def test_ring_buffer_evicts_oldest(self):
        recorder = SpanRecorder(capacity=2)
        for index in range(4):
            recorder.push(Span(f"s{index}"))
        assert [span.name for span in recorder.spans()] == ["s2", "s3"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_clear(self):
        recorder = SpanRecorder()
        recorder.push(Span("s"))
        recorder.clear()
        assert recorder.latest() is None
        assert len(recorder) == 0


class TestCapture:
    def test_capture_restores_global_state(self):
        assert not enabled()
        with capture() as recorder:
            assert enabled()
            with trace_span("inside"):
                pass
        assert not enabled()
        assert recorder.latest().name == "inside"

    def test_capture_isolates_thread_stack(self):
        enable_tracing(SpanRecorder())
        with trace_span("outer"):
            with capture() as inner_recorder:
                assert current_span() is NOOP_SPAN  # fresh stack inside
                with trace_span("inner"):
                    pass
            assert current_span().name == "outer"  # stack restored
        assert inner_recorder.latest().name == "inner"

    def test_overlapping_captures_on_two_threads_restore_in_any_order(self):
        """Capture A exits while B is still open: B keeps tracing, and the
        state the first capture found comes back only when B exits too."""
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with capture() as recorder:
                a_open.set()
                b_open.wait(5)
                with trace_span("a-root"):
                    pass
            seen["a"] = recorder
            a_closed.set()

        def second():
            a_open.wait(5)
            with capture() as recorder:
                b_open.set()
                a_closed.wait(5)
                seen["enabled-after-a"] = enabled()
                with trace_span("b-root"):
                    pass
            seen["b"] = recorder

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen["enabled-after-a"]
        assert [span.name for span in seen["a"].spans()] == ["a-root"]
        # A root finished while both captures were open reaches both.
        assert [span.name for span in seen["b"].spans()] == ["a-root", "b-root"]
        assert not enabled()
        assert trace_span("after") is NOOP_SPAN


def test_spans_on_other_threads_record_independently():
    recorder = enable_tracing(SpanRecorder())
    try:
        def work():
            with trace_span("thread-root"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        with trace_span("main-root"):
            pass
        names = sorted(span.name for span in recorder.spans())
        assert names == ["main-root", "thread-root"]
    finally:
        disable_tracing()


def test_render_tree_shows_timings_and_attrs():
    with capture():
        with trace_span("root", queries=3) as root:
            with trace_span("child"):
                pass
    text = render_tree(root)
    lines = text.splitlines()
    assert lines[0].startswith("root")
    assert "[queries=3]" in lines[0]
    assert lines[1].startswith("  child")
    assert "ms" in lines[0]
