"""Tests for the repro.telemetry subsystem: tracer and remarks."""

import json
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    NOOP_SPAN,
    Remark,
    RemarkSink,
    Tracer,
    format_tree,
    to_chrome_trace,
    to_json,
)


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", category="pipeline"):
            with tracer.span("a", category="stage"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b", category="stage"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_durations_are_positive_and_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration
        assert outer.self_time == pytest.approx(
            outer.duration - inner.duration)

    def test_attrs_and_annotate(self):
        tracer = Tracer()
        with tracer.span("s", category="stage", config="ppopt") as span:
            span.annotate(extra=1)
        assert span.attrs == {"config": "ppopt", "extra": 1}
        assert span.category == "stage"

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert [r.name for r in tracer.roots] == ["one", "two"]

    def test_find_and_durations_by_category(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("lift", category="stage"):
                pass
            with tracer.span("opt", category="stage"):
                pass
            with tracer.span("gvn", category="pass"):
                pass
        assert {s.name for s in tracer.find(category="stage")} == {"lift", "opt"}
        assert set(tracer.durations(category="stage")) == {"lift", "opt"}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        errors = []

        def work(tag):
            try:
                with tracer.span(f"outer-{tag}"):
                    with tracer.span(f"inner-{tag}"):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tracer.roots) == 4  # one root per thread
        for root in tracer.roots:
            assert len(root.children) == 1


class TestChromeTraceExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("pipeline", category="pipeline", config="ppopt"):
            with tracer.span("lift", category="stage"):
                pass
        return tracer

    def test_schema(self):
        tracer = self._traced()
        doc = to_chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        for event in spans:
            assert set(event) == {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid", "args"}
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
        # The whole document must be valid JSON.
        json.loads(json.dumps(doc))

    def test_metadata_events_name_process_and_threads(self):
        doc = to_chrome_trace(self._traced())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        by_name = {e["name"]: e for e in meta}
        assert by_name["process_name"]["args"] == {"name": "repro"}
        # The test ran on the main thread, so its span tid is named.
        assert by_name["thread_name"]["args"]["name"] == "main"

    def test_worker_threads_get_stable_labels(self):
        tracer = Tracer()
        def worker():
            with tracer.span("w", category="stage"):
                pass
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        doc = to_chrome_trace(tracer)
        labels = [e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"]
        assert labels == ["worker-1"]

    def test_counter_events_from_metrics(self):
        from repro.profiler.workcounters import WorkCounters

        tracer = self._traced()
        work = WorkCounters()
        work.add("opt", "opt.visits", "main", 7)
        work.add("opt", "opt.visits", "f", 3)
        work.add("place", "place.fences", "main", 2)
        doc = to_chrome_trace(tracer, work=work)
        counters = {e["name"]: e for e in doc["traceEvents"]
                    if e["ph"] == "C"}
        # One event per work counter, summed over stages and functions.
        assert counters["opt.visits"]["args"] == {"value": 10}
        assert counters["place.fences"]["args"] == {"value": 2}
        assert len(counters) == 2
        assert not [e for e in to_chrome_trace(tracer)["traceEvents"]
                    if e["ph"] == "C"]
        json.loads(json.dumps(doc))

    def test_child_nested_within_parent(self):
        doc = to_chrome_trace(self._traced())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        parent, child = by_name["pipeline"], by_name["lift"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        assert parent["args"] == {"config": "ppopt"}

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        tracer.span("never-closed")
        with tracer.span("closed"):
            pass
        # "closed" ends up nested under the open span on this thread's
        # stack, so it is not a root; only complete events are exported.
        names = [e["name"] for e in to_chrome_trace(tracer)["traceEvents"]]
        assert "never-closed" not in names

    def test_tree_and_json_exports(self):
        tracer = self._traced()
        tree = format_tree(tracer.roots)
        assert "pipeline" in tree and "lift" in tree and "ms" in tree
        assert "lift" not in format_tree(tracer.roots, max_depth=0)
        doc = to_json(tracer)
        assert doc[0]["name"] == "pipeline"
        assert doc[0]["children"][0]["name"] == "lift"
        json.loads(json.dumps(doc))


class TestTracerExceptionSafety:
    def test_raise_mid_span_closes_and_annotates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer", category="pipeline"):
                with tracer.span("inner", category="stage"):
                    raise ValueError("boom")
        assert tracer.open_spans() == []
        outer, = tracer.roots
        assert outer.end is not None
        inner, = outer.children
        assert inner.end is not None
        # Both unwound spans carry the exception type.
        assert inner.attrs["error"] == "ValueError"
        assert outer.attrs["error"] == "ValueError"

    def test_tree_survives_mid_span_raise(self):
        tracer = Tracer()
        with tracer.span("root"):
            try:
                with tracer.span("bad"):
                    raise RuntimeError("x")
            except RuntimeError:
                pass
            with tracer.span("good"):
                pass
        root, = tracer.roots
        assert [c.name for c in root.children] == ["bad", "good"]
        assert root.attrs.get("error") is None
        assert tracer.open_spans() == []

    def test_open_spans_reports_live_spans(self):
        tracer = Tracer()
        span = tracer.span("live")
        assert [s.name for s in tracer.open_spans()] == ["live"]
        with span:
            pass
        assert tracer.open_spans() == []

    def test_spans_across_threads_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def worker(name):
            try:
                with tracer.span(name, category="stage"):
                    barrier.wait(timeout=5)
                    with tracer.span(name + "-child"):
                        pass
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert tracer.open_spans() == []
        roots = sorted(r.name for r in tracer.roots)
        assert roots == ["t0", "t1"]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [root.name + "-child"]

    def test_exception_in_threaded_span_does_not_leak(self):
        tracer = Tracer()

        def worker():
            try:
                with tracer.span("doomed"):
                    raise KeyError("k")
            except KeyError:
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert tracer.open_spans() == []
        doomed, = tracer.find("doomed")
        assert doomed.attrs["error"] == "KeyError"

class TestRemarkSink:
    def test_emit_and_select(self):
        sink = RemarkSink()
        sink.emit(Remark("place-fences", "fence-inserted", "msg",
                         function="main", block="entry", instruction="load %p"))
        sink.emit(Remark("merge-fences", "fence-merged", "msg2"))
        assert len(sink.remarks) == 2
        assert [r.kind for r in sink.select(origin="place-fences")] == \
            ["fence-inserted"]
        assert sink.histogram() == {"place-fences:fence-inserted": 1,
                                    "merge-fences:fence-merged": 1}

    def test_format_includes_location(self):
        r = Remark("place-fences", "fence-inserted", "Frm after load",
                   function="main", block="entry", instruction="load %g")
        line = r.format()
        assert line.startswith("remark: main:entry:load %g:")
        assert "[place-fences:fence-inserted]" in line
        assert Remark("o", "k", "m").location == "<module>"

    def test_origin_filter(self):
        sink = RemarkSink(origin_filter="place")
        sink.emit(Remark("place-fences", "fence-inserted", "kept"))
        sink.emit(Remark("merge-fences", "fence-merged", "dropped"))
        assert [r.message for r in sink.remarks] == ["kept"]

    def test_to_dict_roundtrips_json(self):
        r = Remark("o", "k", "m", function="f", args={"n": 3})
        json.loads(json.dumps(r.to_dict()))


class TestSessionFacade:
    def test_disabled_hooks_are_noops(self):
        assert telemetry.current() is None
        assert not telemetry.enabled()
        assert telemetry.span("x") is NOOP_SPAN
        with telemetry.span("x", category="stage") as s:
            assert s is NOOP_SPAN
        telemetry.remark("o", "k", "m")   # must not raise
        assert not telemetry.remarks_enabled()

    def test_session_installs_and_restores(self):
        with telemetry.session() as tel:
            assert telemetry.current() is tel
            with telemetry.span("s", category="stage"):
                telemetry.remark("o", "k", "m")
            assert telemetry.remarks_enabled()
        assert telemetry.current() is None
        assert [r.name for r in tel.tracer.roots] == ["s"]
        assert len(tel.remarks.remarks) == 1

    def test_sessions_nest(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.current() is inner
                telemetry.remark("o", "k", "m")
            assert telemetry.current() is outer
        assert len(inner.remarks.remarks) == 1
        assert outer.remarks.remarks == []

    def test_components_can_be_disabled(self):
        with telemetry.session(trace=False, remarks=False) as tel:
            assert telemetry.span("x") is NOOP_SPAN
            assert not telemetry.remarks_enabled()
            telemetry.remark("o", "k", "m")  # silently dropped
        assert tel.tracer is None and tel.remarks is None

    def test_remark_filter_threaded_through(self):
        with telemetry.session(remark_filter="^place") as tel:
            telemetry.remark("place-fences", "k", "kept")
            telemetry.remark("merge-fences", "k", "dropped")
        assert [r.message for r in tel.remarks.remarks] == ["kept"]
