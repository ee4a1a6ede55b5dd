import threading

from erbench.spans import (
    END, LAYER, OP, PARENT, START, SpanRecorder, layer_self_seconds, name_seconds, self_times,
)  # fmt: skip


def test_self_time_is_duration_minus_direct_children():
    # root [0, 100) with children [10, 30) and [40, 90); the second has a
    # grandchild [50, 60) that must not be subtracted from the root twice
    spans = [
        ["harness", "op", 0, 100, -1, 0],
        ["erql", "parse", 10, 30, 0, 0],
        ["relational", "execute", 40, 90, 0, 0],
        ["reliability", "fs.write", 50, 60, 2, 0],
    ]
    assert self_times(spans) == [30, 20, 40, 10]
    assert sum(self_times(spans)) == 100
    by_layer = layer_self_seconds(spans)
    assert by_layer == {"harness": 30e-9, "erql": 20e-9, "relational": 40e-9, "reliability": 10e-9}
    assert name_seconds(spans, "relational", "execute") == 50e-9


def test_recorder_nests_and_shares_the_op_identifier():
    recorder = SpanRecorder()
    with recorder.span("harness", "op"):
        with recorder.span("erql", "parse"):
            pass
        with recorder.span("relational", "execute"):
            with recorder.span("reliability", "fs.write"):
                pass
    with recorder.span("harness", "op"):
        pass
    parents = [span[PARENT] for span in recorder.spans]
    assert parents == [-1, 0, 0, 2, -1]
    assert [span[OP] for span in recorder.spans] == [0, 0, 0, 0, 4]
    assert all(span[END] >= span[START] for span in recorder.spans)
    root = recorder.spans[0]
    children = [s for s in recorder.spans if s[PARENT] == 0]
    assert all(root[START] <= c[START] and c[END] <= root[END] for c in children)
    assert all(own >= 0 for own in self_times(recorder.spans))


def test_threads_keep_their_own_stacks():
    recorder = SpanRecorder()
    ready = threading.Barrier(2, timeout=10)

    def work(layer):
        for _ in range(200):
            with recorder.span(layer, "outer"):
                ready.wait()
                with recorder.span(layer, "inner"):
                    pass

    threads = [threading.Thread(target=work, args=(layer,)) for layer in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    spans = recorder.spans
    assert len(spans) == 800
    for span in spans:
        if span[PARENT] >= 0:
            assert spans[span[PARENT]][LAYER] == span[LAYER], "a span nested under another thread's"
