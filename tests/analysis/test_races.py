"""RC100: trigger/suppress pairs for the flow-sensitive race detector."""

import textwrap

import pytest

from repro.analysis_checks import Severity
from repro.analysis_checks.index import ProjectIndex
from repro.analysis_checks.races import check_races

HEADER = """\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}
        self._hits = 0

    def put(self, key, value):
        with self._lock:
            self._items[key] = value
            self._hits += 1
"""


def rc100(tmp_path, body="", source=None):
    """Run RC100 over the Store class extended with ``body`` methods."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    if source is None:
        source = HEADER + "\n" + textwrap.indent(
            textwrap.dedent(body), "    ")
    else:
        source = textwrap.dedent(source)
    (root / "mod.py").write_text(source)
    index = ProjectIndex.build([root])
    return check_races(index)


class TestUnlockedReads:
    def test_public_unlocked_read_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            def hits(self):
                return self._hits
            """)
        (finding,) = findings
        assert finding.rule == "RC100"
        assert finding.severity is Severity.ERROR
        assert "Store.hits() reads self._hits" in finding.message

    def test_locked_read_is_clean(self, tmp_path):
        findings = rc100(tmp_path, """\
            def hits(self):
                with self._lock:
                    return self._hits
            """)
        assert findings == []

    def test_property_read_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            @property
            def ratio(self):
                return self._hits / max(len(self._items), 1)
            """)
        assert len(findings) == 2    # _hits and _items, same line

    def test_init_reads_and_writes_exempt(self, tmp_path):
        findings = rc100(tmp_path, "")
        assert findings == []


class TestHelperReachability:
    def test_helper_called_only_under_lock_is_clean(self, tmp_path):
        findings = rc100(tmp_path, """\
            def snapshot(self):
                with self._lock:
                    return self._render()

            def _render(self):
                return dict(self._items)
            """)
        assert findings == []

    def test_helper_reachable_unlocked_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            def snapshot(self):
                return self._render()

            def _render(self):
                return dict(self._items)
            """)
        (finding,) = findings
        assert "Store._render() reads self._items" in finding.message

    def test_escaped_helper_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            def start(self):
                threading.Thread(target=self._drain).start()

            def _drain(self):
                self._items.clear()
            """)
        (finding,) = findings
        assert "Store._drain() mutates self._items" in finding.message

    def test_unlocked_write_flagged_as_write(self, tmp_path):
        findings = rc100(tmp_path, """\
            def reset(self):
                self._hits = 0
            """)
        (finding,) = findings
        assert "writes self._hits" in finding.message

    def test_transitive_helper_chain_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            def outer(self):
                return self._mid()

            def _mid(self):
                return self._leaf()

            def _leaf(self):
                return self._hits
            """)
        (finding,) = findings
        assert "Store._leaf() reads self._hits" in finding.message


class TestAtomicFieldExemption:
    def test_queue_field_read_unlocked_is_clean(self, tmp_path):
        # a field only ever assigned an internally-synchronised type is
        # a stable handle: lock-free reads are the whole point of it
        findings = rc100(tmp_path, source="""\
            import queue
            import threading


            class Dispatcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue(64)
                    self._pending = {}

                def reset(self):
                    with self._lock:
                        self._queue = queue.Queue(64)
                        self._pending = {}

                def depth(self):
                    return self._queue.qsize()
            """)
        assert findings == []

    def test_reassigned_to_plain_value_revokes_exemption(self, tmp_path):
        findings = rc100(tmp_path, source="""\
            import queue
            import threading


            class Dispatcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue(64)

                def reset(self):
                    with self._lock:
                        self._queue = None      # no longer a stable handle

                def depth(self):
                    return self._queue.qsize()
            """)
        (finding,) = findings
        assert "Dispatcher.depth() reads self._queue" in finding.message

    def test_event_and_metrics_registry_are_atomic(self, tmp_path):
        findings = rc100(tmp_path, source="""\
            import threading

            from repro.service.metrics import MetricsRegistry


            class Frontend:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stop = threading.Event()
                    self._metrics = MetricsRegistry()
                    self._state = "idle"

                def configure(self, state):
                    with self._lock:
                        self._stop = threading.Event()
                        self._metrics = MetricsRegistry()
                        self._state = state

                def shed(self):
                    self._metrics.increment("shed_total")
                    return self._stop.is_set()
            """)
        assert findings == []

    def test_annotated_atomic_assignment_counts(self, tmp_path):
        findings = rc100(tmp_path, source="""\
            import queue
            import threading


            class Dispatcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue: "queue.Queue" = queue.Queue()

                def refresh(self):
                    with self._lock:
                        self._queue = queue.Queue()

                def depth(self):
                    return self._queue.qsize()
            """)
        assert findings == []

    def test_augmented_assignment_disqualifies(self, tmp_path):
        # += rebinding means the field is state, not a handle
        findings = rc100(tmp_path, source="""\
            import collections
            import threading


            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._window = collections.deque()

                def extend(self, items):
                    with self._lock:
                        self._window += items

                def peek(self):
                    return list(self._window)
            """)
        (finding,) = findings
        assert "Tally.peek() reads self._window" in finding.message


class TestCoverage:
    def test_lockless_class_not_covered(self, tmp_path):
        findings = rc100(tmp_path, source="""\
            class Plain:
                def __init__(self):
                    self._items = {}

                def put(self, key, value):
                    self._items[key] = value
            """)
        assert findings == []

    def test_lock_without_locked_writes_still_guards(self, tmp_path):
        # the class owns a lock but never takes it: every private field
        # a method other than __init__ writes is still lock-guarded
        findings = rc100(tmp_path, source="""\
            import threading


            class Sloppy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    self._items[key] = value
            """)
        (finding,) = findings
        assert "Sloppy.put() writes self._items" in finding.message
        assert finding.line == 10

    def test_fields_only_init_assigns_are_unguarded(self, tmp_path):
        # written once before publication, then only read: no lock needed
        findings = rc100(tmp_path, source="""\
            import threading


            class Config:
                def __init__(self, path):
                    self._lock = threading.Lock()
                    self._path = path
                    self._hits = 0

                def path(self):
                    return self._path

                def bump(self):
                    with self._lock:
                        self._hits += 1
            """)
        assert findings == []

    def test_unlocked_delete_flagged(self, tmp_path):
        findings = rc100(tmp_path, """\
            def drop(self, key):
                del self._items[key]
            """)
        (finding,) = findings
        assert "Store.drop() writes self._items" in finding.message

    def test_write_outside_init_guards_a_field_read_unlocked(self,
                                                             tmp_path):
        # a lifecycle thread field: start() rebinds a field that
        # stop() reads, neither under the lock
        findings = rc100(tmp_path, """\
            def start(self):
                self._worker = threading.Thread(target=print)

            def stop(self):
                return self._worker
            """)
        assert {f.message.split(" outside")[0] for f in findings} == {
            "Store.start() writes self._worker",
            "Store.stop() reads self._worker"}

    def test_noqa_suppresses(self, tmp_path):
        findings = rc100(tmp_path, """\
            def hits(self):
                return self._hits  # repro: noqa[RC100] monotone counter
            """)
        assert findings == []


class TestRealTree:
    @pytest.fixture(scope="class")
    def real(self):
        from pathlib import Path

        import repro
        index = ProjectIndex.build([Path(repro.__file__).parent])
        return check_races(index)

    def test_repo_tree_is_race_clean(self, real):
        assert real == []
