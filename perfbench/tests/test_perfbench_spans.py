"""Tracer tests at tiny sizes: self time, thread attachment, installation."""

import sys
import textwrap
import threading

import pytest

from spans import PARENT, Tracer, union_length


class ScriptedClock:
    """Returns the given readings in order."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def self_time_by_name(tracer):
    return {span[0]: st for span, st in tracer.self_times()}


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(4, 5), (0, 10)]) == 10.0


def test_self_time_is_duration_minus_child_coverage():
    # outer: 0..10; inner calls at 2..5 and 6..7
    tracer = Tracer(clock=ScriptedClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = tracer.wrap(lambda: None, "a.inner", "a")

    def body():
        inner()
        inner()

    tracer.wrap(body, "b.outer", "b")()
    spans = {span[0]: span for span in tracer.spans}
    assert spans["b.outer"][PARENT] is None
    selfs = [st for span, st in tracer.self_times() if span[0] == "a.inner"]
    assert selfs == [3.0, 1.0]
    assert self_time_by_name(tracer)["b.outer"] == 10.0 - 4.0


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    parent = ["p", "x", None, 0.0, 10.0]
    tracer.spans = [["c1", "y", parent, 1.0, 6.0],
                    ["c2", "y", parent, 4.0, 8.0], parent]
    assert self_time_by_name(tracer)["p"] == 10.0 - 7.0
    assert tracer.top_level_coverage([(0.0, 12.0)]) == 10.0


def test_worker_thread_spans_attach_to_submitting_span():
    tracer = Tracer()
    executor = tracer.executor_class()
    work = tracer.wrap(lambda n: n * 2, "vaguelet.work", "vaguelet")

    def command():
        with executor(max_workers=1) as pool:
            return list(pool.map(work, [1, 2]))

    assert tracer.wrap(command, "cli.command", "cli")() == [2, 4]
    cmd = next(s for s in tracer.spans if s[0] == "cli.command")
    workers = [s for s in tracer.spans if s[0] == "vaguelet.work"]
    assert len(workers) == 2
    assert all(s[PARENT] is cmd for s in workers)
    covered = union_length((s[3], s[4]) for s in workers)
    assert self_time_by_name(tracer)["cli.command"] == pytest.approx(
        (cmd[4] - cmd[3]) - covered, abs=1e-12)
    # the pool thread keeps no inherited parent after the task
    assert tracer.current() is None


FAKE_A = '''
from concurrent.futures import ThreadPoolExecutor

def public(x):
    return helper(x) + 1

def helper(x):
    return x * 10

def _private(x):
    return x

class Box:
    def value(self, x):
        return public(x)

    def _hidden(self):
        return 0
'''

FAKE_B = '''
from concurrent.futures import ThreadPoolExecutor
from .a import Box, public

COMMANDS = {"run": public}

def fan_out(xs):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(Box().value, xs))
'''


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent(FAKE_A))
    (pkg / "b.py").write_text(textwrap.dedent(FAKE_B))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.b  # noqa: F401
    yield sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]
    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        sys.modules.pop(name, None)


def test_install_wraps_every_binding(fakepkg):
    a, b = fakepkg
    seen = []
    tracer = Tracer()
    tracer.install("fakepkg", hooks={
        "a.public": lambda t, span, args, kw, res: seen.append(res)})
    assert b.COMMANDS["run"](1) == 11
    assert tracer.wrap(b.fan_out, "b.fan_out_outer", "b")([1, 2]) == [11, 21]
    names = [s[0] for s in tracer.spans]
    assert names.count("a.public") == 3
    assert names.count("a.helper") == 3
    assert names.count("a.Box.value") == 2
    assert "a._private" not in names and "a.Box._hidden" not in names
    assert sorted(seen) == [11, 11, 21]
    outer = next(s for s in tracer.spans if s[0] == "b.fan_out")
    boxes = [s for s in tracer.spans if s[0] == "a.Box.value"]
    assert all(s[PARENT] is outer for s in boxes)


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    seen = []
    work = tracer.wrap(lambda: 1, "a.work", "a",
                       lambda t, span, args, kw, res: seen.append(res))
    with tracer.paused():
        assert work() == 1
    assert tracer.spans == [] and seen == []
    work()
    assert len(tracer.spans) == 1 and seen == [1]


def test_counts_are_thread_safe():
    tracer = Tracer()
    threads = [threading.Thread(target=lambda: [tracer.add("n")
                                                for _ in range(2000)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counts["n"] == 8000


def test_instance_ids_stay_unique_after_objects_are_freed():
    class Thing:
        pass

    tracer = Tracer()
    first = Thing()
    a = tracer.instance_id(first)
    assert tracer.instance_id(first) == a
    del first
    ids = {tracer.instance_id(Thing()) for _ in range(5)}
    assert a not in ids and len(ids) == 5
