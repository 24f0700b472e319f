"""Self-test of the owner-attributing tracer on a hand-built event graph.

A fake clock advances only where the graph says work happens, so every
layer's self time is known exactly. The graph exercises each unwrapping
rule: a partial of a bound method, the ``_invoke`` trampoline, and
``MemoryRequest.fire_completion`` running the LLC fill synchronously.
"""

import types
from functools import partial

import pytest

import repro.dram.request
import repro.mechanisms.base
import repro.utils.events
from tracer import LAYERS, Tracer, layer_of


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


DRAM_SRC = '''
class Controller:
    def __init__(self, queue):
        self.queue = queue

    def enqueue_read(self, request):
        CLOCK.advance(2.0)
        self.queue.schedule(10, request.fire_completion)
'''

MECH_SRC = '''
from functools import partial

class Mechanism:
    def __init__(self, queue, memory):
        self.queue = queue
        self.memory = memory

    def read(self, addr, on_data):
        CLOCK.advance(3.0)
        self.memory.enqueue_read(
            MemoryRequest(block_addr=addr, is_write=False,
                          on_complete=partial(self._fill, on_data))
        )

    def _fill(self, on_data, request):
        CLOCK.advance(7.0)
        self.queue.schedule(20, partial(_invoke, on_data, request.block_addr))
'''

HIER_SRC = '''
from functools import partial

class Hierarchy:
    def __init__(self, mechanism):
        self.mechanism = mechanism

    def start(self):
        CLOCK.advance(1.0)
        self.mechanism.read(5, partial(self._data, 0))

    def _data(self, core_id, addr):
        CLOCK.advance(4.0)
'''


def fake_module(name, source, clock, **names):
    module = types.ModuleType(name)
    module.__file__ = f"<{name}>"
    module.__dict__.update(names, CLOCK=clock)
    exec(compile(source, module.__file__, "exec"), module.__dict__)
    return module


@pytest.fixture
def graph():
    clock = FakeClock()
    dram = fake_module("repro.dram.fake", DRAM_SRC, clock)
    mech = fake_module(
        "repro.mechanisms.fake", MECH_SRC, clock,
        MemoryRequest=repro.dram.request.MemoryRequest,
        _invoke=repro.mechanisms.base._invoke,
    )
    hier = fake_module("repro.sim.hierarchy.fake", HIER_SRC, clock)
    tracer = Tracer(clock=clock)
    tracer.install(
        [repro.utils.events, repro.mechanisms.base, repro.dram.request,
         dram, mech, hier]
    )
    # The fake mechanism bound `_invoke` before install; rebind it like the
    # install does for real `from x import f` copies.
    mech._invoke = repro.mechanisms.base._invoke
    try:
        yield clock, tracer, dram, mech, hier
    finally:
        tracer.uninstall()


def test_self_times_of_a_known_graph(graph):
    clock, tracer, dram, mech, hier = graph
    tracer.start()
    clock.advance(5.0)  # benchmark code outside every layer
    queue = repro.utils.events.EventQueue()
    hierarchy = hier.Hierarchy(mech.Mechanism(queue, dram.Controller(queue)))
    queue.schedule(0, hierarchy.start)
    queue.run()
    wall = tracer.stop()

    expected = dict.fromkeys(LAYERS, 0.0)
    expected.update(
        unattributed=5.0, hierarchy=1.0 + 4.0, mechanism=3.0 + 7.0, dram=2.0
    )
    assert tracer.self_s == expected
    assert wall == 22.0 == sum(tracer.self_s.values())
    assert tracer.counts["kernel.events"] == 3
    assert tracer.counts["dram.completions"] == 1
    assert tracer.counts["kernel.scheduled"] == 3


def test_event_owner_unwraps_partials_trampolines_and_completions(graph):
    clock, tracer, dram, mech, hier = graph
    queue = repro.utils.events.EventQueue()
    mechanism = mech.Mechanism(queue, dram.Controller(queue))
    hierarchy = hier.Hierarchy(mechanism)
    on_data = partial(hierarchy._data, 0)
    request = repro.dram.request.MemoryRequest(
        block_addr=1, is_write=False, on_complete=partial(mechanism._fill, on_data)
    )
    assert tracer.owner(hierarchy.start) == ("hierarchy", False)
    assert tracer.owner(partial(repro.mechanisms.base._invoke, on_data, 1)) == (
        "hierarchy", False,
    )
    assert tracer.owner(request.fire_completion) == ("mechanism", False)
    assert tracer.owner(lambda: None) == ("unattributed", False)


def test_events_queue_gets_the_hook_and_uninstall_restores():
    original_schedule = repro.utils.events.EventQueue.schedule
    original_invoke = repro.mechanisms.base._invoke
    tracer = Tracer()
    tracer.install([repro.utils.events, repro.mechanisms.base])
    try:
        assert repro.utils.events.EventQueue().profiler == tracer.dispatch
        assert repro.utils.events.EventQueue.schedule is not original_schedule
    finally:
        tracer.uninstall()
    assert repro.utils.events.EventQueue.schedule is original_schedule
    assert repro.mechanisms.base._invoke is original_invoke
    assert repro.utils.events.EventQueue().profiler is None


def test_layer_of_matches_whole_module_names():
    assert layer_of("repro.dram.controller") == "dram"
    assert layer_of("repro.dramcache.level") == "dramcache"
    assert layer_of("repro.cache.port") == "port"
    assert layer_of("repro.cache.cache") == "cache"
    assert layer_of("repro.sim.system") is None
