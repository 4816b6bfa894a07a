import importlib
import sys

import pytest

from perfbench import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(spans, name):
    return [s for s in spans if s[1] == name]


def test_nested_self_times_add_up_to_the_root():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    tracer.pass_id = 1

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    traced_leaf = tracer.timed("memory.fork", leaf)
    traced_middle = tracer.timed("libc.fork", middle)
    root = tracer.open(layers.PASS_SPAN)
    clock.now += 0.25
    traced_middle()
    clock.now += 0.25
    tracer.close(root)

    table = layers.layer_table(layers.pass_spans(tracer.spans, 1))
    assert table["memory.fork"] == {"count": 2, "inclusive_s": 4.0, "self_s": 4.0}
    assert table["libc.fork"]["inclusive_s"] == 5.5
    assert table["libc.fork"]["self_s"] == 1.5
    assert table[layers.PASS_SPAN]["self_s"] == 0.5
    total = sum(row["self_s"] for row in table.values())
    assert total == table[layers.PASS_SPAN]["inclusive_s"] == 6.0


def test_same_name_nesting_is_folded_not_double_counted():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def inner():
        clock.now += 1.0

    traced_inner = tracer.timed("injector.plan", inner)

    def outer():
        traced_inner()
        clock.now += 1.0

    traced_outer = tracer.timed("injector.plan", outer, count="injector.plan_compiles")
    traced_outer()
    assert len(_span(tracer.spans, "injector.plan")) == 1
    assert tracer.counts["injector.plan_compiles"] == 1
    table = layers.layer_table(tracer.spans)
    assert table["injector.plan"]["self_s"] == 2.0


def test_overlapping_children_count_once():
    spans = [
        (1, "service.handler.harden", 0.0, 10.0, 0, 1),
        (2, "injector.run", 1.0, 6.0, 1, 1),
        (3, "injector.run", 4.0, 8.0, 1, 1),  # a second worker thread
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(3.0)  # 10 - union(1..8)
    assert layers.covered_seconds([(1.0, 6.0), (4.0, 8.0), (9.0, 9.5)]) == pytest.approx(7.5)


def test_reparent_by_time_picks_innermost_containing_host():
    client = (1, "service.client.declaration", 0.0, 10.0, 99, 1)
    handler = (2, "service.handler.declaration", 1.0, 9.0, 0, 0)
    worker = (3, "campaign.decode", 2.0, 3.0, 0, 0)
    stray = (4, "campaign.decode", 20.0, 21.0, 0, 0)
    out = layers.reparent_by_time([client, handler, worker, stray], [client, handler])
    parents = {s[0]: s[4] for s in out}
    assert parents == {1: 99, 2: 1, 3: 2, 4: 0}


def _targets():
    """Identity of every attribute the tracer patches."""
    from repro.libc.catalog import CATALOG
    from repro.service import handlers

    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                found[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, member in vars(value).items():
                        found[(name, attr, key)] = member
    for spec in CATALOG:
        found[("spec", spec.name)] = spec.model
    for op, handler in handlers.HANDLERS.items():
        found[("handler", op)] = handler
    return found


def test_install_patches_and_uninstall_restores_every_original():
    importlib.import_module("repro.cli")
    before = _targets()
    tracer = layers.Tracer().install()
    during = _targets()
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) > 40
    tracer.uninstall()
    after = _targets()
    assert [key for key in before if after.get(key) is not before[key]] == []
    assert not tracer.installed


def test_untraced_workload_code_installs_no_wrappers():
    before = _targets()
    for module in ("perfbench.workloads", "perfbench.service", "perfbench.child", "perfbench.run"):
        importlib.import_module(module)
    after = _targets()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_traced_calls_record_results_and_counts():
    from repro.core.pipeline import HealersPipeline

    tracer = layers.Tracer().install()
    tracer.pass_id = 1
    try:
        root = tracer.open(layers.PASS_SPAN)
        HealersPipeline(functions=["strlen"]).run()
        tracer.close(root)
    finally:
        tracer.uninstall()
    table = layers.layer_table(layers.pass_spans(tracer.spans, 1))
    counts = layers.report_counts(tracer)
    metrics = layers.layer_metrics(table, counts)
    assert metrics["injector.functions"] == 1
    assert metrics["injector.vectors"] > 0
    assert metrics["sandbox.calls"] > 0
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table[layers.PASS_SPAN]["inclusive_s"], abs=1e-9)
    assert set(metrics) <= set(layers.PER_LAYER)
