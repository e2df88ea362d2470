"""Self-tests of the census benchmark, on small inputs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from piclass import catalog  # noqa: E402


def _span(name, start, end, parent):
    return [name, "layer", start, end, parent, "", None]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),   # overlaps a: union of a and b is [1, 6]
        _span("c", 8.0, 9.0, 0),
        _span("d", 2.0, 3.0, 1),   # grandchild: covered by a, not counted for root
    ]
    selfs = tr.self_times(spans)
    assert selfs == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 1.0]


def test_self_times_of_a_traced_campaign_add_up_to_its_duration():
    wl.WORKLOADS["tiny"] = ({"max_order": 12}, ["main", "quotient"])
    try:
        tracer = tr.Tracer(workload="tiny")
        with tracer:
            entries = wl.make_groups("tiny", 1)
            root = tracer.open("campaign", "suite")
            wl.run_campaign("tiny", entries)
            tracer.close(root)
    finally:
        del wl.WORKLOADS["tiny"]
    metrics = tr.aggregate(tracer, root)
    assert abs(metrics["trace.layer_self_sum_s"] - metrics["trace.campaign_s"]) < 1e-9
    assert metrics["group.chain_builds"] == sum(
        metrics[f"group.chain_builds.{p}"] for p in tr.CHAIN_PARENT_NAMES)
    assert metrics["subgroups.quotients"] > 0 and metrics["perm.mul_calls"] > 0

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = dict(metrics, **{"trace.overhead_ratio": 1.0})
    assert declared == {name: run.per_layer_unit(name) for name in emitted}


def test_declared_workloads_and_end_to_end_metrics_match_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


def test_scaling_maps_a_slower_host_back_to_nominal_seconds():
    nominal = hostspeed.NOMINAL_ROUND_S
    assert hostspeed.scaled(2.0, nominal) == 2.0
    assert abs(hostspeed.scaled(2.0, 2 * nominal) - 1.0) < 1e-12
    assert 0 < hostspeed.rounds_around(0.25, hostspeed.reference_round()) < 1.0


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "piclass" or name.startswith("piclass."))
            for attr, value in vars(mod).items()}


def test_every_module_binding_is_patched_and_restored():
    import piclass.suite as suite
    import piclass.subgroups as subgroups

    before = _bindings()
    registry_before = dict(suite.SUITES)
    originals = {name: getattr(sys.modules[f"piclass.{layer}"], name)
                 for layer, names in tr.SPAN_FUNCTIONS.items() for name in names}
    tracer = tr.Tracer()
    with tracer:
        after = _bindings()
        for name, fn in originals.items():
            assert all(value is not fn for value in after.values()), name
        assert suite.normal_subgroups is subgroups.normal_subgroups
        assert suite.normal_subgroups.__wrapped__ is originals["normal_subgroups"]
        assert all(hasattr(entry[1], "__wrapped__") for entry in suite.SUITES.values())
    assert _bindings().keys() == before.keys()
    assert all(value is before[key] for key, value in _bindings().items())
    assert all(suite.SUITES[k] is v for k, v in registry_before.items())
    assert not hasattr(catalog.PermGroup._build_chain, "__wrapped__")
    assert not hasattr(catalog.Permutation.__mul__, "__wrapped__")


def test_seed_zero_is_the_identity_relabelling():
    config = wl.config_for("quotient")
    specs = catalog.census_specs(config.census_ranges())
    for (name, group), spec in zip(wl.make_groups("quotient", 0), specs):
        assert name == spec.name
        assert wl.relabelling(group.degree, 0, name) == list(range(group.degree))
        assert group.generators == catalog.build(spec).generators


def test_other_seeds_conjugate_the_generators():
    spec = catalog.parse_name("S4 x C3")
    group = catalog.build(spec)
    sigma = wl.relabelling(group.degree, 7, spec.name)
    assert sorted(sigma) == list(range(group.degree)) and sigma != list(range(group.degree))
    moved = wl.relabel(group, sigma)
    for g, h in zip(group.generators, moved.generators):
        assert all(h.images[sigma[x]] == sigma[g.images[x]] for x in range(group.degree))
    assert moved.order == group.order
    assert wl.relabelling(group.degree, 7, spec.name) == sigma


def test_check_report_counts_each_changed_verdict():
    wl.WORKLOADS["tiny"] = ({"max_order": 8}, ["cap"])
    try:
        text = wl.run_campaign("tiny", wl.make_groups("tiny", 0))
    finally:
        del wl.WORKLOADS["tiny"]
    rows = wl.invariant_rows(text)
    expected = {"verdicts": rows, "seed0_sha256": wl.sha256(text)}
    assert wl.check_report(text, expected, 0) == (len(rows), 0)
    changed = [dict(rows[0], d_pi="0/1")] + rows[1:]
    assert wl.check_report(text, dict(expected, verdicts=changed), 5) == (len(rows), 1)
    assert wl.check_report(text, dict(expected, seed0_sha256="0"), 0) == (len(rows), len(rows))
