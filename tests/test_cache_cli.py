import json
import os

import pytest
from click.testing import CliRunner

from piclass.cache import InvariantCache, entry_key, group_key
from piclass.catalog import build, parse_name, serialize_group_file
from piclass.cli import main
from piclass.config import Config
from piclass.suite import check_quotient_bound, write_counterexample_bundle


@pytest.fixture
def runner():
    return CliRunner()


# -- cache ------------------------------------------------------------------


def test_cache_put_get_identical(tmp_path):
    store = InvariantCache(str(tmp_path))
    store.put("k1", {"a": 1, "b": [1, 2, 3]})
    assert store.get("k1") == {"a": 1, "b": [1, 2, 3]}


def test_cache_miss(tmp_path):
    assert InvariantCache(str(tmp_path)).get("nope") is None


def test_cache_version_bump_invalidates(tmp_path, monkeypatch):
    store = InvariantCache(str(tmp_path))
    store.put("k1", {"a": 1})
    monkeypatch.setattr("piclass.cache.__version__", "999.0.0")
    assert store.get("k1") is None


def test_cache_corruption_is_a_miss(tmp_path):
    store = InvariantCache(str(tmp_path))
    store.put("k1", {"a": 1})
    path = store._path("k1")
    entry = json.load(open(path))
    entry["value"]["a"] = 2  # value no longer matches checksum
    json.dump(entry, open(path, "w"))
    assert store.get("k1") is None
    open(store._path("k2"), "w").write("not json at all")
    assert store.get("k2") is None
    open(store._path("k3"), "wb").write(b"\xff\xfe")  # not UTF-8
    assert store.get("k3") is None
    for key, text in (("k4", "[1]"), ("k5", "5"), ("k6", '"x"')):  # JSON, not an object
        open(store._path(key), "w").write(text)
        assert store.get(key) is None, text
    os.mkdir(store._path("sub"))  # a directory named like an entry is no entry
    assert store.keys() == ["k1", "k2", "k3", "k4", "k5", "k6"]
    assert store.clear() == 6
    assert store.keys() == []
    assert os.path.isdir(store._path("sub"))


def test_cache_clear_and_keys(tmp_path):
    store = InvariantCache(str(tmp_path))
    store.put("a", 1)
    store.put("b", 2)
    assert store.keys() == ["a", "b"]
    assert store.clear() == 2
    assert store.keys() == []


def test_group_key_generator_order_independent(named):
    g = named("S4")
    reversed_gens = build(parse_name("S4"))
    from piclass.group import PermGroup

    flipped = PermGroup(list(reversed(g.generators)))
    assert group_key(g) == group_key(flipped)
    assert entry_key(g, "analysis", {"pi": [[2]]}) == entry_key(flipped, "analysis", {"pi": [[2]]})
    assert entry_key(g, "analysis", {"pi": [[2]]}) != entry_key(g, "analysis", {"pi": [[3]]})


# -- cli ----------------------------------------------------------------------


def test_analyze_known_tight_value(runner):
    result = runner.invoke(main, ["analyze", "D8 x C3", "--pi", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["profiles"] == [
        {"group": "D8 x C3", "pi": [2], "k_pi": 5, "order_pi": 8, "d_pi": "5/8"}]
    assert doc["schema_version"] == 1


def test_analyze_a5(runner):
    result = runner.invoke(main, ["analyze", "A5", "--pi", "3"])
    doc = json.loads(result.output)
    assert doc["profiles"][0]["d_pi"] == "2/3"


def test_analyze_trivial_group(runner):
    result = runner.invoke(main, ["analyze", "C1", "--pi", "2"])
    doc = json.loads(result.output)
    assert doc["profiles"][0]["d_pi"] == "1/1"


def test_analyze_rationals_never_decimal(runner):
    result = runner.invoke(main, ["analyze", "S4"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for profile in doc["profiles"]:
        assert "/" in profile["d_pi"]
        float(profile["d_pi"].split("/")[0])  # numerator is an integer string


def test_analyze_from_file(runner, tmp_path, named):
    path = tmp_path / "my_group.grp"
    path.write_text(serialize_group_file(named("D8")))
    result = runner.invoke(main, ["analyze", str(path), "--pi", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["group"]["name"] == "my_group"
    assert doc["profiles"][0]["d_pi"] == "5/8"


def test_analyze_parse_error_has_line(runner, tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("degree 4\n(0 9)\n")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_analyze_formats(runner):
    csv_out = runner.invoke(main, ["analyze", "S3", "--pi", "3", "--format", "csv"])
    assert csv_out.output.splitlines()[0] == "group,pi,k_pi,order_pi,d_pi"
    text_out = runner.invoke(main, ["analyze", "S3", "--pi", "3", "--format", "text"])
    assert "d_pi = 2/3" in text_out.output


def test_analyze_deterministic_bytes(runner):
    a = runner.invoke(main, ["analyze", "S4", "--pi", "2,3", "--seed", "0"])
    b = runner.invoke(main, ["analyze", "S4", "--pi", "2,3", "--seed", "0"])
    assert a.output == b.output


def test_verify_single_group_pass(runner):
    result = runner.invoke(main, ["verify", "S3", "--suite", "main", "--pi", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"] == {"pass": 1}


def test_verify_selftest_fails_with_bundle(runner, tmp_path):
    bundle_dir = str(tmp_path / "cx")
    result = runner.invoke(main, [
        "verify", "D8", "--suite", "selftest", "--bundle-dir", bundle_dir])
    assert result.exit_code == 1
    bundles = os.listdir(bundle_dir)
    assert len(bundles) == 1
    bundle = os.path.join(bundle_dir, bundles[0])
    assert sorted(os.listdir(bundle)) == ["group.grp", "meta.json"]

    replay = runner.invoke(main, ["verify", "--replay", bundle, "--format", "text"])
    assert replay.exit_code == 1
    assert "FAIL" in replay.output


def test_verify_replay_prints_the_bundle_config(runner, tmp_path):
    s4 = build(parse_name("S4"))
    config = Config(max_quotient_degree=2)
    verdict = check_quotient_bound(s4, name="S4", config=config)
    bundle = write_counterexample_bundle(str(tmp_path / "capped"), s4, verdict,
                                         config.to_dict())
    result = runner.invoke(main, ["verify", "--replay", bundle])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [r["status"] for r in doc["results"]] == ["partial"]
    assert doc["config"] == config.to_dict()


def test_verify_census_subset(runner):
    result = runner.invoke(main, [
        "verify", "--census", "--suite", "commuting", "--max-order", "30",
        "--format", "text"])
    assert result.exit_code == 0
    assert "fail" not in result.output.split("summary:")[1]


def test_hall_cli(runner):
    result = runner.invoke(main, ["hall", "A5", "--pi", "3,5", "--format", "text"])
    assert result.exit_code == 0
    assert "none_exists" in result.output
    result = runner.invoke(main, ["hall", "S4", "--pi", "2", "--format", "text"])
    assert "found order=8" in result.output


def test_census_cli(runner):
    result = runner.invoke(main, ["census", "--format", "csv"])
    lines = result.output.splitlines()
    assert lines[0] == "name,order,degree"
    assert any(line.startswith("D8 x C3,24,7") for line in lines)
    again = runner.invoke(main, ["census", "--format", "csv"])
    assert result.output == again.output


def test_analyze_cache_round_trip(runner, tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = runner.invoke(main, ["analyze", "S4", "--pi", "2", "--cache-dir", cache_dir])
    second = runner.invoke(main, ["analyze", "S4", "--pi", "2", "--cache-dir", cache_dir])
    assert first.output == second.output
    assert len(os.listdir(cache_dir)) == 1

    verify = runner.invoke(main, ["cache", "verify", "--cache-dir", cache_dir])
    assert verify.exit_code == 0
    assert "mismatched or corrupt: 0" in verify.output

    stats = runner.invoke(main, ["cache", "stats", "--cache-dir", cache_dir])
    assert "entries: 1" in stats.output
    cleared = runner.invoke(main, ["cache", "clear", "--cache-dir", cache_dir])
    assert "removed: 1" in cleared.output


def test_cache_verify_census_sample_zero_mismatches(runner, tmp_path):
    cache_dir = str(tmp_path / "cache")
    for name in ["S3", "S4", "D8", "Q8", "D8 x C3", "A4", "A5 x C3"]:
        result = runner.invoke(main, ["analyze", name, "--cache-dir", cache_dir])
        assert result.exit_code == 0
    verify = runner.invoke(main, ["cache", "verify", "--cache-dir", cache_dir])
    assert verify.exit_code == 0
    assert "mismatched or corrupt: 0" in verify.output


def test_cache_verify_detects_tamper(runner, tmp_path):
    cache_dir = str(tmp_path / "cache")
    runner.invoke(main, ["analyze", "S4", "--pi", "2", "--cache-dir", cache_dir])
    store = InvariantCache(cache_dir)
    key = store.keys()[0]
    value = store.get(key)
    value["body"]["profiles"][0]["d_pi"] = "7/8"
    store.put(key, value)  # well-formed entry, wrong content
    verify = runner.invoke(main, ["cache", "verify", "--cache-dir", cache_dir])
    assert verify.exit_code == 1


def test_cache_commands_read_bad_entries_as_misses(runner, tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    key = entry_key(build(parse_name("S4")), "analysis", {"pi": [[2]]})
    (cache_dir / f"{key}.json").write_bytes(b"\xff\xfe")  # the entry analyze reads
    (cache_dir / "list.json").write_text("[1]")
    (cache_dir / "number.json").write_text("5")
    (cache_dir / "dir.json").mkdir()
    store = InvariantCache(str(cache_dir))
    store.put("no-group-file", {"invariant": "analysis"})  # checksummed, malformed
    store.put("bad-group-file", {"invariant": "analysis", "group_file": "x",
                                 "pi_sets": [[2]], "name": "x"})
    store.put("int-group-file", {"invariant": "analysis", "group_file": 5,
                                 "pi_sets": [[2]], "name": "x"})
    store.put("bad-pi", {"invariant": "analysis", "pi_sets": [[4]], "name": "x",
                         "group_file": serialize_group_file(build(parse_name("C3")))})
    fresh = runner.invoke(main, ["analyze", "S4", "--pi", "2"])
    cached = runner.invoke(main, ["analyze", "S4", "--pi", "2", "--cache-dir", str(cache_dir)])
    assert cached.exit_code == 0
    body = {k: v for k, v in json.loads(cached.output).items() if k != "config"}
    assert body == {k: v for k, v in json.loads(fresh.output).items() if k != "config"}
    verify = runner.invoke(main, ["cache", "verify", "--cache-dir", str(cache_dir)])
    assert verify.exit_code == 1
    assert "checked: 7, mismatched or corrupt: 6" in verify.output
    cleared = runner.invoke(main, ["cache", "clear", "--cache-dir", str(cache_dir)])
    assert cleared.exit_code == 0
    assert "removed: 7" in cleared.output
    assert (cache_dir / "dir.json").is_dir()


def test_unknown_group_message(runner):
    result = runner.invoke(main, ["analyze", "E8"])
    assert result.exit_code != 0
    assert "neither a readable file nor a known group name" in result.output


def _write_replay_dirs(root):
    """Directories that are not valid replay bundles, each broken one way,
    and one valid bundle."""
    group_file = serialize_group_file(build(parse_name("C3")))
    meta = {"result_id": "commuting-threshold", "group": "C3", "pi": None,
            "verdict": {}, "config": {}}
    bundles = {
        "empty": {},
        "bad-meta": {"meta.json": "not json", "group.grp": group_file},
        "no-group": {"meta.json": json.dumps(meta)},
        "unknown-rid": {"meta.json": json.dumps({**meta, "result_id": "nope"}),
                        "group.grp": group_file},
        "bad-config": {"meta.json": json.dumps({**meta, "config": {"max_elements": "x"}}),
                       "group.grp": group_file},
        "two-workers": {"meta.json": json.dumps({**meta, "config": {"workers": 2}}),
                        "group.grp": group_file},
        "int-pi": {"meta.json": json.dumps({**meta, "result_id": "two-thirds-cap", "pi": 5}),
                   "group.grp": group_file},
        "list-rid": {"meta.json": json.dumps({**meta, "result_id": ["two-thirds-cap"]}),
                     "group.grp": group_file},
        "int-group": {"meta.json": json.dumps({**meta, "group": 3}), "group.grp": group_file},
        "valid": {"meta.json": json.dumps(meta), "group.grp": group_file},
    }
    for name, files in bundles.items():
        (root / name).mkdir()
        for filename, text in files.items():
            (root / name / filename).write_text(text)


@pytest.mark.parametrize("args", [
    ["verify", "C3", "--max-order", "0"],
    ["verify", "C3", "--pi", "4"],
    ["analyze", "C3", "--pi", "x"],
    ["verify", "C3", "--suite", "nope"],
    ["verify", "C3", "--config", "unknown-key.json"],
    ["verify", "C3", "--config", "not-json.json"],
    ["hall", "C3", "--pi", "2", "--budget", "-1"],
    ["verify", "C3", "--config", "str-int.json"],
    ["verify", "C3", "--config", "bool-int.json"],
    ["verify", "C3", "--config", "float-int.json"],
    ["verify", "C3", "--config", "str-bool.json"],
    ["verify", "C3", "--config", "int-cache-dir.json"],
    ["verify", "C3", "--config", "not-utf8.json"],
    ["verify", "C3", "--config", "empty"],
    ["verify", "C3", "--config", "list.json"],
    ["verify", "--replay", "empty"],
    ["verify", "--replay", "bad-meta"],
    ["verify", "--replay", "no-group"],
    ["verify", "--replay", "unknown-rid"],
    ["verify", "--replay", "bad-config"],
    ["verify", "C3", "--workers", "2"],
    ["verify", "C3", "--config", "two-workers.json"],
    ["verify", "--replay", "two-workers"],
    ["verify", "--replay", "int-pi"],
    ["verify", "--replay", "list-rid"],
    ["verify", "--replay", "int-group"],
    ["analyze", "group-dir"],
    ["hall", "not-utf8.grp", "--pi", "2"],
    ["analyze", "C3", "--cache-dir", "list.json"],
    ["cache", "stats", "--cache-dir", "list.json"],
    ["cache", "clear", "--cache-dir", "list.json/sub"],
    ["verify", "--census", "--max-order", "6", "--suite", "cap", "--pi", "7"],
    ["verify", "--max-order", "6", "--suite", "cap", "--pi", "3"],
    ["verify", "C3", "--census", "--max-order", "6", "--suite", "cap"],
    ["verify", "--replay", "valid", "--pi", "3"],
    ["verify", "C3", "--replay", "valid"],
    ["verify", "--census", "--replay", "valid", "--max-order", "6", "--suite", "cap"],
])
def test_bad_input_is_a_one_line_error(runner, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unknown-key.json").write_text('{"max_ordr": 10}')
    (tmp_path / "not-json.json").write_text("max_order = 10")
    (tmp_path / "str-int.json").write_text('{"max_order": "x"}')
    (tmp_path / "bool-int.json").write_text('{"max_order": true}')
    (tmp_path / "float-int.json").write_text('{"max_order": 10.0}')
    (tmp_path / "str-bool.json").write_text('{"include_quaternion": "no"}')
    (tmp_path / "int-cache-dir.json").write_text('{"cache_dir": 5}')
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "two-workers.json").write_text('{"workers": 2}')
    (tmp_path / "group-dir").mkdir()
    (tmp_path / "not-utf8.grp").write_bytes(b"\xff\xfe")
    _write_replay_dirs(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code != 0
    assert "Error:" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_hall_records_the_budget_it_searched_with(runner, monkeypatch):
    import piclass.subgroups

    budgets = []
    search = piclass.subgroups.hall_search

    def recording_search(*args, **kwargs):
        budgets.append(kwargs["budget"])
        return search(*args, **kwargs)

    monkeypatch.setattr(piclass.subgroups, "hall_search", recording_search)
    result = runner.invoke(main, ["hall", "S4", "--pi", "2,3", "--budget", "3",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["hall_budget"] == 3
    assert budgets == [3]
