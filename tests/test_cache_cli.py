import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cli_runner import invoke
from piclass import __version__
from piclass.catalog import build, parse_name, serialize_group_file
from piclass.config import Config
from piclass.errors import InvalidInputError
from piclass.suite import run_group_suite, write_counterexample_bundle


def test_analyze_known_tight_value():
    result = invoke(["analyze", "D8 x C3", "--pi", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["profiles"] == [
        {"group": "D8 x C3", "pi": [2], "k_pi": 5, "order_pi": 8, "d_pi": "5/8"}]
    assert doc["schema_version"] == 1


def test_analyze_a5():
    result = invoke(["analyze", "A5", "--pi", "3"])
    doc = json.loads(result.output)
    assert doc["profiles"][0]["d_pi"] == "2/3"


def test_analyze_trivial_group():
    result = invoke(["analyze", "C1", "--pi", "2"])
    doc = json.loads(result.output)
    assert doc["profiles"][0]["d_pi"] == "1/1"


def test_analyze_rationals_never_decimal():
    result = invoke(["analyze", "S4"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for profile in doc["profiles"]:
        assert "/" in profile["d_pi"]
        float(profile["d_pi"].split("/")[0])  # numerator is an integer string


def test_analyze_from_file(tmp_path, named):
    path = tmp_path / "my_group.grp"
    path.write_text(serialize_group_file(named("D8")))
    result = invoke(["analyze", str(path), "--pi", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["group"]["name"] == "my_group"
    assert doc["profiles"][0]["d_pi"] == "5/8"


def test_analyze_above_degree_256(tmp_path):
    """A group of degree 300 keeps int-tuple images: the 300-cycle, under a
    config that admits its degree, has 300 classes and d_pi 1 for every pi."""
    path = tmp_path / "c300.grp"
    path.write_text("degree 300\n(" + " ".join(map(str, range(300))) + ")\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_degree": 300}))
    result = invoke(["analyze", str(path), "--config", str(config)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["group"]["order"] == 300 and doc["class_summary"]["k"] == 300
    assert [p["pi"] for p in doc["profiles"]] == [[2], [3], [5], [2, 3, 5]]
    assert all(p["d_pi"] == "1/1" for p in doc["profiles"])


def test_analyze_of_an_abelian_group_builds_no_supports(tmp_path, monkeypatch):
    """k = |G| for an abelian group, so a k x k supports matrix would not
    fit for C2^12, nor would its 4,096 representative tables of 256 bytes
    be cheap; analyze reads only the classes and their sizes."""
    import piclass.cli

    tables = []
    build_table = piclass.cli.conjugacy_classes

    def recording(group):
        tables.append(build_table(group))
        return tables[-1]

    monkeypatch.setattr(piclass.cli, "conjugacy_classes", recording)
    path = tmp_path / "c2_12.grp"
    path.write_text("degree 24\n" + "\n".join(f"({2 * i},{2 * i + 1})" for i in range(12)) + "\n")
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["group"]["order"] == 4096
    assert doc["profiles"][0]["d_pi"] == "1/1"
    assert tables and all(table._supports == {} for table in tables)
    assert all(table._tables is None for table in tables)


def test_analyze_parse_error_has_line(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("degree 4\n(0 9)\n")
    result = invoke(["analyze", str(path)])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_analyze_formats():
    csv_out = invoke(["analyze", "S3", "--pi", "3", "--format", "csv"])
    assert csv_out.output.splitlines()[0] == "group,pi,k_pi,order_pi,d_pi"
    text_out = invoke(["analyze", "S3", "--pi", "3", "--format", "text"])
    assert "d_pi = 2/3" in text_out.output


def test_analyze_deterministic_bytes():
    a = invoke(["analyze", "S4", "--pi", "2,3", "--seed", "0"])
    b = invoke(["analyze", "S4", "--pi", "2,3", "--seed", "0"])
    assert a.output == b.output


def test_verify_single_group_pass():
    result = invoke(["verify", "S3", "--suite", "main", "--pi", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"] == {"pass": 1}


@pytest.mark.parametrize("filename, summary", [
    pytest.param("agl17_regular.grp", {"pass": 15, "vacuous": 9}, id="agl17"),
    pytest.param("a5_regular.grp", {"pass": 17, "vacuous": 7}, id="a5"),
    pytest.param("psl27.grp", {"pass": 17, "vacuous": 7}, id="psl27"),
    # orders past 2,048: the quotient suite checks every normal subgroup
    pytest.param("a7.grp", {"pass": 31, "vacuous": 17}, id="a7"),
    pytest.param("s7.grp", {"pass": 31, "vacuous": 17}, id="s7"),
    pytest.param("m11.grp", {"pass": 31, "vacuous": 17}, id="m11"),
    pytest.param("s8.grp", {"pass": 31, "vacuous": 17}, id="s8"),
    pytest.param("agl32.grp", {"pass": 16, "vacuous": 8}, id="agl32"),
])
def test_verify_group_files_beyond_the_census(filename, summary):
    path = Path(__file__).parent / "data" / filename
    result = invoke(["verify", str(path), "--suite", "all"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert not {"fail", "partial"} & set(doc["summary"])
    assert doc["summary"] == summary


def test_verify_selftest_fails_with_bundle(tmp_path):
    bundle_dir = str(tmp_path / "cx")
    result = invoke([
        "verify", "D8", "--suite", "selftest", "--bundle-dir", bundle_dir])
    assert result.exit_code == 1
    bundles = os.listdir(bundle_dir)
    assert len(bundles) == 1
    bundle = os.path.join(bundle_dir, bundles[0])
    assert sorted(os.listdir(bundle)) == ["group.grp", "meta.json"]

    replay = invoke(["verify", "--replay", bundle, "--format", "text"])
    assert replay.exit_code == 1
    assert "FAIL" in replay.output


def test_verify_replay_prints_the_bundle_config(tmp_path):
    c12 = build(parse_name("C12"))
    config = Config(subgroup_cap=10)
    verdict = run_group_suite(c12, "C12", ["main"], config, pi_sets=[[2, 3]])[0]
    bundle = write_counterexample_bundle(str(tmp_path / "capped"), c12, verdict,
                                         config.to_dict())
    result = invoke(["verify", "--replay", bundle])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [r["status"] for r in doc["results"]] == ["partial"]
    assert doc["config"] == config.to_dict()


def test_verify_census_subset():
    result = invoke([
        "verify", "--census", "--suite", "commuting", "--max-order", "30",
        "--format", "text"])
    assert result.exit_code == 0
    assert "fail" not in result.output.split("summary:")[1]


def test_hall_cli():
    result = invoke(["hall", "A5", "--pi", "3,5", "--format", "text"])
    assert result.exit_code == 0
    assert "none_exists" in result.output
    result = invoke(["hall", "S4", "--pi", "2", "--format", "text"])
    assert "found order=8" in result.output


def test_hall_csv():
    result = invoke(["hall", "A4", "--pi", "2", "--pi", "2,3", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == (
        "pi,status,method,route,order,abelian\n"
        "2,found,constructive,closure of one Sylow subgroup per prime,4,True\n"
        '"2,3",found,constructive,whole group is a pi-group,12,False\n')
    result = invoke(["hall", "A5", "--pi", "3,5", "--format", "csv"])
    assert result.output.splitlines()[1] == (
        '"3,5",none_exists,exhaustive,no pi-subgroup of Hall order exists,,')


def test_census_cli():
    result = invoke(["census", "--format", "csv"])
    lines = result.output.splitlines()
    assert lines[0] == "name,order,degree"
    assert any(line.startswith("D8 x C3,24,7") for line in lines)
    again = invoke(["census", "--format", "csv"])
    assert result.output == again.output


def test_unknown_group_message():
    result = invoke(["analyze", "E8"])
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
        "str-cache-dir": {"meta.json": json.dumps({**meta, "config": {"cache_dir": "x"}}),
                          "group.grp": group_file},
        "int-pi": {"meta.json": json.dumps({**meta, "result_id": "two-thirds-cap", "pi": 5}),
                   "group.grp": group_file},
        "list-rid": {"meta.json": json.dumps({**meta, "result_id": ["two-thirds-cap"]}),
                     "group.grp": group_file},
        "int-group": {"meta.json": json.dumps({**meta, "group": 3}), "group.grp": group_file},
        "quotient-degree": {"meta.json": json.dumps({**meta, "config": {"max_quotient_degree": 2}}),
                            "group.grp": group_file},
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
    ["verify", "C3", "--config", "str-cache-dir.json"],
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
    ["analyze", "C3", "--cache-dir", "d"],
    ["verify", "--replay", "str-cache-dir"],
    ["verify", "S4", "--max-order", "6"],
    ["verify", "--census", "--max-order", "6", "--suite", "cap", "--pi", "7"],
    ["verify", "--max-order", "6", "--suite", "cap", "--pi", "3"],
    ["verify", "C3", "--census", "--max-order", "6", "--suite", "cap"],
    ["verify", "--replay", "valid", "--pi", "3"],
    ["verify", "C3", "--replay", "valid"],
    ["verify", "--census", "--replay", "valid", "--max-order", "6", "--suite", "cap"],
    ["verify", "--replay", "valid", "--max-order", "6"],
    ["cache", "stats"],
    ["verify", "D8", "--suite", "selftest", "--bundle-dir", "plain-file"],
    ["verify", "C3", "--config", "quotient-degree.json"],
    ["verify", "--replay", "quotient-degree"],
    ["verify", ""],
    ["verify", "--replay", ""],
])
def test_bad_input_is_a_one_line_error(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unknown-key.json").write_text('{"max_ordr": 10}')
    (tmp_path / "not-json.json").write_text("max_order = 10")
    (tmp_path / "str-int.json").write_text('{"max_order": "x"}')
    (tmp_path / "bool-int.json").write_text('{"max_order": true}')
    (tmp_path / "float-int.json").write_text('{"max_order": 10.0}')
    (tmp_path / "str-bool.json").write_text('{"include_quaternion": "no"}')
    (tmp_path / "str-cache-dir.json").write_text('{"cache_dir": "x"}')
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "two-workers.json").write_text('{"workers": 2}')
    (tmp_path / "quotient-degree.json").write_text('{"max_quotient_degree": 2}')
    (tmp_path / "group-dir").mkdir()
    (tmp_path / "not-utf8.grp").write_bytes(b"\xff\xfe")
    (tmp_path / "plain-file").write_text("")
    _write_replay_dirs(tmp_path)
    result = invoke(args)
    assert result.exit_code != 0
    assert result.output.count("Error:") == 1 and result.stdout == ""
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_empty_replay_path_inside_a_bundle_is_refused(tmp_path, monkeypatch, named):
    """``--replay ""`` is refused in a bundle's own directory too, where a
    path joined onto "" would read that bundle."""
    d8 = named("D8")
    bundle = write_counterexample_bundle(tmp_path / "bundle", d8,
                                         run_group_suite(d8, "D8", ["selftest"])[0], {})
    monkeypatch.chdir(bundle)
    result = invoke(["verify", "--replay", ""])
    assert result.exit_code == 1
    assert result.output == "Error: not a replay bundle (): the path is empty\n"
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ["verify", "S5", "--config", "cap50.json"],
    ["analyze", "S5", "--config", "cap50.json"],
    ["hall", "S5", "--pi", "2,3,5", "--config", "cap50.json"],
    ["hall", "S5", "--pi", "7", "--config", "cap50.json"],  # needs no element list
    ["verify", "--replay", "capped"],
])
def test_group_over_max_elements_stops_where_the_run_starts(args, tmp_path,
                                                            monkeypatch, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cap50.json").write_text('{"max_elements": 50}')
    s5 = named("S5")
    write_counterexample_bundle(tmp_path / "capped", s5,
                                run_group_suite(s5, "S5", ["commuting"])[0],
                                Config(max_elements=50).to_dict())
    result = invoke(args)
    assert result.exit_code == 1
    assert result.output == "Error: element enumeration: needs 120, cap is 50\n"


def test_huge_pi_is_a_quick_one_line_error():
    start = time.perf_counter()
    result = invoke(["hall", "S3", "--pi", "1000000000000000003"])
    assert time.perf_counter() - start < 10.0
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and result.output.count("\n") == 1


def test_config_admits_only_a_null_cache_dir():
    assert Config().to_dict()["cache_dir"] is None
    with pytest.raises(InvalidInputError, match="cache_dir must be null"):
        Config(cache_dir="x")


def test_hall_records_the_budget_it_searched_with(monkeypatch):
    import piclass.cli

    budgets = []
    search = piclass.cli.hall_search

    def recording_search(*args, **kwargs):
        budgets.append(kwargs["budget"])
        return search(*args, **kwargs)

    monkeypatch.setattr(piclass.cli, "hall_search", recording_search)
    result = invoke(["hall", "S4", "--pi", "2,3", "--budget", "3", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["hall_budget"] == 3
    assert budgets == [3]


def _python_dash_m(module, *args):
    """``python -m MODULE ARGS`` from a checkout, with ``src`` on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    out = _python_dash_m("piclass", "--version")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"piclass, version {__version__}"


def test_python_dash_m_piclass_cli_prints_the_same_bytes():
    """``python -m piclass.cli``, the entry point perfbench records its
    expected reports through, prints what ``python -m piclass`` prints."""
    args = ["census", "--max-order", "6"]
    via_cli, via_package = _python_dash_m("piclass.cli", *args), _python_dash_m("piclass", *args)
    assert via_cli.returncode == via_package.returncode == 0, (via_cli.stderr, via_package.stderr)
    assert via_cli.stdout == via_package.stdout
    assert json.loads(via_cli.stdout)["groups"][-1] == {"name": "C3 x C2", "order": 6, "degree": 5}
    assert via_cli.stderr == ""


def test_analyze_bytes_are_pinned():
    """The ``analyze`` document of a group by name and of a group file, in
    each format, byte for byte (sha256)."""
    import hashlib

    psl27 = str(Path(__file__).parent / "data" / "psl27.grp")
    digests = {
        ("D8 x C3", "json"): "eb9ff7dbd91502050143cdf23d2cc6488480f2edb00941995ccb98b6cb299315",
        ("D8 x C3", "csv"): "b8827d1f88ef15a0e108f51e6279c427c23210098273aec1e9a6fee2d50d5caa",
        ("D8 x C3", "text"): "5477150a616b3e695ff3970e483168e0c623a6b3bf7084e3fd8305d73d01838e",
        (psl27, "json"): "4f746a77bf6110740b3bbba031199df5b833a3985ce507c436c7a2b0c2b8af3c",
        (psl27, "csv"): "104cba0603fe408f0ead0bd82d7ef872bcc0919d2d1bddd242f3b9a57b58310c",
        (psl27, "text"): "5500eac16c6ad4c7a0b471c0ec1512b595003dfd71befcbbc7461a685122f4b9",
    }
    for (source, fmt), digest in digests.items():
        result = invoke(["analyze", source, "--format", fmt])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest, (source, fmt)
