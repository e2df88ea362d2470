"""Deterministic report documents in json, csv, or plain text.

Same inputs, same config, same seed => byte-identical output: keys are
sorted, rationals are always rendered as ``numerator/denominator`` strings,
and no timestamps or timings enter machine-readable documents.  ``render``
is the one place that picks the format: each command hands it the body of
its JSON document, and the csv and text renderers read the same body.
``render_json`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` by one join per container, since ``indent`` sends
``json.dumps`` to its pure-Python encoder.
"""

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .config import Config

SCHEMA_VERSION = 1


def document(kind: str, config: Config, body: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "piclass", "version": __version__},
        "kind": kind,
        "config": config.to_dict(),
        **body,
    }


def render_json(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``,
    built without the encoder that ``indent`` selects: on CPython that is
    the pure-Python one, a generator per container.  Here each container is
    one join, and strings go through the C ``encode_basestring_ascii``.
    A tuple subclass, such as a ``NamedTuple`` record, raises ``TypeError``
    where ``json.dumps`` would write it as an array: a record enters a
    document through its ``as_dict``."""
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """One JSON value as ``json.dumps`` writes it with indent 2, ``newline``
    being the line break and indent of the value's own line.  The type
    tests go in ``json``'s order, so bool before int."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, list) or type(value) is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    if isinstance(value, tuple):  # a record: json.dumps would write it as an array
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _key(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]) + newline + "}"
    return json.dumps(value)  # raises the encoder's TypeError


def _key(key) -> str:
    """A dict key as ``json`` writes it: a string, or a quoted scalar."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def render(kind: str, config: Config, body: dict) -> str:
    """The ``kind`` document with ``body`` in ``config.output_format``."""
    if config.output_format == "json":
        return render_json(document(kind, config, body))
    return _RENDERERS[kind, config.output_format](body)


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _verdicts_csv(body: dict) -> str:
    return _csv(["result_id", "group", "pi", "status", "witness"], (
        [r["result_id"], r["group"],
         ",".join(map(str, r["pi"])) if r["pi"] is not None else "",
         r["status"], json.dumps(r["witness"], sort_keys=True)]
        for r in body["results"]))


def _verdicts_text(body: dict) -> str:
    lines = []
    for r in body["results"]:
        pi = "{" + ",".join(map(str, r["pi"])) + "}" if r["pi"] is not None else "-"
        lines.append(f"{r['status'].upper():12} {r['result_id']:24} {r['group']:16} pi={pi}")
    lines.append("")
    lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(body["summary"].items())))
    return "\n".join(lines) + "\n"


def _analysis_csv(body: dict) -> str:
    return _csv(["group", "pi", "k_pi", "order_pi", "d_pi"], (
        [body["group"]["name"], ",".join(map(str, p["pi"])), p["k_pi"], p["order_pi"],
         p["d_pi"]]
        for p in body["profiles"]))


def _analysis_text(body: dict) -> str:
    g = body["group"]
    lines = [
        f"group {g['name']}: degree {g['degree']}, order {g['order']}",
        f"classes: k = {body['class_summary']['k']}, sizes {body['class_summary']['sizes']}",
        "sylow orders: " + ", ".join(f"{p}: {o}" for p, o in body["sylow_orders"].items()),
    ]
    for profile in body["profiles"]:
        pi = "{" + ",".join(map(str, profile["pi"])) + "}"
        lines.append(
            f"pi={pi}: k_pi = {profile['k_pi']}, |G|_pi = {profile['order_pi']}, "
            f"d_pi = {profile['d_pi']}")
    return "\n".join(lines) + "\n"


def _hall_csv(body: dict) -> str:
    """One row per prime set; order and abelian are empty when nothing was found."""
    return _csv(["pi", "status", "method", "route", "order", "abelian"], (
        [",".join(map(str, e["pi"])), e["status"], e["method"], e["route"], e.get("order"),
         e.get("abelian")]
        for e in body["outcomes"]))


def _hall_text(body: dict) -> str:
    lines = []
    for entry in body["outcomes"]:
        pi = ",".join(map(str, entry["pi"]))
        line = f"pi={{{pi}}}: {entry['status']}"
        if "order" in entry:
            line += f" order={entry['order']} abelian={entry['abelian']}"
        lines.append(line + f" ({entry['method']}: {entry['route']})\n")
    return "".join(lines)


def _census_csv(body: dict) -> str:
    return "name,order,degree\n" + "".join(
        f"{row['name']},{row['order']},{row['degree']}\n" for row in body["groups"])


def _census_text(body: dict) -> str:
    return "".join(f"{row['name']:16} order {row['order']:6} degree {row['degree']}\n"
                   for row in body["groups"])


_RENDERERS = {
    ("verify", "csv"): _verdicts_csv, ("verify", "text"): _verdicts_text,
    ("analysis", "csv"): _analysis_csv, ("analysis", "text"): _analysis_text,
    ("hall", "csv"): _hall_csv, ("hall", "text"): _hall_text,
    ("census", "csv"): _census_csv, ("census", "text"): _census_text,
}
