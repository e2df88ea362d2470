"""Deterministic report documents in json, csv, or plain text.

Same inputs, same config, same seed => byte-identical output: keys are
sorted, rationals are always rendered as ``numerator/denominator`` strings,
and no timestamps or timings enter machine-readable documents.
"""

import csv
import io
import json

from . import __version__
from .config import Config
from .suite import VerdictReport

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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_verdicts_csv(reports: list[VerdictReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["result_id", "group", "pi", "status", "witness"])
    for r in reports:
        writer.writerow([
            r.result_id,
            r.group,
            ",".join(map(str, r.pi)) if r.pi is not None else "",
            r.status,
            json.dumps(r.witness, sort_keys=True),
        ])
    return buf.getvalue()


def render_verdicts_text(reports: list[VerdictReport], summary: dict) -> str:
    lines = []
    for r in reports:
        pi = "{" + ",".join(map(str, r.pi)) + "}" if r.pi is not None else "-"
        lines.append(f"{r.status.upper():12} {r.result_id:24} {r.group:16} pi={pi}")
    lines.append("")
    lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    return "\n".join(lines) + "\n"


def render_analysis_csv(body: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "pi", "k_pi", "order_pi", "d_pi"])
    for profile in body["profiles"]:
        writer.writerow([
            body["group"]["name"],
            ",".join(map(str, profile["pi"])),
            profile["k_pi"],
            profile["order_pi"],
            profile["d_pi"],
        ])
    return buf.getvalue()


def render_hall_csv(outcomes: list[dict]) -> str:
    """One row per prime set; order and abelian are empty when nothing was found."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pi", "status", "method", "route", "order", "abelian"])
    for entry in outcomes:
        writer.writerow([
            ",".join(map(str, entry["pi"])),
            entry["status"],
            entry["method"],
            entry["route"],
            entry.get("order"),
            entry.get("abelian"),
        ])
    return buf.getvalue()


def render_analysis_text(body: dict) -> str:
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
