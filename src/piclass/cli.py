"""Command-line surface: analyze, verify, hall, census."""

import functools
import os
import sys
from collections import Counter

import click

from . import __version__
from .catalog import build, census, parse_group_file, parse_name
from .classes import conjugacy_classes
from .config import Config
from .errors import InvalidInputError, PiclassError
from .group import PermGroup
from .invariants import d_pi, group_primes
from .numtheory import pi_part, validate_pi
from .reporting import render
from .subgroups import hall_search
from .suite import (
    FAIL,
    SUITES,
    replay_counterexample,
    resolve_suites,
    run_census_campaign,
    run_group_suite,
    write_counterexample_bundle,
)


def _load_group(source: str, config: Config) -> tuple[str, PermGroup]:
    """A group source is a path to a group file if it exists, else a census name."""
    if os.path.exists(source):
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, or not text
            raise InvalidInputError(f"group file {source}: {exc}") from None
        group = parse_group_file(text, config.max_degree)
        name = os.path.splitext(os.path.basename(source))[0]
        return name, group
    try:
        spec = parse_name(source)
    except ValueError as exc:
        raise InvalidInputError(
            f"{source!r} is neither a readable file nor a known group name: {exc}") from None
    return spec.name, build(spec, config.max_degree)


def _parse_pi(values) -> list[frozenset[int]]:
    sets = []
    for value in values:
        try:
            primes = [int(tok) for tok in str(value).replace(",", " ").split()]
        except ValueError:
            raise InvalidInputError(f"not a prime set: {value!r}") from None
        sets.append(validate_pi(primes))
    return sets


# command-line option -> the Config field it overrides
_OVERRIDES = {"seed": "seed", "max_order": "max_order", "fmt": "output_format",
              "budget": "hall_budget"}


def _config_from(ctx_params) -> Config:
    base = Config.from_file(ctx_params["config"]) if ctx_params.get("config") else Config()
    overrides = {key: ctx_params[opt] for opt, key in _OVERRIDES.items()
                 if ctx_params.get(opt) is not None}
    if overrides:
        base = Config.from_dict({**base.to_dict(), **overrides})
    return base


_common = [
    click.option("--config", type=click.Path(exists=True), default=None,
                 help="JSON config file; flags override it."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                 default=None, help="Output format (default json)."),
    click.option("--seed", type=int, default=None, help="Deterministic seed."),
]


def _with_common(fn):
    """Add the common options, and turn library errors (bad input, caps) into
    a one-line ``Error:`` message with exit status 1."""
    @functools.wraps(fn)
    def command(**params):
        try:
            return fn(**params)
        except PiclassError as exc:
            raise click.ClickException(str(exc)) from None

    for option in reversed(_common):
        command = option(command)
    return command


@click.group()
@click.version_option(version=__version__, prog_name="piclass")
def main():
    """Exact class-counting invariants of finite permutation groups."""


@main.command()
@click.argument("group_source")
@click.option("--pi", "pi_values", multiple=True,
              help="Prime set like '2' or '2,3'; repeatable. Default: each "
                   "prime of |G| plus the full prime set.")
@_with_common
def analyze(group_source, pi_values, **params):
    """Class table summary and exact profiles for GROUP_SOURCE."""
    config = _config_from(params)
    name, group = _load_group(group_source, config)
    config.check_element_cap(group)
    pi_sets = _parse_pi(pi_values) if pi_values else None
    body = _analysis_body(name, group, pi_sets, config)
    click.echo(render("analysis", config, body), nl=False)


def _analysis_body(name, group, pi_sets, config: Config) -> dict:
    if pi_sets is None:
        primes = sorted(group_primes(group))
        pi_sets = [frozenset([p]) for p in primes]
        if len(primes) > 1:
            pi_sets.append(frozenset(primes))
        if not pi_sets:
            pi_sets = [frozenset([2])]
    table = conjugacy_classes(group)
    return {
        "group": {
            "name": name,
            "degree": group.degree,
            "order": group.order,
            "generators": [g.cycle_string() for g in group.generators],
        },
        "class_summary": {"k": table.k, "sizes": sorted(table.sizes())},
        "sylow_orders": {
            str(p): pi_part(group.order, frozenset([p]))
            for p in sorted(group_primes(group))
        },
        "profiles": [
            {"group": name, **d_pi(group, pi).as_dict()} for pi in pi_sets
        ],
    }


@main.command()
@click.argument("group_source", required=False)
@click.option("--census", "use_census", is_flag=True, help="Run over the default census.")
@click.option("--suite", "suites", multiple=True, default=("all",),
              help=f"Suite selector; repeatable. One of {'/'.join([*SUITES, 'all'])}.")
@click.option("--pi", "pi_values", multiple=True,
              help="Restrict per-pi suites to these prime sets; single GROUP_SOURCE only.")
@click.option("--max-order", type=int, default=None,
              help="Census order cap; the census only, not a GROUP_SOURCE or --replay.")
@click.option("--bundle-dir", type=click.Path(), default="counterexamples",
              help="Where failure replay bundles are written.")
@click.option("--replay", type=click.Path(exists=True), default=None,
              help="Replay a counterexample bundle directory instead.")
@_with_common
def verify(group_source, use_census, suites, pi_values, bundle_dir, replay, **params):
    """Run theorem checkers; exit 0 iff no check fails."""
    config = _config_from(params)
    by_name: dict[str, PermGroup] = {}
    suites = resolve_suites(list(suites))
    if bool(group_source) + use_census + bool(replay) > 1:
        raise InvalidInputError("give only one of GROUP_SOURCE, --census and --replay")
    if pi_values and not group_source:
        raise InvalidInputError("--pi needs a single GROUP_SOURCE, not the census or a replay")
    if params["max_order"] is not None and (group_source or replay):
        raise InvalidInputError("--max-order caps the census, not a GROUP_SOURCE or a replay")
    if replay:  # the document shows the bundle's config, in the requested format
        report, replayed = replay_counterexample(replay)
        reports = [report]
        config = Config.from_dict({**replayed.to_dict(), "output_format": config.output_format})
    elif use_census or not group_source:
        entries = list(census(config))
        by_name = dict(entries)
        reports = run_census_campaign(entries, suites, config).reports
    else:
        name, group = _load_group(group_source, config)
        by_name = {name: group}
        pi_sets = _parse_pi(pi_values) if pi_values else None
        reports = run_group_suite(group, name, suites, config, pi_sets)
    summary = dict(Counter(r.status for r in reports))

    failures = [r for r in reports if r.status == FAIL]
    for i, failure in enumerate(failures):
        grp = by_name.get(failure.group)
        if grp is None:
            continue
        path = os.path.join(bundle_dir, f"{failure.result_id}-{i}")
        write_counterexample_bundle(path, grp, failure, config.to_dict())
        click.echo(f"counterexample bundle: {path}", err=True)

    body = {"results": [r.as_dict() for r in reports], "summary": summary}
    click.echo(render("verify", config, body), nl=False)
    sys.exit(1 if failures else 0)


@main.command()
@click.argument("group_source")
@click.option("--pi", "pi_values", multiple=True, required=True,
              help="Prime set, e.g. --pi 3,5.")
@click.option("--budget", type=click.IntRange(min=0), default=None,
              help="Randomized-tier attempts.")
@_with_common
def hall(group_source, pi_values, **params):
    """Search for a Hall subgroup for the given prime set."""
    config = _config_from(params)
    name, group = _load_group(group_source, config)
    config.check_element_cap(group)
    outcomes = []
    for pi in _parse_pi(pi_values):
        out = hall_search(group, pi, budget=config.hall_budget,
                          subgroup_cap=config.subgroup_cap, seed=config.seed)
        entry = {
            "pi": sorted(pi),
            "status": out.status,
            "method": out.method,
            "route": out.route,
        }
        if out.found:
            entry["order"] = out.subgroup.order
            entry["abelian"] = out.subgroup.is_abelian()
            entry["generators"] = [g.cycle_string() for g in out.subgroup.generators]
        outcomes.append(entry)
    body = {"group": name, "outcomes": outcomes}
    click.echo(render("hall", config, body), nl=False)


@main.command(name="census")
@click.option("--max-order", type=int, default=None, help="Census order cap.")
@_with_common
def census_cmd(**params):
    """List the configured census (names, orders, degrees), in census order."""
    config = _config_from(params)
    rows = [
        {"name": name, "order": group.order, "degree": group.degree}
        for name, group in census(config)
    ]
    click.echo(render("census", config, {"groups": rows}), nl=False)


if __name__ == "__main__":
    main()
