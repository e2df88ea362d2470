"""Command-line surface: analyze, verify, hall, census."""

import argparse
import os
import sys
from collections import Counter

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


def _config_from(args: argparse.Namespace) -> Config:
    """The ``--config`` file's config, or the default, with every flag given
    in place of its field: a flag's ``dest`` is the name of the field it
    overrides, and ``Config`` checks the values."""
    config = Config.from_file(args.config) if args.config else Config()
    return config._replace(**{name: value for name, value in vars(args).items()
                              if name in Config._fields and value is not None})


def analyze(args: argparse.Namespace, config: Config) -> int:
    """Class table summary and exact profiles for GROUP_SOURCE."""
    name, group = _load_group(args.group_source, config)
    config.check_element_cap(group)
    pi_sets = _parse_pi(args.pi) if args.pi else None
    sys.stdout.write(render("analysis", config, _analysis_body(name, group, pi_sets, config)))
    return 0


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


def verify(args: argparse.Namespace, config: Config) -> int:
    """Run theorem checkers; exit 0 iff no check fails."""
    source, replay = args.group_source, args.replay
    by_name: dict[str, PermGroup] = {}
    suites = resolve_suites(args.suite or ["all"])
    # an empty GROUP_SOURCE or --replay counts as given, and the library refuses it
    if (source is not None) + args.census + (replay is not None) > 1:
        raise InvalidInputError("give only one of GROUP_SOURCE, --census and --replay")
    if args.pi and source is None:
        raise InvalidInputError("--pi needs a single GROUP_SOURCE, not the census or a replay")
    if args.max_order is not None and (source is not None or replay is not None):
        raise InvalidInputError("--max-order caps the census, not a GROUP_SOURCE or a replay")
    if replay is not None:  # the document shows the bundle's config, in the requested format
        report, replayed = replay_counterexample(replay)
        reports = [report]
        config = replayed._replace(output_format=config.output_format)
    elif source is None:
        entries = list(census(config))
        by_name = dict(entries)
        reports = run_census_campaign(entries, suites, config).reports
    else:
        name, group = _load_group(source, config)
        by_name = {name: group}
        pi_sets = _parse_pi(args.pi) if args.pi else None
        reports = run_group_suite(group, name, suites, config, pi_sets)
    summary = dict(Counter(r.status for r in reports))

    failures = [r for r in reports if r.status == FAIL]
    for i, failure in enumerate(failures):
        grp = by_name.get(failure.group)
        if grp is None:
            continue
        path = os.path.join(args.bundle_dir, f"{failure.result_id}-{i}")
        write_counterexample_bundle(path, grp, failure, config.to_dict())
        print(f"counterexample bundle: {path}", file=sys.stderr)

    body = {"results": [r.as_dict() for r in reports], "summary": summary}
    sys.stdout.write(render("verify", config, body))
    return 1 if failures else 0


def hall(args: argparse.Namespace, config: Config) -> int:
    """Search for a Hall subgroup for the given prime set."""
    name, group = _load_group(args.group_source, config)
    config.check_element_cap(group)
    outcomes = []
    for pi in _parse_pi(args.pi):
        out = hall_search(group, pi, budget=config.hall_budget,
                          subgroup_cap=config.subgroup_cap, seed=config.seed)
        entry = {"pi": sorted(pi), "status": out.status, "method": out.method,
                 "route": out.route}
        if out.found:
            entry["order"] = out.subgroup.order
            entry["abelian"] = out.subgroup.is_abelian()
            entry["generators"] = [g.cycle_string() for g in out.subgroup.generators]
        outcomes.append(entry)
    sys.stdout.write(render("hall", config, {"group": name, "outcomes": outcomes}))
    return 0


def census_cmd(args: argparse.Namespace, config: Config) -> int:
    """List the configured census (names, orders, degrees), in census order."""
    rows = [{"name": name, "order": group.order, "degree": group.degree}
            for name, group in census(config)]
    sys.stdout.write(render("census", config, {"groups": rows}))
    return 0


class _Parser(argparse.ArgumentParser):
    """Ends a usage error with one ``Error:`` line and exit status 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The ``piclass`` parser: one subcommand per command function, each
    with the common ``--config``, ``--format`` and ``--seed``.  A flag
    that overrides a config field has that field's name as its ``dest``."""
    parser = _Parser(prog="piclass", allow_abbrev=False,
                     description="Exact class-counting invariants of finite permutation groups.")
    parser.add_argument("--version", action="version", version=f"piclass, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, name):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        sub.add_argument("--config", help="JSON config file; flags override it.")
        sub.add_argument("--format", dest="output_format", metavar="FORMAT",
                         help="Output format: json (default), csv or text.")
        sub.add_argument("--seed", type=int, help="Deterministic seed.")
        return sub

    sub = command(analyze, "analyze")
    sub.add_argument("group_source", metavar="GROUP_SOURCE")
    sub.add_argument("--pi", action="append",
                     help="Prime set like '2' or '2,3'; repeatable. Default: each "
                          "prime of |G| plus the full prime set.")

    sub = command(verify, "verify")
    sub.add_argument("group_source", metavar="GROUP_SOURCE", nargs="?")
    sub.add_argument("--census", action="store_true", help="Run over the default census.")
    sub.add_argument("--suite", action="append",
                     help=f"Suite selector; repeatable. One of {'/'.join([*SUITES, 'all'])} "
                          "(default all).")
    sub.add_argument("--pi", action="append",
                     help="Restrict per-pi suites to these prime sets; single GROUP_SOURCE only.")
    sub.add_argument("--max-order", type=int,
                     help="Census order cap; the census only, not a GROUP_SOURCE or --replay.")
    sub.add_argument("--bundle-dir", default="counterexamples",
                     help="Where failure replay bundles are written (default counterexamples).")
    sub.add_argument("--replay", help="Replay a counterexample bundle directory instead.")

    sub = command(hall, "hall")
    sub.add_argument("group_source", metavar="GROUP_SOURCE")
    sub.add_argument("--pi", action="append", required=True, help="Prime set, e.g. --pi 3,5.")
    sub.add_argument("--budget", dest="hall_budget", metavar="BUDGET", type=int,
                     help="Randomized-tier attempts.")

    sub = command(census_cmd, "census")
    sub.add_argument("--max-order", type=int, help="Census order cap.")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit status: 0 on success, 1 when a
    verdict fails or the library refuses the input, with one ``Error:``
    line.  A usage error exits 2 from the parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, _config_from(args))
    except PiclassError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
