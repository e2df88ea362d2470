"""Machine checkers for the census: one verdict per (claim, group, prime set).

Each claim is declared once, in ``SUITES``: its selector maps to the prime
sets it reports on, its checker and its result id.  A checker recomputes its
own hypotheses from the group rather than trusting caller flags and answers
``(status, witness)``: exactly one status from the taxonomy
{pass, fail, vacuous, inapplicable, partial, unresolved}, and a witness
payload sufficient to replay a failure.  ``run_group_suite`` is the one place
that turns an answer into a ``VerdictReport``; the campaign, ``verify`` and
the replay of a bundle all go through it.
"""

import json
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .catalog import parse_group_file, serialize_group_file
from .classes import all_d_p_one, conjugacy_classes, k_pi, pi_count
from .config import DEFAULT_CONFIG, WORKERS_ERROR, Config
from .errors import InvalidInputError
from .group import PermGroup
from .invariants import (
    commuting_degree,
    d_pi,
    group_primes,
    normal_pi_complement_exists,
)
from .numtheory import is_pi_number, pi_part, validate_pi
from .perm import Permutation
from .subgroups import (
    almost_simple_socle,
    center,
    centralizer_of_subgroup,
    commutator_subgroup,
    conjugates,
    enumerate_subgroups_up_to_conjugacy,
    hall_search,
    normal_lattice,
    normal_subgroups,
    normalizer,
    o_pi_prime_order,
    subgroup,
    subgroup_intersection,
    sylow_subgroup,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
INAPPLICABLE = "inapplicable"
PARTIAL = "partial"
UNRESOLVED = "unresolved"

THRESHOLD = Fraction(5, 8)
TWO_THIRDS = Fraction(2, 3)


Limits = Config  # perfbench/workloads.py:85 calls suite.Limits(); the caps live in Config


class VerdictReport(NamedTuple):
    result_id: str
    group: str
    pi: tuple[int, ...] | None
    status: str
    witness: dict

    def as_dict(self) -> dict:
        return {
            "result_id": self.result_id,
            "group": self.group,
            "pi": list(self.pi) if self.pi is not None else None,
            "status": self.status,
            "witness": self.witness,
        }


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _gens(sub: PermGroup) -> list[str]:
    return [g.cycle_string() for g in sub.generators]


def _widest_pi(group: PermGroup, pi: frozenset[int]) -> frozenset[int] | None:
    """The widest prime set q containing pi with d_q above 5/8, that is
    8 k_q > 5 |G|_q, read from the class histogram: among the supersets of
    pi inside the primes of |G|, largest first, the first in the order of
    ``itertools.combinations``.  None stands for every prime of |G|, the
    enumeration of all subgroups, and is also the answer when pi holds
    them all; pi itself when it holds a prime outside |G|, or when no wider
    set is above the threshold.  The caller has d_pi above 5/8."""
    table = conjugacy_classes(group)
    rest = [p for p in table.primes if p not in pi]
    if len(rest) + len(pi) != len(table.primes):  # pi has a prime outside |G|
        return pi
    histogram = table.histogram()
    for size in range(len(rest), 0, -1):
        for extra in combinations(rest, size):
            q = pi.union(extra)
            if 8 * pi_count(histogram, table.pi_bits(q)) > 5 * pi_part(group.order, q):
                return None if size == len(rest) else q
    return pi if rest else None


def _cyclic_pi_subgroup_classes(group: PermGroup, pi: frozenset[int]) -> list[PermGroup]:
    """One cyclic pi-subgroup <rep> per conjugacy class of them: <x> and <y>
    are conjugate exactly when x and y share a rational class, so the first
    class of each rational class of pi-elements gives its representative."""
    table = conjugacy_classes(group)
    classes = []
    covered = 0  # the rational classes already represented
    for i, (rep, order) in enumerate(zip(table.rep_images, table.class_orders)):
        if not covered >> i & 1 and is_pi_number(order, pi):
            classes.append(subgroup(group, [Permutation._make(rep)]))
            covered |= table.rational_class(i)
    return classes


def check_hall_dichotomy(group: PermGroup, pi,
                         config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """Above the 5/8 threshold: an abelian Hall pi-subgroup exists, all Hall
    pi-subgroups are conjugate, every pi-subgroup lies in a conjugate of it,
    and the ratio is exactly 2/3 or 1.

    Past the subgroup-enumeration cap the containment and conjugacy checks
    degrade to cyclic pi-subgroups and the verdict is labelled partial.
    Hall classes are then not counted, and conjugacy is checked only on the
    cyclic Hall-order classes; with none, it is reported as not checked.
    """
    pi = validate_pi(pi)
    profile = d_pi(group, pi)
    witness: dict = {"d_pi": _frac(profile.d_pi)}
    if profile.d_pi <= THRESHOLD:
        return VACUOUS, witness

    outcome = hall_search(group, pi, budget=config.hall_budget,
                          subgroup_cap=config.subgroup_cap, seed=config.seed)
    if outcome.status == "unresolved":
        witness["hall"] = "unresolved"
        return UNRESOLVED, witness
    if not outcome.found:
        witness["hall"] = "reported nonexistent"
        return FAIL, witness
    hall = outcome.subgroup
    witness["hall_order"] = hall.order
    witness["hall_generators"] = _gens(hall)
    witness["hall_method"] = outcome.method
    witness["hall_route"] = outcome.route
    if not hall.is_abelian():
        witness["abelian"] = False
        return FAIL, witness
    witness["abelian"] = True

    target = pi_part(group.order, pi)
    partial = group.order > config.subgroup_cap  # enumeration would refuse the group
    if partial:
        classes = _cyclic_pi_subgroup_classes(group, pi)
        witness["degraded"] = "cyclic pi-subgroups only (subgroup cap exceeded)"
    else:
        # One sweep per group serves every pi above the threshold.  Its
        # classes of pi-order are those of a sweep at pi, with the same
        # representatives and generators: a pi-subgroup is reached only by
        # pi-steps from pi-subgroups, and a step the wider sweep adds only
        # skips steps whose closures are not pi-groups.
        classes = [h for h in enumerate_subgroups_up_to_conjugacy(
                       group, pi=_widest_pi(group, pi), cap=config.subgroup_cap)
                   if is_pi_number(h.order, pi)]

    halls = [h for h in classes if h.order == target]
    if partial:
        witness["hall_class_count"] = "not counted (subgroup cap exceeded)"
    else:
        witness["hall_class_count"] = len(halls)
        if len(halls) != 1:
            witness["conjugacy"] = f"{len(halls)} conjugacy classes of Hall order"
            return FAIL, witness
    hall_conjugates = conjugates(group, hall)
    for other in halls:
        if other.element_set() not in hall_conjugates:
            witness["conjugacy"] = "found Hall subgroup not conjugate to an enumerated one"
            return FAIL, witness
    witness["conjugacy"] = "ok" if halls else "not checked (no cyclic subgroup of Hall order)"

    for sub in classes:
        subset = sub.element_set()
        if not any(subset <= conj for conj in hall_conjugates):
            witness["containment"] = f"pi-subgroup of order {sub.order} in no Hall conjugate"
            witness["offender_generators"] = _gens(sub)
            return FAIL, witness
    witness["containment"] = "ok"
    witness["pi_subgroup_classes"] = len(classes)

    if profile.d_pi not in (TWO_THIRDS, Fraction(1)):
        witness["dichotomy"] = "value outside {2/3, 1}"
        return FAIL, witness
    if profile.d_pi == TWO_THIRDS:
        # consistency cross-check on every 2/3 pass
        mu = pi - {3}
        d3 = d_pi(group, [3]).d_pi if 3 in pi else None
        dmu = d_pi(group, mu).d_pi if mu else Fraction(1)
        witness["two_thirds_consistency"] = {
            "three_in_pi": 3 in pi,
            "two_in_pi": 2 in pi,
            "d_3": _frac(d3) if d3 is not None else None,
            "d_mu": _frac(dmu),
        }
        if not (3 in pi and 2 not in pi and d3 == TWO_THIRDS and dmu == 1):
            return FAIL, witness
    return (PARTIAL if partial else PASS), witness


def check_unit_iff_complement(group: PermGroup, pi,
                              config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """The ratio equals 1 exactly when a normal pi-complement and an abelian
    Hall pi-subgroup both exist; both sides evaluated independently.

    Also: if d_p = 1 for every p in pi, a normal pi-complement must exist.
    """
    pi = validate_pi(pi)
    profile = d_pi(group, pi)
    lhs = profile.d_pi == 1
    exists = normal_pi_complement_exists(group, pi)
    witness: dict = {"d_pi": _frac(profile.d_pi), "complement_exists": exists}
    if exists:
        witness["complement_order"] = o_pi_prime_order(group, pi)
    abelian_hall = None
    if exists:
        outcome = hall_search(group, pi, budget=config.hall_budget,
                              subgroup_cap=config.subgroup_cap, seed=config.seed)
        if outcome.status == "unresolved":
            return UNRESOLVED, witness
        if outcome.found:
            abelian_hall = outcome.subgroup.is_abelian()
            witness["hall_order"] = outcome.subgroup.order
        else:
            abelian_hall = False
        witness["hall_abelian"] = abelian_hall
    rhs = bool(exists and abelian_hall)
    witness["iff"] = {"lhs": lhs, "rhs": rhs}
    if lhs != rhs:
        return FAIL, witness
    all_dp_one = all_d_p_one(group, pi)
    witness["all_d_p_one"] = all_dp_one
    if all_dp_one and not exists:
        witness["part1"] = "d_p = 1 for all p but no normal pi-complement"
        return FAIL, witness
    return PASS, witness


def check_two_thirds_cap(group: PermGroup, pi,
                         config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """Below 1 the ratio is at most 2/3; at most 5/8 when 3 is not in pi or
    the group order is odd."""
    pi = validate_pi(pi)
    profile = d_pi(group, pi)
    witness = {"d_pi": _frac(profile.d_pi)}
    if profile.d_pi == 1:
        return VACUOUS, witness
    if profile.d_pi > TWO_THIRDS:
        witness["violated"] = "d_pi > 2/3"
        return FAIL, witness
    if (3 not in pi or group.order % 2 == 1) and profile.d_pi > THRESHOLD:
        witness["violated"] = "d_pi > 5/8 with 3 outside pi or odd order"
        return FAIL, witness
    return PASS, witness


def check_quotient_bound(group: PermGroup, config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """d_pi(G) <= d_pi(N) * d_pi(G/N) for every normal N and every nonempty
    pi inside the group's primes.

    |N|_pi * |G:N|_pi = |G|_pi, so the bound holds exactly when
    k_pi(G) <= k_pi(N) * k_pi(G/N), and that integer test is what runs; the
    fractions are built only for a counterexample.  Each N is an entry of
    the lattice (``normal_lattice``), a class bitset of G, and no G/N or
    class table of it is built.  The classes of G/N are counted per
    prime support by the class fusion (``ClassTable.quotient_histogram``),
    and k_pi(G/N) is a sum over those counts.  k_pi(G) is the popcount of
    the class bitset of pi-elements (``ClassTable.pi_classes``).  Each
    G-class inside N is a union of N-classes, so the G-classes of
    pi-elements inside N (``ClassTable.k_pi_lower_bound``, a popcount)
    count at most k_pi(N); when that
    count already satisfies the bound for every pi, N is decided.  Only an
    N it leaves open (C3 in D18, or AGL(3,2)'s translation subgroup) is
    made a subgroup (``normal_subgroups``), and k_pi(N) is read from N's
    own class table.  Every normal N is checked, whatever its index: no G/N
    is built, so ``max_quotient_degree`` guards no cost here.
    """
    primes = sorted(group_primes(group))
    witness: dict = {"normal_subgroups": 0, "checked": 0}
    if not primes:
        return VACUOUS, witness
    lattice = normal_lattice(group)
    witness["normal_subgroups"] = len(lattice)
    table = conjugacy_classes(group)
    subsets = _nonempty_subsets(primes)
    pi_bits = [table.pi_bits(pi) for pi in subsets]
    k_group = [table.pi_classes(bits).bit_count() for bits in pi_bits]
    lower = table.k_pi_lower_bound
    checked = 0
    for rank, entry in enumerate(lattice):
        in_quotient = table.quotient_histogram(entry.mask)
        k_quotient = [pi_count(in_quotient, bits) for bits in pi_bits]
        if all(lhs <= lower(entry.mask, bits) * kq
               for bits, lhs, kq in zip(pi_bits, k_group, k_quotient)):
            checked += len(subsets)
            continue
        n = normal_subgroups(group)[rank]
        for pi, lhs, kq in zip(subsets, k_group, k_quotient):
            rhs = k_pi(n, pi) * kq
            checked += 1
            if lhs > rhs:
                witness["checked"] = checked
                order_pi = pi_part(group.order, pi)
                witness["counterexample"] = {
                    "normal_order": entry.order,
                    "pi": sorted(pi),
                    "d_pi_G": _frac(Fraction(lhs, order_pi)),
                    "bound": _frac(Fraction(rhs, order_pi)),
                }
                return FAIL, witness
    witness["checked"] = checked
    return PASS, witness


def check_sylow3_structure(group: PermGroup, config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """Structure forced by d_3 = 2/3 with trivial largest normal 3'-subgroup:
    abelian Sylow 3-subgroup P, |N_G(P)/C_G(P)| = 2, |[P, N_G(P)]| = 3,
    P = [P,N_G(P)] x (P n Z(N_G(P))), and one of:
    (1) P is self-centralizing normal, or (2) G = A x B with A almost simple
    (Sylow 3-subgroup of order 3 inside its socle) and B an abelian 3-group.
    """
    witness: dict = {}
    profile = d_pi(group, [3])
    witness["d_3"] = _frac(profile.d_pi)
    if profile.d_pi != TWO_THIRDS:
        return VACUOUS, witness
    witness["o_3_prime_order"] = o_pi_prime_order(group, [3])
    if witness["o_3_prime_order"] != 1:
        return VACUOUS, witness

    p_syl = sylow_subgroup(group, 3)
    witness["sylow3_order"] = p_syl.order
    if not p_syl.is_abelian():
        witness["abelian_P"] = False
        return FAIL, witness
    witness["abelian_P"] = True
    norm = normalizer(group, p_syl)
    cent = centralizer_of_subgroup(group, p_syl)
    ratio = norm.order // cent.order
    witness["normalizer_over_centralizer"] = ratio
    if ratio != 2:
        return FAIL, witness
    comm = commutator_subgroup(group, p_syl, norm)
    witness["commutator_order"] = comm.order
    if comm.order != 3:
        return FAIL, witness
    z_norm = center(norm)
    z_meet = subgroup_intersection(group, p_syl, z_norm)
    witness["central_part_order"] = z_meet.order
    meet = subgroup_intersection(group, comm, z_meet)
    direct = comm.order * z_meet.order == p_syl.order and meet.order == 1
    witness["internal_direct_product"] = direct
    if not direct:
        return FAIL, witness

    normals = list(zip(normal_subgroups(group), normal_lattice(group)))
    case1 = norm.order == group.order and cent.order == p_syl.order  # P normal: N_G(P) = G
    witness["case1_self_centralizing_normal"] = case1
    case2 = False
    case2_witness = None
    for a, a_entry in normals:
        if case2:
            break
        for b, b_entry in normals:
            if a.order * b.order != group.order:
                continue
            # A meet B is the union of their common classes; bit 0 is the identity's
            if a_entry.mask & b_entry.mask != 1:
                continue
            if not (b.is_abelian() and is_pi_number(b.order, frozenset([3]))):
                continue
            soc = almost_simple_socle(a)
            if soc is None:
                continue
            if sylow_subgroup(soc, 3).order != 3:
                continue
            syl_a = sylow_subgroup(a, 3)
            if not all(soc.contains(g) for g in syl_a.generators):
                continue
            case2 = True
            case2_witness = {"A_order": a.order, "B_order": b.order,
                             "A_generators": _gens(a), "B_generators": _gens(b)}
            break
    witness["case2_almost_simple_times_3group"] = case2
    if case2_witness:
        witness["case2_witness"] = case2_witness
    if not (case1 or case2):
        return FAIL, witness
    return PASS, witness


def check_commuting_threshold(group: PermGroup,
                              config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """Commuting degree above 5/8 forces the group to be abelian; below it,
    the group must be non-abelian (the contrapositive on the census)."""
    d = commuting_degree(group)
    abelian = group.is_abelian()
    witness = {"d": _frac(d), "abelian": abelian}
    if d > THRESHOLD:
        return (PASS if abelian else FAIL), witness
    # d <= 5/8: abelian would contradict d = 1
    return (VACUOUS if not abelian else FAIL), witness


def check_selftest(group: PermGroup, config: Config = DEFAULT_CONFIG) -> tuple[str, dict]:
    """Deliberately wrong pin (asserts the dihedral-of-order-8 ratio at p=2
    is 1/2); exists so the harness's fail path stays honest."""
    profile = d_pi(group, [2])
    witness = {"d_2": _frac(profile.d_pi), "pinned": "1/2"}
    return (PASS if profile.d_pi == Fraction(1, 2) else FAIL), witness


def _nonempty_subsets(primes) -> list[frozenset[int]]:
    """The nonempty subsets of ``primes``, by size and then lexicographic."""
    primes = sorted(primes)
    return [frozenset(c) for r in range(1, len(primes) + 1) for c in combinations(primes, r)]


# -- campaign ---------------------------------------------------------------

# selector -> (prime sets, checker, result id).  A "per-pi" claim runs once
# per prime set and reports it; any other claim runs once per group and
# reports the fixed pi given here (None: the claim ranges over every pi).
SUITES = {
    "main": ("per-pi", check_hall_dichotomy, "hall-dichotomy"),
    "complement": ("per-pi", check_unit_iff_complement, "unit-iff-complement"),
    "cap": ("per-pi", check_two_thirds_cap, "two-thirds-cap"),
    "quotient": (None, check_quotient_bound, "quotient-bound"),
    "structure": ((3,), check_sylow3_structure, "sylow3-structure"),
    "commuting": (None, check_commuting_threshold, "commuting-threshold"),
    "selftest": ((2,), check_selftest, "selftest-fixed-value"),
}

DEFAULT_SUITES = ["main", "complement", "cap", "quotient", "structure", "commuting"]


def resolve_suites(selection) -> list[str]:
    if isinstance(selection, str):
        selection = [selection]
    out: list[str] = []
    for name in selection:
        if name == "all":
            out.extend(DEFAULT_SUITES)
        elif name in SUITES:
            out.append(name)
        else:
            raise InvalidInputError(f"unknown suite: {name!r} (known: {sorted(SUITES)} and 'all')")
    seen = set()
    return [s for s in out if not (s in seen or seen.add(s))]


class CampaignResult(NamedTuple):
    reports: list[VerdictReport]
    summary: dict[str, int]

    @property
    def failures(self) -> list[VerdictReport]:
        return [r for r in self.reports if r.status == FAIL]


def run_group_suite(group: PermGroup, name: str, suites, config: Config = DEFAULT_CONFIG,
                    pi_sets=None) -> list[VerdictReport]:
    """All selected verifiers on one group; per-pi suites run over the given
    pi sets, defaulting to every nonempty subset of the group's primes.
    The run starts with its one element-cap check, |G| against
    ``config.max_elements`` (``Config.check_element_cap``).

    This is the only constructor of ``VerdictReport``: each row takes its
    result id and its printed pi from the claim's ``SUITES`` entry."""
    config.check_element_cap(group)
    suites = resolve_suites(suites)
    if pi_sets is None:
        pi_sets = _nonempty_subsets(group_primes(group))
    else:
        pi_sets = [validate_pi(pi) for pi in pi_sets]
    reports = []
    for suite_name in suites:
        pis, check, rid = SUITES[suite_name]
        if pis == "per-pi":
            reports.extend(VerdictReport(rid, name, tuple(sorted(pi)),
                                         *check(group, pi, config=config)) for pi in pi_sets)
        else:
            reports.append(VerdictReport(rid, name, pis, *check(group, config=config)))
    return reports


def run_census_campaign(census_iter, suites, config: Config = DEFAULT_CONFIG,
                        workers: int = 1) -> CampaignResult:
    """Apply the selected suites to every census group under ``config``, one
    group after another on this thread.  ``max_elements`` is checked against
    each group's order as its run starts (``run_group_suite``); the other
    cap is ``subgroup_cap``, and the Hall search takes ``hall_budget`` and
    ``seed``.

    Reports come back in census order; the summary counts verdicts per status.
    """
    # ``workers`` is accepted only as 1, for perfbench/workloads.py; the
    # benchmark change of ROADMAP item 4 drops it together with the Limits alias.
    if workers != 1:
        raise InvalidInputError(WORKERS_ERROR)
    suites = resolve_suites(suites)
    reports = [r for name, g in census_iter for r in run_group_suite(g, name, suites, config)]
    return CampaignResult(reports=reports, summary=dict(Counter(r.status for r in reports)))


# -- counterexample bundles ---------------------------------------------------


def write_counterexample_bundle(directory, group: PermGroup, verdict: VerdictReport,
                                config_dict: dict | None = None) -> str:
    """Self-contained replay bundle: group file, claim id, pi, verdict.
    A directory that cannot be made or written raises ``InvalidInputError``."""
    meta = {
        "result_id": verdict.result_id,
        "group": verdict.group,
        "pi": list(verdict.pi) if verdict.pi is not None else None,
        "verdict": verdict.as_dict(),
        "config": config_dict or {},
    }
    try:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "group.grp"), "w") as fh:
            fh.write(serialize_group_file(group))
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write a replay bundle to {directory}: {exc.strerror or exc}") from None
    return directory


def replay_counterexample(directory) -> tuple[VerdictReport, Config]:
    """Re-run the single check recorded in a bundle through ``run_group_suite``;
    must reproduce the verdict.

    Returns the verdict and the config it ran under: the bundle's whole
    recorded config, rebuilt with ``Config.from_dict`` (validated like a
    ``--config`` file; missing keys take their defaults), not the replaying
    command's config.  A directory without a readable ``meta.json`` or
    ``group.grp``, an unknown result id, a group name that is not a string
    or a bad config or pi value raises ``InvalidInputError``, as does an
    empty path, which ``os.path.join`` would read as the current directory.
    """
    if not directory:
        raise InvalidInputError("not a replay bundle (): the path is empty")
    try:
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        with open(os.path.join(directory, "group.grp")) as fh:
            group_text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise InvalidInputError(f"not a replay bundle ({directory}): {exc}") from None
    rid = meta.get("result_id") if isinstance(meta, dict) else None
    suite_name = next((s for s, entry in SUITES.items() if entry[2] == rid), None)
    if suite_name is None:
        raise InvalidInputError(f"not a replay bundle ({directory}): unknown result_id")
    name = meta.get("group", "")
    if not isinstance(name, str):
        raise InvalidInputError(f"not a replay bundle ({directory}): group is not a string")
    config = Config.from_dict(meta.get("config", {}))
    group = parse_group_file(group_text, config.max_degree)
    # only a per-pi claim reads the recorded pi; the others print a fixed one
    pi_sets = [meta.get("pi") or ()] if SUITES[suite_name][0] == "per-pi" else None
    return run_group_suite(group, name, [suite_name], config, pi_sets)[0], config
