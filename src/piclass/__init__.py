"""piclass: exact conjugacy-class invariants of permutation groups.

The library computes, for a finite permutation group G and a set of primes
pi, the exact ratio of the number of conjugacy classes of pi-elements to the
pi-part of |G|, and machine-checks the structural facts that ratio controls
(abelian Hall subgroups, normal complements, quotient bounds) over a census
of concrete groups.
"""

__version__ = "0.1.0"

from .catalog import GroupSpec, build, census, parse_group_file, parse_name, serialize_group_file
from .classes import ClassTable, conjugacy_classes, k_pi
from .config import Config, DEFAULT_CONFIG
from .errors import (
    CapExceededError,
    DegreeMismatchError,
    GroupFileError,
    InvalidInputError,
    NotInGroupError,
    PiclassError,
    PreconditionError,
)
from .group import PermGroup
from .invariants import (
    PiProfile,
    commuting_degree,
    d_pi,
    group_primes,
    has_normal_pi_complement,
    k_pi_by_centralizer_decomposition,
    normal_pi_complement_exists,
)
from .perm import Permutation, conjugate, parse_cycle_text
from .subgroups import (
    HallSearchOutcome,
    QuotientGroup,
    are_conjugate_subgroups,
    center,
    centralizer_of_element,
    centralizer_of_subgroup,
    commutator_subgroup,
    derived_subgroup,
    enumerate_subgroups_up_to_conjugacy,
    fitting_subgroup,
    hall_search,
    is_simple,
    normal_closure,
    normal_subgroups,
    normalizer,
    o_pi_prime,
    o_pi_prime_order,
    quotient,
    socle,
    subgroup,
    sylow_subgroup,
)
from .suite import (
    CampaignResult,
    VerdictReport,
    run_census_campaign,
    run_group_suite,
)
