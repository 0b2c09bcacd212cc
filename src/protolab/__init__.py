"""Symbolic laboratory for the Needham-Schroeder public-key protocol family:
execute the classic and the identity-checked (NSL) handshakes against a
Dolev-Yao intruder, check state and transition invariants on every run, and
search interleavings within bounds for authentication and secrecy failures.
"""

from .invariants import (
    PredicateReport,
    dyn_inv,
    inv_sigma,
    no_app_leaks,
    no_forge,
    no_leaks,
    no_read_others,
    unique_nonces,
)
from .model import (
    GlobalState,
    Invent,
    Item,
    Msg,
    Nonce,
    UserState,
    append_action,
    initial_state,
    select,
    subseq,
    u_hist,
)
from .roles import RoleKind, RoleMachine, Status, Variant, step
from .runner import run_honest_pair
from .scenario import Scenario, SearchBounds, load_scenario, parse_scenario
from .search import explore
from .specs import (
    SpecVerdict,
    check_lemma_suite,
    check_nsl_ft_all,
    check_post_ns_all,
)

__version__ = "0.1.0"
