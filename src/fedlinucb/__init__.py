"""Asynchronous federated linear UCB: simulation library and CLI."""

from .core import (
    DimensionMismatchError,
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    SpdMatrix,
    compute_beta,
    inv_norm,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
    ucb_select,
)
from .environment import (
    ArmSpec,
    Schedule,
    gen_instance,
    gen_schedule,
    load_arms_file,
    load_schedule_file,
    sample_decision_set,
    sample_reward,
)
from .protocol import (
    AgentState,
    CommEvent,
    ServerState,
    init_agent,
    init_server,
    local_update,
    payload_checksum,
    should_sync,
    sync,
)
from .simulator import (
    CommBoundError,
    SimulationTrace,
    epoch_boundaries,
    run_fedlinucb,
    run_independent_oful,
)
from .analysis import (
    BiasDemoReport,
    BoundReport,
    bias_demo,
    run_invariant_suite,
)

__version__ = "0.1.0"
