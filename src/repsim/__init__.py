"""Online dynamic data replication: simulation, cost allocation, exact
offline oracle, adversarial generators, and a trace-driven experiment harness.
"""

from .allocation import AllocationReport, RequestTyping, classify_and_allocate
from .experiments import (
    RATE_SETS,
    ExperimentSpec,
    SweepRow,
    assign_servers,
    gen_poisson_trace,
    ingest_trace,
    run_sweep,
    sweep_csv,
)
from .generators import (
    AdversaryOutcome,
    CounterexampleResult,
    ParameterError,
    TightResult,
    adversary_branch1_ratio,
    adversary_branch2_ratio,
    gen_fig1,
    gen_fig2,
    gen_random,
    gen_tight,
    run_adversary,
    wang_fig2_limit_ratio,
)
from .model import (
    CopyInterval,
    CostBreakdown,
    Instance,
    InstanceFormatError,
    ReplicationSchedule,
    Request,
    Server,
    Transfer,
    Violation,
    competitive_bound,
    compute_cost,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
    max_min_rate_ratio,
    validate_offline_structure,
    validate_schedule,
)
from .offline import BudgetExceeded, DPSolution, opt_costs, opt_full, opt_restricted
from .policies import (
    POLICIES,
    AnnotatedRun,
    AnchorPolicy,
    FixedRenewalPolicy,
    PolicyFault,
    ServeRecord,
    Simulation,
    ThresholdPolicy,
    make_policy,
    simulate,
)
from .verify import special_copy_problems, typing_problems, verify_instance, verify_random_batch

__all__ = [name for name in dir() if not name.startswith("_")]
