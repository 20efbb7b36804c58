"""Image-acquisition pipeline modeling: link budgets plus a deterministic
discrete-event simulator for the grabber-based and direct-to-host
architectures."""

from .linkmodel import (
    CameraSpec,
    CameraLinkIf,
    CLHSIf,
    CoaXPressIf,
    EnvelopeWarning,
    Feasibility,
    GigEVisionIf,
    InvalidSpecError,
    NoFeasibleWidthError,
    OverheadModel,
    PCIeLink,
    USB3If,
    aggregate_rate,
    camera_stream_rate,
    effective_link_rate,
    feasible,
    min_lanes,
)
from .metrics import (
    Aggregates,
    BudgetRow,
    IncomparableRunsError,
    SimReport,
    budget_table,
    compare,
    export_structured,
    export_tabular,
    import_structured,
    summarize,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .simcore import (
    DROP_NEWEST,
    DROP_OLDEST,
    FrameTable,
    InvalidTopologyError,
    SimConfig,
    run,
)
from .timing import (
    ClockModel,
    DeadlineSpec,
    DeadlineViolation,
    check_deadlines,
    timestamp_rms,
)
from .topology import (
    CUT_THROUGH,
    STORE_AND_FORWARD,
    BufferStage,
    FrameGrabber,
    HostMemory,
    LinkStage,
    ProcessingModel,
    Processor,
    Sensor,
    Topology,
    Violation,
    build_classic,
    build_direct,
    copy_count,
    topology_digest,
    validate,
)

__version__ = "0.1.0"
