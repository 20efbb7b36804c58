"""Image-acquisition pipeline modeling: link budgets plus a deterministic
discrete-event simulator for the grabber-based and direct-to-host
architectures."""

from .linkmodel import (
    BudgetRow,
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
    budget_table,
    camera_stream_rate,
    effective_link_rate,
    feasible,
    min_lanes,
)
from .metrics import (
    Aggregates,
    IncomparableRunsError,
    SimReport,
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
    SimConfig,
    run,
)
from .timing import (
    ClockModel,
    DeadlineMisses,
    DeadlineSpec,
    check_deadlines,
    timestamp_rms,
)
from .topology import (
    CUT_THROUGH,
    STORE_AND_FORWARD,
    BufferStage,
    FrameGrabber,
    HostMemory,
    InvalidTopologyError,
    LinkStage,
    ProcessingModel,
    Processor,
    Sensor,
    Topology,
    build_classic,
    build_direct,
    copy_count,
    topology_digest,
)

__version__ = "0.1.0"
