"""Repair recorded activity start times in business-process event logs and
compare logs via 1-D Earth Mover's Distance over timestamp and cycle-time
histograms."""

from .concurrency import (
    ConcurrencyRelation,
    OracleThresholds,
    count_directly_follows,
    discover_concurrency,
    discover_from_log,
    load_concurrency,
)
from .evaluate import (
    EmdReport,
    Histogram,
    cycle_time_histograms,
    evaluate_logs,
    timestamp_histogram,
    wasserstein_1d,
)
from .loggen import GenSpec, generate
from .model import (
    ActivityInstance,
    ActivityInstanceLog,
    ColumnMapping,
    ConfigurationError,
    LogFormatError,
    PairingSummary,
    parse_event_log,
    read_instance_log,
    to_activity_instances,
    write_activity_instance_log,
)
from .repair import (
    InstanceRepair,
    RepairConfig,
    RepairOutcome,
    repair_start_times,
    typical_repaired_duration,
)

__version__ = "0.1.0"
