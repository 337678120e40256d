"""Offline analysis of simulation traces: the paper's §V metrics."""

from repro.analysis.metrics import (
    convergence_time,
    settling_band_violations,
    recovery_time,
    cdf,
    detection_delays,
)
from repro.analysis.export import (
    export_summary_json,
    export_traces_csv,
    load_summary_json,
    run_summary,
)
from repro.analysis.replay import (
    mean_accuracy_at_n,
    replay_histogram_accuracy,
    variance_stream_of,
)
from repro.analysis.reporting import (
    render_table,
    render_series,
    render_cop_bars,
)

__all__ = [
    "convergence_time",
    "settling_band_violations",
    "recovery_time",
    "cdf",
    "detection_delays",
    "export_summary_json",
    "export_traces_csv",
    "load_summary_json",
    "run_summary",
    "mean_accuracy_at_n",
    "replay_histogram_accuracy",
    "variance_stream_of",
    "render_table",
    "render_series",
    "render_cop_bars",
]
