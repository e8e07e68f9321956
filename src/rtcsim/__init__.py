"""rtcsim: real-time DSRC vehicle-to-vehicle broadcast channel emulator.

Schedules periodic safety-beacon transmissions from emulated remote vehicles
through a CSMA/CA overlap state machine with hidden-node and capture-effect
modeling, and reports channel-busy and packet-error statistics from the
perspective of a host vehicle. Runs offline or paced against the wall clock
with a UDP hardware-in-the-loop delivery boundary.
"""

from .channel import (PathLossModel, RadioConfig, default_fowlerville,
                      default_three_log_distance, is_hidden, path_loss_db,
                      resolve_capture, rss_dbm)
from .errors import (ConfigError, RealtimeViolationError, RtcsimError,
                     SchedulingError, TraceParseError, ValidationError)
from .mac import (KeyedBackoffRng, MacParams, Outcome, OverlapState, Packet,
                  PdMode, RunStats, TxEvent, apply_backoff, classify,
                  init_queue, reschedule_after_aifs, resolve_transmission,
                  run, verify_run_invariants, write_event_log)
from .metrics import (CbpSeries, PerHistogram, SimReport, compute_cbp,
                      compute_per, rss_curve, summarize)
from .oracle import oracle_replay
from .realtime import run_realtime
from .scenario import (MobilityTrace, Scenario, Topology, TopologySpec,
                       generate_topology, generation_schedule, load_scenario,
                       parse_trace_file, position_at, project_geodetic,
                       save_scenario, write_trace_files)
from .wire import BsmRecord, NullSink, UdpSink, pack_bsm, unpack_bsm

__version__ = "0.1.0"
