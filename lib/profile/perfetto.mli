(** Chrome trace-event export: turn a trace's RPC spans and server
    slices (plus an optional profiler summary) into a [trace_event]
    JSON file that https://ui.perfetto.dev loads directly.

    Layout: process 1 ("rpc spans") holds one thread per run-mark
    label with an async begin/end pair per completed RPC (async events
    tolerate the overlapping spans a pipelined client produces);
    process 2 ("servers") holds one thread per server node with
    complete ("X") slices for service and queue-wait intervals, plus
    instant events for retransmissions, packet drops, crashes and
    reboots; process 3 ("profiler"), present when a profile snapshot is
    supplied, shows each subsystem's total self-time as one slice.
    Timestamps are virtual sim time in microseconds, rounded to the
    nanosecond.  The file is printed by {!Renofs_json.Json} in its
    document layout. *)

val export :
  path:string ->
  ?profile:Profile.snapshot ->
  Renofs_trace.Trace.record_ list ->
  int
(** Write the file and return the number of trace events emitted
    (metadata records not counted). *)
