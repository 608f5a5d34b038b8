(** Failure flight recorder.

    Armed once per run with everything that must survive a crash of the
    run itself — the bundle directory, the run-spec document and the
    seed — and invoked per failing cell by the experiment runner on
    a [Driver_stuck], a [Fault.Check] invariant FAIL or an SLO breach.
    Each dump is a self-contained post-mortem bundle:

    {v
    <dir>/<cell-label>/
      MANIFEST.json      renofs-flight/1: label, seed, reason, members
      reason.txt         why the recorder fired
      run_spec.json      the run's flag surface, re-runnable
      trace_tail.jsonl   last records of the cell's trace ring
      metrics.jsonl      the cell's metric series (when sampled)
      profile.json       renofs-profile/1 snapshot (when profiled)
    v}

    Dumps are per-cell and cell labels are unique within a run, so
    parallel sweeps never contend on a bundle directory. *)

type t

val arm : dir:string -> spec:Renofs_json.Json.json -> seed:int -> t
(** Immutable arming record; nothing is written until a dump.  [spec]
    becomes the bundle's [run_spec.json], on one line. *)

val tail_records : int
(** How many of the newest trace records a bundle keeps (20_000). *)

val dump :
  t ->
  label:string ->
  reason:string ->
  ?trace:Renofs_trace.Trace.t ->
  ?metrics:Renofs_metrics.Metrics.t ->
  ?profile:Profile.t ->
  unit ->
  string
(** Write one bundle and return its directory.  The label is sanitized
    to a path component ([A-Za-z0-9._-], anything else becomes ['_']).
    An existing bundle for the same label is overwritten member by
    member. *)
