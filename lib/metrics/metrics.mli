(** Sampled time-series metrics.

    A {!t} is a sink owned by the harness; each simulated world opens a
    labelled {!run} on it ({!start_run}), and instrumented components
    register named sources — counters, gauges, or [Stats.Hist]-backed
    histograms — against that run.  A sim-time periodic tick snapshots
    every source into a per-series {!Renofs_engine.Stats.Timeseries}, so
    the dynamics the end-of-run aggregates hide (the congestion window
    collapsing, the server queue backing up behind the 56K link) become
    plottable trajectories.

    Cost contract: components hold a [run option]; with no sink
    attached nothing is registered and the data path pays one branch,
    exactly like tracing.  Sampling runs off the simulator clock, so a
    run's series are deterministic for a given seed, and per-cell sinks
    merged in cell order ({!merge}) reproduce a serial run's output
    byte-for-byte at any [--jobs].

    The tick reschedules itself forever; that is safe for worlds
    drained with [Sim.run ~until] windows (every experiment driver) but
    would hang a bare [Sim.run] — do not attach a sink to a world
    drained that way. *)

type t
type run

type kind = Counter | Gauge | Histogram
(** [Counter] marks monotonically nondecreasing samples (convert to
    rates with {!Renofs_engine.Stats.Timeseries.rate}); [Gauge] is an
    instantaneous level; [Histogram] marks quantile series derived from
    a [Stats.Hist] via {!register_hist}. *)

type series = {
  e_run : string;  (** owning run's label, unique within the sink *)
  e_name : string;
  e_kind : kind;
  e_unit : string;
  e_labels : (string * string) list;
      (** dimension tags, e.g. [("server", "server3")] on per-shard
          series; empty for most sources *)
  e_points : (float * float) list;  (** (sim time, value), time-ordered *)
}

val create : ?interval:float -> unit -> t
(** A sink sampling every [interval] sim-seconds (default 0.5). *)

val interval : t -> float

val set_enabled : t -> bool -> unit
(** Gate sampling without tearing the tick down — used to exclude
    warmup phases, mirroring [Trace.set_enabled]. *)

val start_run : t -> sim:Renofs_engine.Sim.t -> label:string -> run
(** Open a run on [sim] and start its sampling tick.  [label] is
    uniquified against the sink's existing runs ([#2], [#3]...) so
    plots can always address a single run. *)

val register :
  ?labels:(string * string) list ->
  run ->
  name:string ->
  unit_:string ->
  kind:kind ->
  (unit -> float) ->
  unit
(** Add a sampled source.  Non-finite samples are skipped (a gauge with
    nothing to report returns [nan]).  [labels] (default none) tags the
    series with dimensions — fleet worlds label per-shard series with
    [("server", name)] so plots can split shard imbalance. *)

val register_hist :
  ?labels:(string * string) list ->
  run ->
  name:string ->
  unit_:string ->
  Renofs_engine.Stats.Hist.t ->
  unit
(** Derive [name/p50] and [name/p95] quantile series from a live
    histogram; empty histograms contribute no points. *)

val merge : into:t -> t -> unit
(** Append [t]'s runs after [into]'s, preserving start order — the
    sweep runner's per-cell merge, called in cell order. *)

val series : t -> series list
(** Every series, runs in start order and sources in registration
    order. *)

(** {2 renofs-metrics/1 export/import}

    JSONL: a header line
    [{"schema":"renofs-metrics/1","interval":I,"series":N}] followed by
    one object per series with fields [run], [name], [kind], [unit],
    [points] (array of [[time, value]] pairs), plus [labels] (a string
    object) only when the series carries labels — unlabelled exports
    are byte-identical to pre-label writers, and old files import with
    empty labels.  Lines are {!Renofs_json.Json}'s compact layout, so
    numbers follow its one float rule (integers bare, anything else the
    shortest decimal that round-trips) and serial and parallel exports
    are byte-identical.  CSV: a [run,series,kind,unit,time,value] header
    then one row per point, numbers spelled by the same rule; labelled
    series render as [name{k=v;...}] in the series column. *)

val export_jsonl : t -> string -> unit
val export_csv : t -> string -> unit

val import_jsonl : string -> (series list, string) result
(** Errors carry [path:line:] context. *)

val kind_name : kind -> string
(** "counter", "gauge" or "histogram". *)
