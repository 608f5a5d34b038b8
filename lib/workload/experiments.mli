(** One experiment spec per paper artifact (Graphs 1-9, Tables 1-5, the
    Section 3 NIC tuning numbers, and the lease/scaling extensions).

    An experiment is declared as a list of {!cell}s — one self-contained
    measurement per (transport x load x topology x profile) point, each
    building its own fresh world — plus an assembly function that turns
    the typed per-cell results into rows.  {!run_specs} executes the
    cells of any number of specs in one {!Sweep} pool and returns typed
    {!results}; {!render} turns those into the printable string
    {!table}, and {!failures} names the cells whose verdict failed.
    No runner formats measurement strings itself.

    [Quick] scale keeps every experiment in seconds of wall time for
    tests; [Full] runs longer sweeps for the bench harness. *)

type scale = Quick | Full

(** {2 Typed measurement values} *)

type unit_of_measure = Ms | Sec | Per_sec | Percent | Bytes | Count

type value =
  | Text of string  (** row labels and placeholders *)
  | Int of int * unit_of_measure
  | Float of float * unit_of_measure * int
      (** value already in its display unit, with rendering precision *)

val unit_name : unit_of_measure -> string
(** Stable lowercase names ("ms", "s", "per_s", "percent", "bytes",
    "count") used by the JSON export. *)

(** {2 Rendered tables} *)

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
}

val print_table : Format.formatter -> table -> unit

(** {2 Cells, specs and execution} *)

type ctx = {
  trace : Renofs_trace.Trace.t option;
  faults : Renofs_fault.Fault.schedule option;
  metrics : Renofs_metrics.Metrics.t option;
  profile : Renofs_profile.Profile.t option;
  cell_label : string;
}
(** Everything a cell receives from the runner.  The trace, metrics and
    profile sinks, when present, are private to the cell — see
    {!run_specs}.  The fault schedule, when present, is installed on
    every world the cell builds (see {!section-worlds}).  [cell_label]
    labels the cell's metrics runs. *)

type cell = {
  cell_label : string;  (** e.g. ["graph1/load10/udp-dyn"], for diagnostics *)
  cell_run : ctx -> value list;  (** builds its own world(s) and measures *)
}

type spec = {
  sp_id : string;
  sp_title : string;
  sp_header : string list;
  sp_cells : cell list;
  sp_assemble : (value list list -> value list list) option;
      (** [None] when each cell's output is its own table row, so any
          subset of the cells runs alone (see {!select}); [Some f] when
          the rows are built from every cell's output, in cell order *)
}

type results = {
  r_id : string;
  r_title : string;
  r_header : string list;
  r_rows : value list list;
}

val specs : (string * (scale -> spec)) list
(** Every experiment, keyed by id ("graph1" ... "table5", "section3",
    plus the extensions "leases", "scaling" and "fleet").  Building a
    spec is cheap — no simulation runs until {!run_specs}. *)

val select : spec -> string -> (spec, string) result
(** [select spec label] is [spec] with only the cell labelled [label]:
    its run prints that cell's row exactly as the whole spec's run does.
    An error names the label when no cell has it, or when the spec's
    rows are assembled from several cells. *)

val spec : ?scale:scale -> string -> spec option
(** Look up and build one spec ([Quick] by default).  The extra id
    "fleet-quick" resolves to the fleet family pinned at [Quick]
    regardless of [scale] — the stable target of the make-check smoke
    stage. *)

val chaos_spec : ?seed:int -> scale -> spec
(** The registry's "chaos" spec, with an explicit world seed.  [seed]
    defaults to the historical fixed world (bit-for-bit identical to
    [spec "chaos"]); any other value re-seeds the topology RNG so
    repeated chaos runs explore different timing interleavings. *)

val fuzz_profiles : string list
(** The wire-mangling profiles {!fuzz_spec} cycles through: corrupt,
    truncate, duplicate, reorder, storm. *)

val fuzz_spec : ?seeds:int -> ?base_seed:int -> ?checksum:bool -> scale -> spec
(** Seeded wire-corruption fuzzing, deliberately absent from {!specs}
    (it is a robustness gate, not a paper artifact).  Cell [i] runs the
    chaos-style write/read workload on a hard mount under mangling
    driven by seed [base_seed + i], cycling profile and mount — the
    three transports plus the v3 UNSTABLE+COMMIT profile — so any
    [seeds >= 20] covers the full matrix.  Each row reports
    retransmissions, garbled replies, checksum drops, and the
    {!Renofs_fault.Fault.Check} verdicts including the end-to-end
    {!Renofs_fault.Fault.Check.data_integrity} check against the
    client-side ledger; a stuck driver or uncaught exception becomes a
    ["FAIL:..."] verdict instead of killing the sweep.  [checksum:false]
    disables UDP checksums — the Sun configuration whose silent
    corruption the paper recounts — and under the corrupt profile is
    expected to produce data-integrity violations. *)

val run_specs :
  ?jobs:int ->
  ?trace:Renofs_trace.Trace.t ->
  ?faults:Renofs_fault.Fault.schedule ->
  ?metrics:Renofs_metrics.Metrics.t ->
  ?profile:Renofs_profile.Profile.t ->
  ?flight:Renofs_profile.Flight.t ->
  spec list ->
  results list
(** Execute every spec's cells in one sweep across [jobs] domains
    (default {!Sweep.default_jobs}), so short experiments overlap long
    ones, and assemble each spec's typed rows.  Results are reassembled
    by cell index, never completion order, so output is identical for
    every [jobs].

    Each cell gets one ctx holding a private sink of each kind the
    runner was given; after the sweep, one pass in cell order merges
    every cell's trace, metrics and profile sinks into the main ones.

    Tracing: with [trace], every cell records into a private sink of
    the same capacity, attached to its worlds and mark-delimited per
    world.  The combined stream is therefore race-free and identical to
    a serial run's.

    Faults: with [faults], the schedule is installed on every world the
    cells build, so any experiment can run under any schedule (the
    [nfsbench run ID --faults FILE] path).  Schedule times count from
    the start of the world's load: after an Nhfsstone sweep's warmup,
    when a fleet or scaling world has provisioned its files, and at
    world build for the others.  The chaos and fuzz cells replace it
    with their own schedules (the [chaos], [fuzz] and [slo] commands
    have no [--faults] flag).

    Metrics: with [metrics], every cell samples into a private sink of
    the same interval, one labelled run per world, so the exported
    series are byte-identical at any [jobs] (the [nfsbench run ID
    --metrics FILE] path).

    Profiling: with [profile], every cell gets a private
    {!Renofs_profile.Profile.t}, which becomes a [Sim] probe on each
    world the cell builds.  The deterministic slice (enter/fire counts)
    is identical at any [jobs]; the wall-clock attribution is real time
    and is not.

    Verdicts: the chaos, fuzz and slo cells fold theirs over every
    record as it is made ({!verdict_sink}), so they are exact at any
    run length and the same with or without a trace.

    Flight recorder: with [flight], a private trace sink holding the
    bundle's tail ({!Renofs_profile.Flight.tail_records} records) and a
    profile are forced on every cell, and a cell that raises
    {!Driver_stuck} or returns a row that ends in a {!failed_verdict}
    text (invariant or SLO verdicts) dumps a post-mortem bundle before
    the sweep re-raises. *)

val run_spec :
  ?jobs:int ->
  ?trace:Renofs_trace.Trace.t ->
  ?faults:Renofs_fault.Fault.schedule ->
  ?metrics:Renofs_metrics.Metrics.t ->
  ?profile:Renofs_profile.Profile.t ->
  ?flight:Renofs_profile.Flight.t ->
  spec ->
  results
(** {!run_specs} on one spec. *)

val render : results -> table
(** Pure rendering of typed results: fixed-precision decimals, a ["%"]
    suffix for {!Percent}. *)

exception Driver_stuck of string
(** An experiment driver failed to finish; the message carries the run
    label, sim time, pending event count and events processed. *)

val failed_verdict : string -> bool
(** Whether a verdict text fails its cell: it starts with ["FAIL"] (an
    invariant or SLO violated, a fuzz cell stuck or raising).  A cell's
    verdict is the last value of its row.  The CLI exits non-zero on
    such a verdict and an armed flight recorder dumps a bundle. *)

val failures : spec -> results -> (string * string) list
(** [(cell_label, verdict)] for each cell whose row ends in a
    {!failed_verdict} text, in cell order.  It pairs cells with rows,
    so it applies to specs whose rows are their cells' outputs (chaos,
    fuzz, slo); the CLI exits non-zero when it is not empty. *)

val advance_until :
  label:string -> window:float -> Renofs_engine.Sim.t -> (unit -> bool) -> unit
(** [advance_until ~label ~window sim finished] runs [sim] forward
    [window] sim-seconds at a time until [finished ()] holds (cross
    traffic never drains the event queue, so a bare [Sim.run] would not
    return).  After 100,000 windows it raises {!Driver_stuck}, naming
    [label].  Every experiment and scenario driver uses it. *)

(** {2:worlds Worlds}

    A cell's world is a single-server {!world} (the graphs and tables,
    section3, leases, scaling's N-client star, chaos and fuzz; see
    {!graph5_points}) or a sharded {!fleet_world} (the fleet family and
    the scenarios).  Either way the cell's observers
    are attached the same way — the trace sink with a [Run_mark] naming
    the world, a metrics run labelled by [ctx.cell_label], a profile
    probe and a per-world mbuf pool — and [ctx.faults] is installed
    when the world's load starts. *)

type world = {
  sim : Renofs_engine.Sim.t;
  topo : Renofs_net.Topology.t;
  server : Renofs_core.Nfs_server.t;
  stacks : (Renofs_transport.Udp.stack * Renofs_transport.Tcp.stack) array;
      (** one pair per client, in [topo.clients] order *)
}
(** A single-server world: one server and its clients (one, or
    scaling's N on a star). *)

val graph5_points : scale -> (string * (ctx -> world)) list
(** The cells of [graph5] at [scale], in cell order: each label with a
    function that builds and drives the cell's world — fileset preload,
    mount, warmup and the measured run — and returns it drained.  With
    a ctx carrying no sinks this is the detached fast path
    [nfsbench perf] times. *)

type fleet_world = {
  f_topo : Renofs_net.Topology.t;
  f_fleet : Renofs_fleet.Fleet.t;
  f_ready : unit Renofs_engine.Proc.Ivar.t;
      (** filled once every shard is provisioned and preloaded *)
}

val fleet_world :
  ctx:ctx ->
  label:string ->
  fileset:Fileset.t ->
  Renofs_engine.Sim.t ->
  Renofs_net.Topology.graph_spec ->
  (int -> Renofs_core.Nfs_client.t -> unit) ->
  fleet_world
(** [fleet_world ~ctx ~label ~fileset sim spec body] builds [spec]'s
    graph topology in [sim], attaches [ctx]'s observers (the trace
    segment is marked [label]) and brings up a {!Renofs_fleet.Fleet}
    with one hash-placed shard ["/home<i>"] per client.  It spawns one
    process that provisions the shards, preloads [fileset] under each,
    installs [ctx.faults] (so schedule times count from the end of
    provisioning) and fills [f_ready]; then, for each client [i], a UDP
    stack and a process that waits for [f_ready], sleeps [i * 3 ms]
    (the staggered mount storm), mounts its shard with
    {!Renofs_core.Nfs_client.reno_mount} and runs [body i mount].
    Nothing runs until the caller advances [sim]. *)

val read_back :
  Renofs_vfs.Fs.t -> file:int -> off:int -> len:int -> bytes option
(** The durability checks' read-back: [len] bytes at [off] of inode
    [file], or [None] when the file or range is gone. *)

val verdict_sink :
  ctx -> (Renofs_trace.Trace.record_ -> unit) -> Renofs_trace.Trace.t
(** [ctx.trace], or a sink keeping no ring, with [observe] as its
    hook: a judging cell's sink, made before its world so the fold sees
    every record. *)


