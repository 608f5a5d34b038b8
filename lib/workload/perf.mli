(** Wall-clock performance of the simulator itself.

    Every other gate in this library checks *simulated* latencies; this
    one measures how fast the engine turns real CPU time into simulated
    events.  {!run} executes a fixed cell set — the graph5 full sweep
    ({!Experiments.graph5_points} [Full]: 6 loads x 3 transports over
    the 56K WAN world, the timer-heaviest standard experiment) with no
    trace or metrics sinks attached, so it times the detached fast path
    — and reports aggregate events/s and RPCs/s of wall clock.

    [nfsbench perf] runs it; [make perf-baseline] commits the result as
    [BENCH_perf.json]; [make perf-gate] fails when either rate drops
    more than the tolerance below the baseline (wide, because container
    wall clocks are noisy), or when any cell's event, RPC or minor-word
    count differs from the baseline's at all (see {!diff}). *)

type cell = {
  c_label : string;
  c_wall_s : float;  (** real seconds this cell took *)
  c_events : int;  (** simulator events processed *)
  c_rpcs : int;  (** NFS RPCs the server completed *)
  c_minor_words : int;  (** words allocated on the minor heap ([Gc.minor_words]) *)
}

type t = {
  cells : cell list;
  wall_s : float;  (** sum over cells *)
  events : int;
  rpcs : int;
  minor_words : int;
  events_per_s : float;
  rpcs_per_s : float;
  p_profile : Renofs_profile.Profile.snapshot option;
      (** per-subsystem attribution from the profiled second pass *)
}

val run : ?progress:(string -> unit) -> ?profile:bool -> unit -> t
(** Execute the fixed cell set serially (wall-clock measurement wants
    the machine to itself; there is no [?jobs]).  [progress] is called
    with each cell's label as it starts.  With [~profile:true] a second
    pass runs the same cells with the self-profiler attached and stores
    the attribution snapshot in [p_profile]; the gate rates always come
    from the first, detached pass. *)

(** {2 renofs-perf/1 JSON} *)

val write_file : path:string -> t -> unit
(** Deterministic field order: [schema], [wall_s], [events], [rpcs],
    [minor_words], [events_per_s], [rpcs_per_s], [cells] (each with
    [label], [wall_s], [events], [rpcs], [minor_words]), then [profile] (the
    {!Renofs_profile.Profile.to_json} document) when there is one.
    Numbers keep every digit.  (The wall-clock values themselves are of
    course not reproducible.) *)

val read_file : string -> (t, string) result

(** {2 The gate} *)

type verdict = {
  regressions : string list;
      (** a rate fell more than [tolerance] below the baseline; a
          cell's event, RPC or minor-word count differs from the
          baseline's (these are exact for a build, so a change that
          moves them on purpose runs [make perf-baseline] and says
          why); a cell is missing or new *)
  notes : string list;
      (** informational: rate movement within tolerance, a single
          cell's beyond-tolerance rate (too noisy to gate on), and
          subsystem-share shifts when both files carry a self-profile *)
}

val diff : tolerance:float -> baseline:t -> current:t -> verdict
(** [tolerance] is a fraction of the baseline rate, e.g. [0.30]. *)
