(** The third observability pillar: the simulator watching itself.

    Where renofs_trace and renofs_metrics observe the {e simulated}
    system, a [Profile.t] observes the {e simulator} — per-subsystem
    wall-clock attribution, per-tag event fire counts and duration
    histograms from {!Renofs_engine.Sim}, and GC/allocation pressure
    from [Gc] deltas — so a perf regression has somewhere to look, not
    just a number that moved.

    A profile turns into a {!Renofs_engine.Probe.t} via {!probe};
    attach it with [Sim.set_probe] (and [Trace.set_probe]) and every
    instrumented site in the engine and the layers above starts
    charging its wall time to a subsystem slot.  Attribution is
    self-time over a slot stack (see {!Renofs_engine.Probe}), so the
    per-slot seconds sum exactly to the profiled wall time.

    Two kinds of data come out.  The wall-clock numbers ([self_s],
    duration histograms, GC deltas) are real-time measurements and vary
    run to run; the {e counts} (scope enters per slot, event fires per
    tag) are driven purely by the simulation and are deterministic —
    byte-identical at any [--jobs] — which is what {!counts} exposes
    for the determinism gate. *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A detached profile; [clock] (default [Unix.gettimeofday]) is
    injectable so attribution logic is testable on a fake clock. *)

val probe : t -> Renofs_engine.Probe.t
(** The hook record to attach with [Sim.set_probe] / [Trace.set_probe].
    One profile may serve several sims (a multi-world cell), as long as
    they run in one domain. *)

val start : t -> unit
(** Open a measurement window: reset the attribution stack to the
    harness slot and snapshot the GC counters.  Call it in the domain
    that will run the work — GC counters are per-domain. *)

val stop : t -> unit
(** Close the window: charge the tail to the current slot, accumulate
    the window's wall time and GC deltas.  [start]/[stop] windows
    accumulate, so one profile can cover several serial passes. *)

val merge : into:t -> t -> unit
(** Fold [src] counters into [into] (cell-order merge, like the trace
    and metrics sinks). *)

val counts : t -> string
(** Canonical rendering of the deterministic slice only — per-slot
    scope-enter counts and per-tag fire counts.  Byte-identical across
    [--jobs] for the same simulation. *)

(** {1 Reporting} *)

type slot_stat = {
  ss_name : string;
  ss_self_s : float;  (** self wall-clock seconds attributed to the slot *)
  ss_enters : int;  (** scope enters (deterministic) *)
  ss_fires : int;  (** event fires tagged with the slot (deterministic) *)
  ss_fire_s : float;  (** summed durations of those fires *)
  ss_hist : int array;  (** log2(ns) fire-duration histogram *)
}

type snapshot = {
  p_wall_s : float;  (** total profiled wall time (sum of windows) *)
  p_slots : slot_stat list;  (** one per {!Renofs_engine.Probe} slot *)
  p_events : int;  (** total probed event fires *)
  p_minor_words : float;
  p_promoted_words : float;
  p_direct_major_words : float;
      (** allocated straight into the major heap (blocks too large for
          the minor heap): the [major_words] delta less [promoted_words] *)
  p_minor_collections : int;
  p_major_collections : int;
}

val snapshot : t -> snapshot

val print : Format.formatter -> snapshot -> unit
(** The [profile] table: per-subsystem self time, share of wall, scope
    enters, event fires and mean fire duration, then the GC line. *)

(** {1 renofs-profile/1 JSON} *)

val to_json : snapshot -> Renofs_json.Json.json
(** The document {!write_file} prints and {!of_json} reads back:
    [schema], [wall_s], [events], a [gc] object ([minor_words],
    [promoted_words], [direct_major_words], [minor_collections],
    [major_collections]) and one [slots] entry per slot ([name],
    [self_s], [enters], [fires], [fire_s], [hist]).  Numbers keep every
    digit (the {!Renofs_json.Json} float rule).  A [gc] object without
    [direct_major_words], written before it existed, reads it as [0]. *)

val of_json : ctx:string -> Renofs_json.Json.json -> snapshot
(** Raises {!Renofs_json.Json.Bad} on schema violations, including an
    attribution sum more than 10% away from the recorded wall time (for
    walls long enough to judge, > 1 ms) — so validating a profile file
    is also checking the accounting. *)

val write_file : path:string -> t -> unit
val read_file : string -> (snapshot, string) result
