(** An Nhfsstone-style NFS load generator [Legato89].

    Offers a target RPC rate against a mounted filesystem with a given
    operation mix, from several concurrent child processes, and reports
    the achieved rate, op latency and retransmissions.  As in the paper's
    Section 4 experiments, the mixes used for the transport comparison
    avoid operations that modify the subtree, so runs are repeatable
    without reloading. *)

type op = Op_lookup | Op_read | Op_getattr | Op_write | Op_readdir

type mix = (op * float) list
(** Weighted operation mixture. *)

val lookup_mix : mix
(** 100% lookup — Graphs 1, 3 and 5. *)

val read_lookup_mix : mix
(** 50/50 read/lookup — Graphs 2 and 4. *)

val default_mix : mix
(** Nhfsstone's stock mixture (lookup-dominant, 8% writes), for
    workloads beyond the paper's two; writes modify the subtree, so
    preload before every run as the appendix prescribes. *)

val bulk_mix : mix
(** Sustained bulk-transfer phases (xDFS-style file movement):
    45% read / 45% write / 10% lookup.  Heavily mutating — preload
    before every run. *)

val mix_of_name : string -> mix option
(** ["lookup"], ["read-lookup"], ["default"], ["bulk"] — the stable
    names scenario files use. *)

val mix_names : string list
(** The names {!mix_of_name} accepts, for error messages. *)

type config = {
  rate : float;  (** offered ops/second *)
  duration : float;  (** measurement interval, seconds *)
  children : int;  (** concurrent generator processes *)
  mix : mix;
  seed : int;
}

type result = {
  achieved : float;  (** completed ops/second *)
  ops_completed : int;
  retransmits : int;  (** the mount's retransmissions during the run *)
  read_rate : float;  (** completed read ops/second *)
  mean_op_latency : float;  (** syscall-level latency, seconds *)
}

val run :
  ?latency_hist:Renofs_engine.Stats.Hist.t ->
  Renofs_core.Nfs_client.t ->
  Fileset.t ->
  config ->
  result
(** Drive the load from inside a process; returns after [duration] of
    virtual time (plus drain): a {!run_program} of one constant
    segment.  [latency_hist] additionally records every op's
    syscall-level latency in milliseconds — share one histogram across
    a population of clients to get fleet-wide quantiles. *)

(** {2 Rate-schedule programs}

    A time-varying load: a sequence of segments, each with its own
    offered rate (optionally a linear ramp) and operation mix.  This is
    the hook the scenario layer's diurnal curves, flash crowds and
    bulk-transfer phases compile down to. *)

type segment = {
  sg_label : string;  (** e.g. ["night"], ["peak"], for diagnostics *)
  sg_duration : float;  (** seconds of virtual time *)
  sg_rate : float;  (** offered ops/second at segment start *)
  sg_rate_end : float option;
      (** when set, the rate ramps linearly to this value over the
          segment (flash-crowd rise, diurnal shoulder) *)
  sg_mix : mix;
}

type program = {
  pg_segments : segment list;
  pg_children : int;
  pg_seed : int;
}

val run_program :
  ?latency_hist:Renofs_engine.Stats.Hist.t ->
  Renofs_core.Nfs_client.t ->
  Fileset.t ->
  program ->
  result
(** As {!run}, but pacing follows the program: each child draws its
    next inter-arrival gap from the instantaneous per-child rate, an op
    uses the mix of the segment it fires in, and zero-rate segments are
    skipped to their boundary.  [achieved] and [read_rate] divide by
    the total duration of all segments.  Raises [Invalid_argument] on
    an empty program. *)
