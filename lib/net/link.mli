(** Unidirectional links with serialization, propagation delay, a
    drop-tail output queue and optional random loss.

    One link direction transmits a single packet at a time at its
    bandwidth; a full queue drops arriving packets (the congestion signal
    everything in Section 4 reacts to). *)

type stats = {
  mutable packets_sent : int;
  mutable bytes_sent : int;
  mutable queue_drops : int;
  mutable error_drops : int;
  mutable mangled : int;  (** packets damaged by the {!set_mangle} stage *)
}

type t

val create :
  Renofs_engine.Sim.t ->
  name:string ->
  bandwidth_bps:float ->
  delay:float ->
  queue_limit:int ->
  ?loss:float ->
  ?owner:int ->
  rng:Renofs_engine.Rng.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** [loss] is a per-packet random corruption probability applied at the
    receiving end (default 0).  [owner] is the transmitting node's id,
    recorded on trace events (default -1). *)

val set_trace : t -> Renofs_trace.Trace.t option -> unit
(** Attach (or detach) a trace sink.  With a sink, the link records
    [Pkt_enqueue] / [Pkt_deliver] for every packet except background
    discard-port cross-traffic, and [Pkt_drop] for every drop. *)

val send : t -> Packet.t -> unit
(** Enqueue for transmission; silently dropped (and counted) if the queue
    holds [queue_limit] packets. *)

val name : t -> string
val queue_length : t -> int
(** Packets waiting, excluding the one in transmission. *)

val stats : t -> stats

(** {2 Fault-injection hooks}

    Used by [Renofs_fault] to apply loss bursts and link flaps at
    simulated times; harmless to call by hand. *)

val loss : t -> float
val set_loss : t -> float -> unit
(** Change the per-packet corruption probability (clamped to [0..1]);
    applies to packets whose transmission completes after the call. *)

val set_up : t -> bool -> unit
(** A downed link drops every newly offered packet (counted as an error
    drop, traced as [Link_down]); packets already queued or in flight
    still deliver.  Links start up. *)

type mangle_op = Corrupt | Truncate | Duplicate | Reorder
(** What the wire-corruption stage can do to a packet that survives
    transmission: flip exactly one payload bit, cut a random tail off
    the payload, deliver an extra deep copy slightly later, or delay the
    packet past its successors. *)

val set_mangle : t -> ?seed:int -> mangle_op -> float -> unit
(** [set_mangle t op rate] sets the per-packet probability of [op]
    (clamped to [0..1]).  The first call allocates the link's mangler
    and seeds its private RNG from [seed] (default 0) mixed with the
    link name, so every link direction draws an independent,
    reproducible stream; later calls reuse the existing RNG and ignore
    [seed].  A link with no mangler configured pays one branch per
    packet.  Mangled packets count in [stats.mangled] and trace as
    [Pkt_mangle]. *)

val mangle_rate : t -> mangle_op -> float
(** The current rate for [op] (0 when no mangler is configured) — lets
    fault schedules save and restore rates around a burst. *)

val busy_time : t -> float
(** Cumulative transmission seconds — a counter; sampled periodically
    and differentiated, it yields the utilization over each window. *)
