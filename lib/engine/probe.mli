(** Self-profiling hooks for the engine.

    A probe is a record of closures that a profiler (lib/profile)
    installs on a {!Sim.t} so the engine and the layers above it can
    attribute wall-clock time to the subsystem actually executing —
    without the engine depending on the profiler.  Every instrumented
    site follows the observer discipline used by trace and metrics: one
    [match] on an [option], and nothing else, when detached.

    Attribution is a slot stack.  Slot 0 ([harness]) is the base: time
    not claimed by any scope — the workload driver, world construction,
    measurement code.  {!t.enter} pushes a slot and returns a depth
    token; {!t.leave} restores that depth.  Restoring is a truncation,
    not a pop, which makes the scheme safe around effects-based fibers:
    a fiber segment that enters a scope and then suspends leaves its
    frame on the stack, and the enclosing event's {!t.fire_leave}
    truncates back to the event boundary, so time stays conserved and
    the stack can never grow without bound.  A stale [leave] token from
    a resumed continuation is at worst a no-op. *)

(** {1 Subsystem slots} *)

val harness : int  (** 0 — driver, world build, measurement (the base) *)

val scheduler : int
(** event-queue work: [Sim.run]'s loop, scheduling and cancelling *)

val cpu : int  (** simulated-CPU completion dispatch *)

val link : int  (** link transmit/propagation events *)

val transport : int  (** datagram dispatch into protocol handlers *)

val server : int  (** NFS server request service *)

val vfs : int  (** file-system operations under the server *)

val observer : int  (** trace recording and metrics sampling overhead *)

val n_slots : int

val slot_name : int -> string
(** Stable lowercase names ("harness", "scheduler", ...); out-of-range
    slots render as ["slot<i>"]. *)

(** {1 The hook record} *)

type t = {
  enter : int -> int;
      (** [enter slot] charges elapsed time to the current top, pushes
          [slot], and returns the previous depth as a restore token. *)
  leave : int -> unit;
      (** [leave token] charges elapsed time to the current top and
          truncates the stack back to [token] depth.  A token at or
          above the current depth is a no-op. *)
  current : unit -> int;  (** the slot on top of the stack *)
  fire_enter : int -> int;
      (** Event-fire begin: like [enter tag], and additionally counts
          the fire and starts the per-event duration clock. *)
  fire_leave : int -> unit;
      (** Event-fire end: records the event duration in the tag's
          histogram and truncates to the token depth. *)
}

val scoped : t option -> int -> (unit -> 'a) -> 'a
(** [scoped probe slot f] runs [f] inside [slot] when a probe is
    attached (exception-safe), and is just [f ()] when detached.  For
    cold and warm call sites; the hottest paths hand-inline the match
    to avoid the closure. *)
