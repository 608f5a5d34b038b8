(** Simulated processes built on OCaml effect handlers.

    A process is plain OCaml code that may block — on a timer, an {!Ivar},
    a {!Mailbox} or a {!Cpu} — without inverting control.  Blocking is a
    [Suspend] effect: the process hands a [resume] thunk to a registrar and
    is continued later from the event queue, which preserves deterministic
    ordering. *)

val spawn : Sim.t -> (unit -> unit) -> unit
(** Start [body] as a new process at the current time (it first runs from
    the event queue, not synchronously). *)

val run : (unit -> unit) -> unit
(** Run [body] as a process synchronously, right now, with no event in
    between — the fiber-allocating half of {!spawn}.  For dispatch
    points that are already at the right simulated moment (e.g. a
    packet handler firing from a CPU-completion event) and only need a
    suspension context for the code they call. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process; [register resume] must
    arrange for [resume] to be called exactly once, later.  Only valid
    inside a process. *)

val sleep : Sim.t -> float -> unit
(** Block the calling process for a virtual duration. *)

(** Write-once cells; the simulated analogue of a reply slot. *)
module Ivar : sig
  type 'a t

  val create : Sim.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val is_full : 'a t -> bool
  val peek : 'a t -> 'a option

  val read : 'a t -> 'a
  (** Block until filled; returns immediately if already full. *)
end

(** Unbounded FIFO queues with blocking receive. *)
module Mailbox : sig
  type 'a t

  val create : Sim.t -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Counting semaphore; used for bounded resources such as biod slots. *)
module Semaphore : sig
  type t

  val create : Sim.t -> int -> t
  val acquire : t -> unit
  val release : t -> unit
  val available : t -> int
end
