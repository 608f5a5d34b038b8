(** A host CPU as a non-preemptive two-priority queueing resource.

    Work is expressed in seconds of compute (derive it from instruction
    counts with {!seconds_of_instructions}).  [Interrupt]-priority work is
    always served before [Normal] work, modelling device interrupt
    handling on the MicroVAXII.  Cumulative busy time supports the
    idle-loop-counter CPU-utilization instrumentation from the paper's
    appendix. *)

type t

type priority = Interrupt | Normal

val create : Sim.t -> mips:float -> t
(** A CPU executing [mips] million instructions per second.  The paper's
    test machines are 0.9 MIPS MicroVAXIIs; the DS3100 client in Table 4
    is ~14 MIPS. *)

val seconds_of_instructions : t -> float -> float
(** Convert an instruction count to seconds on this CPU. *)

val slowdown : t -> float

val set_slowdown : t -> float -> unit
(** Multiply all subsequently queued work by [factor] (default 1.0;
    must be positive).  Fault schedules use this to model a server CPU
    degraded for an interval; work already queued is unaffected. *)

val consume : ?priority:priority -> t -> float -> unit
(** Block the calling process until the CPU has executed [seconds] of its
    work.  Must be called from inside a process. *)

val consume_k : ?priority:priority -> t -> float -> (unit -> unit) -> unit
(** [consume_k t seconds k] runs [k] once the CPU has executed [seconds]
    of work — {!consume} in continuation-passing style.  Queues the same
    job at the same moment as [consume] would (identical event
    sequences), but needs no surrounding process: no fiber, no effect
    suspension.  The backbone of the per-packet receive path, where a
    process existed only to wait for the CPU.  [k] runs from the CPU
    completion event; if [seconds] is zero it runs immediately. *)

val charge : ?priority:priority -> t -> float -> unit
(** Queue [seconds] of work without waiting for it; used for interrupt
    service routines whose completion nobody blocks on.  The work still
    occupies the CPU and delays other work. *)

val busy_time : t -> float
(** Total seconds of work completed (plus the elapsed part of any work in
    service) since creation. *)

val utilization : t -> since_time:float -> since_busy:float -> float
(** Busy fraction over the window from [since_time] (with busy counter
    value [since_busy]) to now. *)
