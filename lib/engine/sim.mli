(** Discrete-event simulation core.

    A [Sim.t] owns a virtual clock and a queue of pending events ordered by
    [(time, sequence)].  All simulated activity — process wakeups, packet
    deliveries, timer expiries — is driven by this queue, which makes every
    run deterministic for a given seed.

    The queue is a binary min-heap of int slot ids, so schedule, fire and
    cancel are each O(log n) in the pending population and a cancelled
    event leaves the queue at once.  The keys sit in flat arrays in heap
    order, each event's time as an unboxed float beside its sequence
    number, so sifting moves only numbers and never passes through the
    GC's write barrier.  An event's closure and probe tag live in a pool
    of recycled slots, and a {!timer} names its slot and sequence number,
    so a plain {!at} or {!after} event allocates nothing in the queue and
    only {!timer_after} allocates a handle.  A handle left over after its
    event fired or was cancelled never touches the event that reuses the
    slot.

    Ordering is exactly [(time, sequence)] for every time, however far
    ahead and [infinity] included: an event scheduled earlier for the
    same instant always fires first, at any queue size.  A NaN time is
    rejected.  The heap replaced a calendar queue (Brown, CACM 1988),
    which sampled one bucket width for all pending events: in a large
    fleet, packet hops microseconds ahead shared buckets with thousands
    of RTO and think timers seconds ahead, and each insert scanned
    hundreds of them.  A heap has no width to tune. *)

type t

val create : unit -> t
(** A fresh simulator with the clock at [0.0]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at sim time fn] runs [fn] at absolute virtual [time].  Scheduling in
    the past or at NaN raises [Invalid_argument]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after sim delay fn] runs [fn] at [now sim +. delay]. *)

type timer
(** A cancellable handle for a scheduled event. *)

val timer_after : t -> float -> (unit -> unit) -> timer
(** Like {!after} but returns a handle that {!cancel} can revoke. *)

val cancel : timer -> unit
(** Revoke a timer; a no-op if it already fired or was cancelled. *)

val pending : timer -> bool
(** [true] until the timer fires or is cancelled. *)

val step : t -> bool
(** Run the single earliest event.  [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stop (leaving later events
    queued) once the next event is strictly past [until] and set the clock
    to [until]. *)

val events_processed : t -> int
(** Total events executed so far; useful for bounding tests. *)

val pending_events : t -> int
(** Events currently queued and not cancelled.  O(1). *)

(** {1 Self-profiling}

    A {!Probe.t} attached here is visible to every layer holding the
    sim, so instrumented sites need no extra plumbing.  When attached,
    {!run}, {!at}, {!after}, {!timer_after} and {!cancel} charge their
    heap work to the [scheduler] slot, every event fire is bracketed and
    attributed to the slot that scheduled it, and scheduling stamps each
    event with the slot active at the call.  When detached (the default)
    each hook is a single [match] branch. *)

val set_probe : t -> Probe.t option -> unit
(** Attach or detach a profiler probe. *)

val probe : t -> Probe.t option
(** The attached probe, for instrumented sites in higher layers. *)
