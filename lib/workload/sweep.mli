(** Parallel execution of independent experiment cells.

    A sweep is a list of {!cell}s — self-contained [unit -> 'a]
    closures, one per (transport x load x topology x profile) point.
    Every cell builds its own simulated world ({!Renofs_engine.Sim.t},
    topology, xid space), so cells share no mutable state and can run
    on separate OCaml 5 domains.

    Determinism guarantee: {!run} reassembles results by cell index,
    never by completion order, so the output is byte-identical whatever
    [jobs] is.  Each cell's simulation is itself deterministic (no wall
    clock, no global RNG — seeds live in the cell closure), so the only
    thing parallelism may change is wall time. *)

type 'a cell
(** A unit of work: one measurement in its own world. *)

val cell : ?label:string -> (unit -> 'a) -> 'a cell
(** [cell ~label f] names [f] for diagnostics. *)

val label : 'a cell -> string

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the default for
    an unspecified [--jobs]. *)

val run : ?jobs:int -> 'a cell list -> 'a list
(** Execute the cells across [jobs] domains (default {!default_jobs};
    clamped to [1 .. length cells] — extra domains would have no cell
    to start on).  The calling domain is one of the workers, so
    [jobs = 1] runs every cell in it and spawns no domain.  Workers pull
    the next unstarted cell from a shared atomic counter, so long cells
    do not serialise behind short ones.  Results come back in cell
    order.

    If any cell raises, every other cell still runs; [run] then
    re-raises the exception of the lowest-indexed failing cell with its
    backtrace. *)
