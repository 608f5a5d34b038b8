(** Day-in-the-life scenarios with SLO verdicts.

    A scenario binds, in one declarative [renofs-scenario/1] document,
    everything a "day in the life" run needs: a fleet {!world}
    (servers, clients, router tier, WAN mix), a time-varying load
    program (the {!Renofs_workload.Nhfsstone.segment} rate schedule —
    diurnal curves, flash crowds, bulk phases), a fault timeline
    (reusing [renofs-fault/1] action objects verbatim), an {!slo} to
    judge the run against, and a {!Renofs_workload.Run_spec.t} run
    section holding [nfsbench slo]'s flags.

    [nfsbench slo] compiles each scenario to one experiment cell
    ({!cell}), so a suite sweeps under the ordinary deterministic
    runner: byte-identical output at any [--jobs].  The {!Slo} fold
    judges every record of the run as it is made — p99 latency per
    operation class, availability over fixed windows, worst
    crash-to-service recovery gap, and the
    {!Renofs_fault.Fault.Check} integrity invariants — and the verdict
    column says [PASS] or [FAIL:] followed by the violated SLO names;
    {!Renofs_workload.Experiments.failures} names the failing cells. *)

type world = {
  w_servers : int;  (** 1 .. 90 *)
  w_clients : int;  (** at least 1; one shard ["/home<i>"] per client *)
  w_tier : Renofs_net.Topology.tier;
  w_wan_fraction : float;  (** fraction of clients on 56K edges *)
  w_seed : int;  (** topology/workload seed; 0 = default world *)
}

type slo = {
  slo_p99_ms : (string * float) list;
      (** p99 ceiling (ms) per operation class — a procedure name as
          printed by {!Renofs_trace.Trace.proc_name} (["read"],
          ["lookup"], ...) or ["*"] for all RPCs pooled.  A class with
          no samples in the run passes vacuously. *)
  slo_availability : float;
      (** floor on the fraction of judged {!slo_window}s that saw at
          least one RPC reply; a window with no requests is not
          judged.  [0.] disables the check. *)
  slo_window : float;  (** availability window, seconds (default 1.0) *)
  slo_max_recovery_s : float option;
      (** ceiling on the worst per-server crash-to-first-service gap
          ({!Renofs_fault.Fault.Check.recovery_time}); [None] skips *)
  slo_integrity : bool;
      (** require every {!Renofs_fault.Fault.Check} invariant, judged
          per server node with each server's own read-back *)
}

val default_slo : slo
(** No latency ceilings, no availability floor, 1s window, no recovery
    ceiling, integrity on. *)

type t = {
  sc_name : string;
  sc_description : string;
  sc_world : world;
  sc_load : Renofs_workload.Nhfsstone.segment list;
      (** the per-client rate schedule; never empty *)
  sc_faults : Renofs_fault.Fault.action list;
      (** action times are relative to load start (after provisioning
          and the mount storm), not world construction *)
  sc_slo : slo;
  sc_run : Renofs_workload.Run_spec.t;
      (** the file's ["run"] section; the CLI overrides it via
          {!Renofs_workload.Run_spec.override} *)
}

(** {1 SLO evaluation}

    One fold over the record stream, hooked on the scenario cell's
    sink; {!Slo.evaluate} runs it over a list, so verdict logic is
    testable on synthetic streams without running a world. *)

module Slo : sig
  type breach = {
    b_slo : string;
        (** ["p99-read"], ["p99-all"], ["availability"], ["recovery"],
            or ["integrity:<invariant>"] *)
    b_detail : string;  (** measured vs ceiling, human-readable *)
  }

  type outcome = {
    o_p99_ms : float;  (** p99 over every completed RPC, ms *)
    o_availability : float;  (** fraction of judged windows available *)
    o_recovery : float;  (** worst per-server recovery gap, seconds *)
    o_breaches : breach list;  (** empty = PASS *)
  }

  type t
  (** The fold: an invariant fold, the span join, one float per
      completed RPC per class, and the availability windows — fixed
      windows of [slo_window] seconds anchored at the first RPC event,
      each judged when it holds a send or retransmit and available
      when it holds a reply ([1.] when none is judged). *)

  val create : slo -> t
  val observe : t -> Renofs_trace.Trace.record_ -> unit

  val outcome :
    t ->
    server_nodes:int list ->
    read_back:(node:int -> file:int -> off:int -> len:int -> bytes option) ->
    outcome
  (** Judge the records observed so far.  [server_nodes] are the node
      ids of the fleet's servers: recovery and the durability checks
      are judged on each alone, so one server's crash is never paired
      with another's first service.  [read_back ~node] reads an extent
      back from that server's post-run file system.  Breaches come in
      SLO order: p99 per class, availability, recovery, integrity. *)

  val evaluate :
    slo ->
    server_nodes:int list ->
    read_back:(node:int -> file:int -> off:int -> len:int -> bytes option) ->
    Renofs_trace.Trace.record_ list ->
    outcome
  (** {!outcome} of one fold over a record list. *)

  val p99 : float list -> float
  (** The 99th percentile (nearest-rank on the sorted samples); NaN
      samples are dropped; [0.] of the empty list.  A sample exactly
      at a ceiling passes — breaches are strict inequalities. *)
end

(** {1 Builtins} *)

val builtins : t list
(** The five [nfsbench slo] defaults: [diurnal] (overnight quiet,
    morning ramp, daytime plateau, evening bulk backup), [flash-crowd]
    (8x rate spike and decay), [crash-at-peak] (one server crashes at
    the daily peak and reboots), [flapping-wan] (half the clients on
    56K lines that flap), [background-corruption] (2% wire corruption
    all day, absorbed by checksums + retransmission). *)

val builtin_names : string list
val find_builtin : string -> t option

(** {1 JSON scenario files}

    Schema ["renofs-scenario/1"]:

    {v
    { "schema": "renofs-scenario/1",
      "name": "crash-at-peak",
      "description": "server0 crashes at the daily peak",
      "world": { "servers": 2, "clients": 6, "tier": "backbone:1",
                 "wan_fraction": 0.0, "seed": 0 },
      "load": [
        { "label": "warm",  "duration": 6.0, "rate": 3.0, "mix": "default" },
        { "label": "climb", "duration": 4.0, "rate": 3.0, "rate_end": 9.0,
          "mix": "default" },
        { "label": "peak",  "duration": 10.0, "rate": 9.0, "mix": "default" } ],
      "faults": [
        { "kind": "server_crash", "at": 12.0, "downtime": 3.0,
          "server": "server0" } ],
      "slo": { "p99_ms": { "*": 6000.0 }, "availability": 0.8,
               "window": 1.0, "max_recovery_s": 10.0, "integrity": true },
      "run": { "jobs": 2 } }
    v}

    ["world"], ["faults"], ["slo"] and ["run"] are optional (defaults:
    2 servers, 6 clients, [backbone:1], no WAN clients, seed 0; no
    faults; {!default_slo}; nothing set); ["load"]
    is required and non-empty.  ["tier"] is ["backbone:N"] or
    ["fat-tree:SxL"]; segment ["mix"] names come from
    {!Renofs_workload.Nhfsstone.mix_of_name}; fault action objects are
    exactly [renofs-fault/1]'s.  Unknown fields anywhere are errors —
    a typo fails loudly instead of running with defaults. *)

val of_json : Renofs_json.Json.json -> (t, string) result
val parse : string -> (t, string) result
val load_file : string -> (t, string) result

val resolve : string -> (t * Renofs_profile.Flight.scenario, string) result
(** A builtin name if one matches, otherwise a scenario file path, read
    once.  The scenario comes with how it was given, which its flight
    bundle records: a builtin's name, or the file's path and the bytes
    it was parsed from. *)

val resolve_all :
  string list -> ((t * Renofs_profile.Flight.scenario) list, string) result
(** [nfsbench slo]'s arguments, each {!resolve}d; every builtin when the
    list is empty.  The first argument that resolves to nothing is the
    error. *)

(** {1 Running} *)

val label : t -> string
(** The label of the scenario's cell: ["slo/"] and its name. *)

val cell : t -> Renofs_workload.Experiments.cell
(** One self-contained cell: build the fleet world, provision and
    mount with the trace gated off, then enable tracing, install the
    fault timeline and run the load program on every client; afterwards
    evaluate the SLO and emit the row
    [scenario | elapsed | ops | achieved | p99 | avail | recovery |
    verdict]. *)

val suite_spec : t list -> Renofs_workload.Experiments.spec
(** The ["slo"] spec: one {!cell} per scenario, rows in scenario
    order. *)
