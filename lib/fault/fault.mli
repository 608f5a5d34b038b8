(** Declarative fault schedules and trace-driven recovery invariants.

    A {!schedule} is a named timeline of {!action}s — server crashes,
    link flaps, loss bursts, CPU slowdowns, partitions — that
    {!install} compiles onto {!Renofs_engine.Sim} timers against any
    built world, applying each action through the existing
    [Nfs_server] / [Link] / [Cpu] hooks.  Any experiment cell can
    therefore run under any schedule ("the stateless server concept was
    used so that crash recovery is trivial" — this is the layer that
    puts the claim under test).

    {!Check} folds the run's [Renofs_trace] stream, one record as it is
    made, and delivers verdicts on the recovery invariants the paper's
    design implies. *)

(** {1 Schedules} *)

type mangle_spec = {
  at : float;
  duration : float;
  link : string;  (** link base, full direction name, or ["*"] *)
  rate : float;  (** per-packet probability, clamped to [0..1] *)
  seed : int;
      (** mixed with the link name into the mangler's RNG stream; two
          schedules differing only in [seed] damage different packets *)
}
(** Parameters shared by the four wire-mangling actions. *)

type action =
  | Server_crash of { at : float; downtime : float; server : string }
      (** Crash the matching servers at [at] (volatile state lost),
          reboot them [downtime] seconds later.  [server] is a node
          name (["server3"], one shard of a fleet) or ["*"] for every
          server in the world — what single-server schedules use. *)
  | Link_down of { at : float; duration : float; link : string }
      (** Administratively down the matching links for [duration].
          [link] names a link base (["eth0"], matching both
          directions), a full direction name (["eth0:client>server"]),
          or ["*"] for every link in the world. *)
  | Loss_burst of { at : float; duration : float; link : string; loss : float }
      (** Raise the matching links' per-packet corruption probability
          to [loss] for [duration], then restore each link's previous
          value. *)
  | Cpu_slow of { at : float; duration : float; node : string; factor : float }
      (** Multiply the named node's CPU work by [factor] for
          [duration]. *)
  | Partition of { at : float; duration : float; between : string * string }
      (** Down every link direction directly joining the two named
          nodes, in both directions, for [duration]. *)
  | Corrupt of mangle_spec
      (** Flip one random bit in [rate] of the packets crossing the
          matching links — delivered damaged, not dropped, so only an
          end-to-end checksum can tell.  The Sun "checksums off"
          corruption story from the paper's Section 9 reproduces as a
          data-integrity violation when UDP checksums are disabled. *)
  | Truncate of mangle_spec
      (** Cut a random-length tail off [rate] of the packets. *)
  | Duplicate of mangle_spec
      (** Deliver an extra copy of [rate] of the packets shortly after
          the original. *)
  | Reorder of mangle_spec
      (** Delay [rate] of the packets past their successors. *)

type schedule = { name : string; description : string; actions : action list }

val describe : action -> string
(** Human-readable one-liner, also recorded as the [Fault_inject] trace
    event when the action fires. *)

val builtins : schedule list
(** The schedules [nfsbench faults] lists and the chaos experiment
    family runs: crash, flaky, flap, slow-server, garble, partition. *)

val find_builtin : string -> schedule option

(** {1 JSON schedule files}

    Schema ["renofs-fault/1"]:

    {v
    { "schema": "renofs-fault/1",
      "name": "crash",
      "description": "server crashes at t=4s, reboots 3s later",
      "actions": [
        { "kind": "server_crash", "at": 4.0, "downtime": 3.0 },
        { "kind": "link_down",    "at": 3.0, "duration": 0.5, "link": "eth0" },
        { "kind": "loss_burst",   "at": 2.0, "duration": 6.0, "link": "*",
          "loss": 0.05 },
        { "kind": "cpu_slow",     "at": 2.0, "duration": 6.0, "node": "server",
          "factor": 8.0 },
        { "kind": "partition",    "at": 3.0, "duration": 2.0,
          "between": ["router1", "router2"] },
        { "kind": "corrupt",      "at": 1.0, "duration": 8.0, "link": "*",
          "rate": 0.01, "seed": 7 } ] }
    v}

    The mangling kinds [corrupt], [truncate], [duplicate] and [reorder]
    share the same fields; ["seed"] is optional and defaults to [0].
    [server_crash] takes an optional ["server"] node name (default
    ["*"], every server) to crash one shard of a fleet. *)

val action_of_json : Renofs_json.Json.json -> action
(** One action object (the elements of a schedule's ["actions"] array);
    raises {!Renofs_json.Json.Bad} on shape errors and on any field its
    kind does not take, naming the field.  Exposed so other
    schemas embedding fault actions (e.g. [renofs-scenario/1]) decode
    them identically. *)

val of_json : Renofs_json.Json.json -> (schedule, string) result
(** A [renofs-fault/1] schedule: ["schema"], ["name"], ["actions"] and
    an optional ["description"]; any other field is an error. *)

val parse : string -> (schedule, string) result
val load_file : string -> (schedule, string) result

val resolve : string -> (schedule, string) result
(** A builtin name if one matches, otherwise a schedule file path. *)

(** {1 Installation} *)

type env = {
  sim : Renofs_engine.Sim.t;
  nodes : Renofs_net.Node.t list;  (** link/node name lookups *)
  servers : Renofs_core.Nfs_server.t list;
      (** crash targets — one for the paper worlds, N for a fleet *)
  trace : Renofs_trace.Trace.t option;  (** [Fault_inject] sink *)
}

val install : env -> schedule -> unit
(** Compile every action onto sim timers, with action times relative
    to the sim clock at installation (so a schedule installed after a
    warmup phase perturbs the measured run, not the warmup).  Actions
    referencing names absent from the world apply to nothing (and
    still record [Fault_inject]). *)

(** {1 Invariant checking} *)

module Check : sig
  type verdict = { v_name : string; v_ok : bool; v_detail : string }

  type t
  (** A fold over the record stream, one {!observe} per record in
      order.  A harness hooks it on its sink ([Trace.set_hook]) before
      the world is built, so its verdicts cover every record, whatever
      the ring keeps.  It holds live state only: per (server node,
      file) the extents nothing later superseded, the unexpired write
      leases, and per node the non-idempotent executions since its last
      crash and its open crash.  A [Run_mark] starts a fresh world and
      clears what the post-run file system cannot answer for.

      {!verdicts} judges five invariants, in this order:

      - [durable-writes]: every acknowledged WRITE ([Write_committed])
        no later write to the same file on that node overlaps must
        digest-match what [read_back] returns from the node's post-run
        file system.
      - [committed-durable]: the v3 verifier contract.  An UNSTABLE
        write ([Write_unstable]) covered by a later COMMIT
        ([Commit_ok]) {e under the same write verifier}, and not
        superseded later, must digest-match likewise; the server's own
        COMMIT flush echo (an identical [Write_committed]) does not
        supersede.  Uncovered unstable data may legally vanish, and a
        verifier change between write and commit leaves the write
        uncovered.  A server that acknowledges COMMIT without flushing
        is convicted here.
      - [hard-mount-errors]: any [Wl_error] with [soft = false].
      - [no-double-effect]: with the duplicate-request cache on, two
        [Srv_service] events on one node for the same non-idempotent
        (xid, proc) (CREATE/REMOVE/RENAME) with no [Srv_crash] there
        between them.  Re-execution across a crash is the paper's known
        at-least-once hazard and is not flagged.
      - [no-stale-lease-reads]: a [Cached_read] whose [mtime] predates
        the file's latest [Write_committed] while another holder's
        write lease ([Lease_grant]) is unexpired and no crash voided
        it.

      Without [read_back] the two durability verdicts pass vacuously,
      saying so in the detail. *)

  val create : unit -> t
  val observe : t -> Renofs_trace.Trace.record_ -> unit

  val verdicts :
    ?read_back:(node:int -> file:int -> off:int -> len:int -> bytes option) ->
    ?nodes:int list ->
    t ->
    verdict list
  (** The five verdicts over the records observed so far, reading back
      the extents of [nodes] only (default: every node).  Add
      invariants here, not in callers: {!summary} and every harness
      derive their counts from this list's length. *)

  val recovery : ?nodes:int list -> t -> float
  (** Worst crash-to-first-service gap over [nodes] (default: all): on
      each node, the time from a [Srv_crash] to its next [Srv_service].
      [0.] when no crash occurred; an unrecovered crash counts until the
      node's latest record. *)

  val check_all :
    ?read_back:(file:int -> off:int -> len:int -> bytes option) ->
    Renofs_trace.Trace.record_ list ->
    verdict list
  (** {!verdicts} of one fold over a record list, reading every node
      back through [read_back]. *)

  val data_integrity :
    expected:(int * int * bytes) list ->
    read_back:(file:int -> off:int -> len:int -> bytes option) ->
    verdict
  (** End-to-end content check against a client-side ledger: each
      [(file, off, data)] extent the workload believes it wrote must
      read back byte-identical.  Unlike [durable-writes] — whose
      digests are recorded {e server-side} and therefore cannot see a
      request damaged on the wire — this catches silent wire corruption
      accepted by a checksum-less transport.  Not among {!verdicts};
      the fuzz harness appends it when it has a ledger. *)

  val summary : verdict list -> string
  (** ["N/N ok"] with [N = List.length verdicts] when all pass, or
      ["FAIL:" ^ names] of the failing invariants — never a hard-coded
      count. *)
end
