(** RPC-lifecycle tracing and metrics.

    A {!t} is an append-only ring buffer of timestamped, typed events,
    attached to the hosts and links of a simulation.  Every hook in the
    stack is behind an [option] check, so a run without a sink pays one
    branch per hook and allocates nothing.

    The ring copies each event into a 64-byte slot of a byte chunk and
    keeps no pointer to it, so a sink gives the GC nothing to promote
    or mark.  {!to_list}, {!merge} and {!export_jsonl} decode records
    from the slots, as fresh values on every call.

    The ring is a debugging aid for export, reports and flight
    bundles; verdicts never read it.  The chaos, fuzz and slo harnesses
    judge each record as it is made, through the sink's {!set_hook}
    fold, so their verdicts are exact at any run length.

    The event taxonomy follows the layers the paper attributes time to:
    the client RPC layer ({!Rpc_send} / {!Rpc_retransmit} / {!Rpc_reply},
    with {!Cwnd_update} / {!Rto_update} from the congestion-controlled
    transports), the wire ({!Pkt_enqueue} / {!Pkt_drop} / {!Pkt_deliver}
    per link direction, {!Frag_lost} for abandoned IP reassemblies), and
    the server ({!Srv_queue} socket-queue wait, {!Srv_service} execution
    time, {!Cache_hit} / {!Cache_miss} for the duplicate-request cache).

    {!Report} joins a trace's events by xid into per-RPC spans and
    derives an nfsstat-style per-procedure table plus a latency
    breakdown (wire / server queue / service / retransmit wait). *)

type drop_reason =
  | Queue_full  (** drop-tail router/link output queue overflow *)
  | Link_error  (** random per-packet corruption on the wire *)
  | Sock_overflow  (** receiving socket buffer full *)
  | Link_down  (** link administratively down (fault injection) *)
  | Bad_checksum  (** receiver checksum mismatch (mangled payload) *)
  | Garbled  (** undecodable RPC bytes discarded above the transport *)

type event =
  | Rpc_send of { xid : int32; proc : int }
  | Rpc_retransmit of { xid : int32; proc : int; retry : int; rto : float }
  | Rpc_reply of { xid : int32; proc : int; rtt : float }
  | Pkt_enqueue of { link : string; bytes : int; qlen : int }
  | Pkt_drop of { link : string; bytes : int; reason : drop_reason }
  | Pkt_deliver of { link : string; bytes : int }
  | Pkt_mangle of { link : string; bytes : int; op : string }
      (** The fault-injection mangler damaged a packet in flight; [op]
          is ["corrupt"], ["truncate"], ["duplicate"] or ["reorder"]
          and [bytes] the wire size before mangling. *)
  | Frag_lost of { src : int; ip_id : int }
  | Srv_queue of { xid : int32; proc : int; wait : float }
  | Srv_service of { xid : int32; proc : int; service : float }
  | Cwnd_update of { cwnd : float }
  | Rto_update of { rto : float }
  | Cache_hit of { cache : string }
  | Cache_miss of { cache : string }
  | Run_mark of { label : string }
      (** Starts a new trace segment: sim clocks and xid spaces reset
          between experiment worlds, so joins never cross a mark. *)
  | Srv_crash  (** server lost its volatile state (dup cache, leases) *)
  | Srv_reboot  (** server back up; lease-recovery grace period begins *)
  | Write_committed of {
      file : int;  (** inode number *)
      off : int;
      len : int;
      digest : int;  (** {!digest} of the data as written *)
      mtime : float;  (** file mtime after the write *)
    }
      (** The server acknowledged a WRITE after committing it; the
          invariant checker ([Fault.Check]) replays these against the
          post-run file system to prove durability across crashes. *)
  | Lease_grant of { file : int; mode : string; holder : int; duration : float }
      (** NQNFS lease granted; [mode] is ["read"] or ["write"]. *)
  | Cached_read of { file : int; holder : int; mtime : float }
      (** A client served a read from its block cache under a live lease
          without revalidating; [mtime] is the cached attribute. *)
  | Wl_error of { op : string; soft : bool }
      (** An RPC error surfaced to the workload ([ETIMEDOUT] on a soft
          mount's give-up).  [soft = false] would mean a hard mount
          leaked an error — the invariant checkers flag it. *)
  | Fault_inject of { action : string }
      (** A fault schedule applied an action (human-readable form). *)
  | Write_unstable of {
      file : int;  (** inode number *)
      off : int;
      len : int;
      digest : int;  (** {!digest} of the data as received *)
      verf : int;  (** the server's per-boot write verifier *)
    }
      (** The v3 server acknowledged an UNSTABLE WRITE: data is buffered
          volatile and may legally vanish in a crash — until a
          {!Commit_ok} with the same [verf] covers it, at which point
          durability is promised. *)
  | Commit_ok of { file : int; off : int; count : int; verf : int }
      (** The v3 server acknowledged a COMMIT over [off, off+count)
          ([count = 0] means to end of file) after flushing the covered
          unstable data to stable storage.  [Fault.Check.committed_durable]
          pairs these with {!Write_unstable} events by verifier. *)
  | Verf_mismatch of { file : int; expected : int; got : int }
      (** A v3 client noticed the server's write verifier change under
          uncommitted data — the crash-detection signal that obliges it
          to rewrite every unstable range before acking close/fsync. *)

type record_ = { time : float; node : int; ev : event }
(** [node] is the host id the event was observed on, or [-1] when the
    observer has no host identity (marks, link directions without an
    owner). *)

type t

val create : ?capacity:int -> unit -> t
(** A ring buffer holding the last [capacity] records (default 2^18).
    Older records are overwritten, and counted in {!dropped}.  Nothing
    is allocated up front: memory grows with the records held, about
    64 bytes each, in chunks of 4,096 records, up to [capacity].
    [~capacity:0] keeps no ring: records are only counted and hooked. *)

val record : t -> time:float -> node:int -> event -> unit
(** Append one record and pass it to the hook (no-op while disabled,
    see {!set_enabled}).  The ring keeps nothing the caller passed;
    without a hook a record allocates nothing once its chunk exists. *)

val mark : t -> time:float -> string -> unit
(** [mark t ~time label] records a {!Run_mark}. *)

val set_enabled : t -> bool -> unit
(** Gate recording without detaching the sink — e.g. off during a
    warmup phase.  Sinks start enabled. *)

val set_probe : t -> Renofs_engine.Probe.t option -> unit
(** With a probe attached, each {!record} charges its own cost to the
    observer slot — the trace's overhead becomes self-measuring.
    Detached (the default): one extra branch per record. *)

val set_hook : t -> (record_ -> unit) option -> unit
(** The sink's one record hook ([None] detaches it): it sees exactly
    the records offered while the sink is enabled, in order, whatever
    the ring keeps.  A probe charges its cost to the observer slot. *)

val enabled : t -> bool

val length : t -> int
(** Records currently held (at most the capacity). *)

val total : t -> int
(** Records ever offered while enabled. *)

val dropped : t -> int
(** [total - length]: records the ring does not hold. *)

val to_list : t -> record_ list
(** Surviving records, oldest first, decoded afresh on each call. *)

val capacity : t -> int
(** The ring size this sink was created with ([0]: no ring). *)

val merge : into:t -> t -> unit
(** [merge ~into src] appends [src]'s surviving records, oldest first,
    to [into] and counts the ones [src] dropped as dropped there
    ([into]'s enabled gate applies).  Experiment runners give each
    parallel cell a private sink and merge them back in cell order, so
    the combined stream is identical to a serial run: segments stay
    mark-delimited and never interleave. *)

val proc_name : int -> string
(** NFSv2 procedure names (plus this repo's extensions): the one table,
    which [Nfs_proto.proc_name] reuses.  It lives here because the trace
    library sits below the protocol layer. *)

val digest : bytes -> int
(** FNV-1a folded to 30 bits — a small nonnegative int that survives the
    JSONL number round-trip exactly.  The empty input is the exception:
    it returns the unfolded FNV basis [0x811c9dc5] (2,166,136,261), the
    value trace files already carry, so it is kept.  Used by
    {!Write_committed}, {!Write_unstable} and the invariant checker's
    read-back comparison. *)

(** {2 JSONL export / import}

    One flat JSON object per line, e.g.
    [{"t":1.25,"node":3,"ev":"rpc_send","xid":17,"proc":4}]: the time,
    the node, the event tag, then the event's fields in declaration
    order.  Lines are printed by {!Renofs_json.Json} in its compact
    layout, so numbers follow its one float rule (integers bare,
    anything else the shortest decimal that reads back as the same
    double) and strings its one escape.  Lines are read with
    [Json.parse]; import accepts any field order. *)

val line_of_record : record_ -> string
val record_of_line : string -> record_
(** Raises [Failure] on malformed input. *)

val export_jsonl : ?last:int -> t -> string -> unit
(** Write surviving records to a file, one per line, preceded by a
    [{"schema":"renofs-trace/1","held":H,"total":T,"overwritten":D}]
    metadata line: [H] records follow, out of [T] recorded; the other
    [D] are not in the file.  Ring overwrites are therefore visible in
    the export itself, not only in {!Report.print}.  With [~last:n]
    only the newest [n] records are written (a flight bundle's tail),
    and only those are decoded. *)

val import_jsonl : string -> record_ list
(** Raises [Failure] with [path:line:] context on malformed input.
    Lines carrying a ["schema"] field (the export header) are
    skipped, so files from before the header import identically. *)

(** {2 Analysis} *)

module Report : sig
  type span = {
    sp_label : string;  (** enclosing {!Run_mark} label, [""] if none *)
    sp_xid : int32;
    sp_proc : int;
    sp_start : float;  (** first transmission *)
    sp_retrans : int;
    sp_rtx_wait : float;
        (** first transmission to last retransmission, capped at
            [sp_total]: a retransmission the original reply overtakes
            (nfsstat's badxid case) cannot have delayed the RPC longer
            than the RPC took *)
    sp_srv_wait : float;  (** server socket-queue wait *)
    sp_srv_service : float;  (** server execution time *)
    sp_total : float;  (** first transmission to reply *)
  }

  type join

  val join : (span -> unit) -> join
  (** An empty span join, a fold that passes each span on as its
      {!Rpc_reply} completes it. *)

  val observe : join -> record_ -> unit
  (** Feed the next record.  Events join by xid within each
      mark-delimited segment; a mark abandons the unanswered sends,
      which {!build} counts as incomplete. *)

  val wire_time : span -> float
  (** What is left of [sp_total] after queue wait, service time and
      retransmit wait: transmission, propagation, router queueing and
      host protocol processing. *)

  type proc_row = {
    pr_name : string;
    pr_calls : int;
    pr_retrans : int;
    pr_p50 : float;
    pr_p95 : float;
    pr_p99 : float;  (** latency quantiles in seconds *)
  }

  type label_row = {
    lr_label : string;
    lr_calls : int;
    lr_total : float;
    lr_wire : float;
    lr_queue : float;
    lr_service : float;
    lr_rtx_wait : float;  (** mean seconds per RPC *)
  }

  type report = {
    by_proc : proc_row list;
    by_label : label_row list;
    complete : int;
    incomplete : int;
    events : int;
    events_dropped : int;
  }

  val build : t -> report

  val print : Format.formatter -> report -> unit
  (** The nfsstat-style per-procedure table followed by the per-label
      latency breakdown. *)
end
