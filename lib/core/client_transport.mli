(** Client-side RPC transport: the three mechanisms compared in
    Section 4 of the paper.

    - {b UDP, fixed RTO}: the classic NFS client.  The retransmission
      timeout is the mount-time [timeo] constant, backed off
      exponentially; fragments of a retransmitted 8K request repeat in
      full.
    - {b UDP, dynamic RTO + congestion window}: per-procedure Jacobson
      estimators for the four most frequent RPCs (Read and Write with
      RTO [A+4D] for their large variance; Getattr and Lookup with
      [A+2D]), the mount constant for the rest, and a TCP-style window
      on outstanding {e requests} — incremented per reply, halved on
      timeout, with no slow start (the paper found slow start hurt and
      removed it).
    - {b TCP}: one connection per mount, record-marked RPC stream,
      reliability and congestion control delegated to
      {!Renofs_transport.Tcp}.

    All three present the same blocking [call] interface and keep the
    RTT/retry statistics the paper's graphs are made of. *)

type t

exception Rpc_error of string
(** The server rejected the RPC at the Sun-RPC layer, or the TCP
    connection failed. *)

exception Rpc_timed_out of { proc : string; final_timeo : float }
(** A soft mount's retransmission limit was exhausted.  [proc] names the
    procedure that gave up and [final_timeo] is the retransmission
    timeout in force at the give-up — the mount [timeo] after
    exponential backoff, capped at 60 s (BSD's [NFS_MAXTIMEO]) so the
    backoff can never stretch a soft mount's final wait past a minute. *)

type summary = {
  calls : int;
  retransmits : int;
  mean_rtt : float;  (** seconds over completed calls *)
}

val create_udp_fixed :
  Renofs_transport.Udp.stack ->
  server:int ->
  ?timeo:float ->
  ?max_retries:int ->
  ?uid:int ->
  ?gid:int ->
  unit ->
  t
(** [timeo] defaults to 1.0 s — the value whose RTT-trace peaks told the
    paper not to lower it.  [max_retries] makes the transport "soft":
    {!call} raises {!Rpc_timed_out} once the limit is exhausted instead
    of retrying forever. *)

val create_udp_dynamic :
  Renofs_transport.Udp.stack ->
  server:int ->
  ?timeo:float ->
  ?max_retries:int ->
  ?uid:int ->
  ?gid:int ->
  unit ->
  t
(** The dynamic transport: per-procedure RTO estimators and a
    congestion window of outstanding RPCs that opens at 4 and grows to
    at most 12. *)

val create_tcp :
  Renofs_transport.Tcp.stack ->
  server:int ->
  ?mss:int ->
  ?uid:int ->
  ?gid:int ->
  unit ->
  t
(** Blocking connect: call from a process.  Raises {!Rpc_error} if the
    server cannot be reached. *)

val call : t -> Nfs_proto.call -> Nfs_proto.reply
(** Execute one RPC: encode (charging client CPU), transmit with the
    transport's retry discipline, match the reply by xid, decode.
    Blocks the calling process; concurrent calls are supported and
    (for the dynamic transport) gated by the congestion window.

    The receiver decodes each reply once, to validate it, and that
    decode is the result: its [bytes] (READ data, for one) were copied
    out of the reply's mbufs, which are released at once, and belong to
    the caller alone.  A well-formed RPC-level rejection raises
    {!Rpc_error} (["rpc denied"], or ["rpc accepted with error"] for an
    accepted reply other than success). *)

val summary : t -> summary
val retransmits : t -> int

val garbled : t -> int
(** Replies discarded because they failed to decode end to end (short
    packet, damaged header or body, or a [GARBAGE_ARGS] verdict on a
    request damaged in transit).  Each leaves its request pending for
    the normal retransmit/replay path. *)

val congestion_window : t -> float
(** Current window in requests; meaningful for the dynamic transport. *)

val calls_by_proc : t -> (string * int) list
(** Calls made per procedure, nfsstat's client RPC counts (the paper's
    Table 3): one entry per procedure called at least once, named by
    {!Nfs_proto.proc_name} and sorted by name.  A call counts when it
    is made, before it is encoded or sent. *)

val enable_read_trace : t -> unit
(** Start recording (time, RTT) and (time, RTO) samples for Read RPCs —
    the data behind Graph 7. *)

val read_rtt_trace : t -> (float * float) list
val read_rto_trace : t -> (float * float) list
