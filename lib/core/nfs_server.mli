(** The NFS server: a pool of four nfsd processes serving NFSv2 RPCs
    (plus the v3 WRITE/COMMIT pair and the lease and READDIRLOOK
    extensions) from a {!Renofs_vfs.Fs} backing store, over UDP and TCP
    simultaneously.  Every call has one reply path: a failure anywhere
    in its execution becomes that procedure's failed reply
    ({!Nfs_proto.error_reply}).

    Three profiles mirror the paper's comparison (Section 3, Graphs 8
    and 9).  Each decodes a request in 320 instructions and builds its
    reply in 280, and keeps a 256-buffer cache of 8K blocks written
    through synchronously.  They differ in four decisions:

    - Juszczak's duplicate request cache for non-idempotent procedures
      [Juszczak89]: Reno and Reno without a name cache; not the
      reference port.
    - The layered RPC/XDR library that was "ported into the kernel"
      (paper, Section 1): 900 more instructions on each of decode and
      reply build for the reference port only.
    - Buffer-cache search: vnode-chained for Reno and Reno without a
      name cache, a global scan for the reference port.
    - The server name cache: Reno only. *)

type profile =
  | Reno
  | Reno_no_name_cache  (** Reno with its server name cache off *)
  | Reference_port  (** the Ultrix-2.2-shaped Sun reference port *)

val reno_profile : profile
(** [Reno]. *)

val reference_port_profile : profile
(** [Reference_port]: the server of Graphs 8-9 and Tables 2-4. *)

type t

val create :
  Renofs_net.Node.t ->
  ?profile:profile ->
  udp:Renofs_transport.Udp.stack ->
  ?tcp:Renofs_transport.Tcp.stack ->
  unit ->
  t
(** Build the filesystem and bind port 2049 on the given stacks; call
    {!start} to begin serving. *)

val start : t -> unit

val fs : t -> Renofs_vfs.Fs.t
(** Direct access to the backing store, e.g. for preloading file trees. *)

val udp_stack : t -> Renofs_transport.Udp.stack
(** The stack the server answers on; {!Mountd.start} binds its port
    here. *)

val tcp_stack : t -> Renofs_transport.Tcp.stack option
(** The TCP stack, when the server was given one — e.g. to read its
    checksum-drop counter after a wire-corruption run. *)

val root_fhandle : t -> Nfs_proto.fhandle
val node : t -> Renofs_net.Node.t

val rpcs_served : t -> int
val duplicates_dropped : t -> int

val write_verf : t -> int
(** The current per-boot write verifier returned in v3 WRITE and COMMIT
    replies.  Deterministic (a fold of node id and boot count) so runs
    reproduce at any [--jobs]; changes on every {!reboot}. *)

val unstable_bytes : t -> int
(** Bytes of acknowledged UNSTABLE write data currently buffered in
    volatile memory, awaiting COMMIT.  Dies with {!crash}. *)

val set_lie_on_commit : t -> bool -> unit
(** Fault-injection hook: when set, COMMIT acknowledges (and traces
    [Commit_ok]) {e without} flushing buffered unstable data — the
    guilty server the [Fault.Check.committed_durable] invariant must
    convict.  Default false. *)

val crash_and_reboot : t -> downtime:float -> unit
(** The statelessness demonstration of Section 1: kill the server for
    [downtime] seconds and bring it back with every volatile structure
    gone — buffer cache, name cache, duplicate-request cache and lease
    table — while the synchronously-written filesystem survives.  While
    down, requests are silently dropped, and so is any request the crash
    caught in service (clients' RPC retransmission is the whole recovery
    story).  After reboot the server observes an
    NQNFS-style grace period of one lease duration before granting new
    leases, so leases issued before the crash cannot be contradicted.
    Call from a process.  Equivalent to {!crash}, a [downtime] sleep,
    then {!reboot}. *)

val crash : t -> unit
(** The instantaneous half of {!crash_and_reboot}: mark the server down
    and discard its volatile state (traced as [Srv_crash]) — including
    the v3 unstable-write buffer, whose acknowledged-but-uncommitted
    data legally vanishes here.  Does not sleep — safe to call from a
    timer callback. *)

val reboot : t -> unit
(** Bring a crashed server back up, start the lease grace period, and
    regenerate the per-boot write verifier so v3 clients detect the
    loss of buffered data (traced as [Srv_reboot]).  A second crash
    {e during} the grace window restarts the full window from the later
    reboot — grace is never shortened by overlapping outages.  Does not
    sleep. *)

val is_up : t -> bool
