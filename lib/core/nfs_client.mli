(** The syscall-level NFS client: block cache with dirty regions, name
    and attribute caches, biods, write policies and the cache
    consistency rules whose interplay Section 5 of the paper measures.

    Each named mount pairs one {!consistency} rule with the rest of a
    configuration:
    - {!reno_mount}: 4.3BSD Reno.  VFS name cache and no preread for
      partial-block writes (the [buf] dirty region).  Also over TCP
      ({!reno_tcp_mount}) and over the dynamic-RTO + congestion-window
      UDP transport ({!reno_dynamic_mount}).
    - {!reno_nopush_mount}: Table 2's "Reno-nopush" row.
    - {!ultrix_mount}: the Sun reference port: no name cache, and a
      write RPC per write call.
    - {!noconsist_mount}: the experimental mount flag that disables all
      consistency machinery.
    - {!lease_mount}: the paper's Future Directions, NQNFS-style leases.
    - {!v3_mount}: Reno under the v3-style protocol: UNSTABLE writes +
      COMMIT, 32K blocks and the bulk-lookup READDIR.

    All syscalls must run inside a simulation process. *)

type write_policy = Write_through | Async | Delayed

(** When cached data may be used and when dirty data must reach the
    server. *)
type consistency =
  | Close_to_open
      (** {!reno_mount} and {!v3_mount}: cached data is valid while the
          server's modify time matches the one it was cached under,
          checked through the attribute cache on open and read; dirty
          blocks are pushed before a read and on close.  The client does
          {e not} trust its own write replies to explain an mtime
          change, so its own writes invalidate its cache (the +50% read
          RPCs of Table 3). *)
  | Close_to_open_nopush  (** {!reno_nopush_mount}: the same without the push on close. *)
  | Trusts_own_writes
      (** {!ultrix_mount}: the modify-time check and the push on close,
          but no push before read.  It assumes no other client writes
          the file concurrently, so a write reply's modify time is its
          own and its writes leave its cache valid. *)
  | Noconsist
      (** {!noconsist_mount}: no checks, no pushes on read or close, and
          under [Delayed] full blocks are delayed too — the optimistic
          bound on what a consistency protocol could save. *)
  | Leases
      (** {!lease_mount}: a read lease makes cached data valid without
          attribute checks; a write lease makes delayed writes, full
          blocks included, safe without the push on close, and a write
          reply's modify time the client's own.  Without a lease the
          modify-time check applies.  Every lease expires, so server
          crashes and network partitions heal by timeout. *)

type mount_opts = {
  transport : [ `Udp_fixed | `Udp_dynamic | `Tcp ];
  timeo : float;
  mss : int;  (** TCP segment size *)
  bsize : int;
      (** the cache's block size, which is also the largest read and
          write transfer (the paper's rsize and wsize, kept equal) *)
  num_biods : int;
  write_policy : write_policy;
      (** [Delayed] is the BSD default: asynchronous for full blocks,
          delayed for partial blocks *)
  consistency : consistency;
  name_cache : bool;
  read_ahead : int;
  use_readdirlook : bool;
      (** use the experimental bulk-lookup RPC to prefetch handles and
          attributes while reading directories *)
  soft : bool;
      (** soft mount: operations fail with an I/O error after [retrans]
          retransmissions instead of retrying forever (hard mount) *)
  retrans : int;
  adaptive_transfer : bool;
      (** Section 4's last-ditch option made dynamic, as the paper
          suggests: halve the read/write transfer size when
          retransmissions indicate IP fragment loss, and grow it back
          after a run of clean transfers *)
  v3 : bool;
      (** the v3-style protocol profile: writes go out UNSTABLE (the
          server may acknowledge from volatile memory), a write-behind
          ledger tracks every such range until a COMMIT under the same
          write verifier covers it, and close/fsync do not succeed until
          the ledger is clean — rewriting any ranges a server reboot
          (detected by the verifier changing) lost *)
  uid : int;  (** AUTH_UNIX credentials presented to the server *)
  gid : int;
}
(** Every mount caches attributes for 5 s and holds at most 48 blocks. *)

val reno_mount : mount_opts
val reno_tcp_mount : mount_opts
val reno_dynamic_mount : mount_opts
val reno_nopush_mount : mount_opts
val noconsist_mount : mount_opts
val lease_mount : mount_opts
val v3_mount : mount_opts
val ultrix_mount : mount_opts

exception Nfs_error of Nfs_proto.stat

type t
type fd

val mount :
  udp:Renofs_transport.Udp.stack ->
  ?tcp:Renofs_transport.Tcp.stack ->
  server:int ->
  root:Nfs_proto.fhandle ->
  mount_opts ->
  t
(** Blocking (fetches root attributes); call from a process.  [`Tcp]
    mounts require the [tcp] stack. *)

exception Mount_failed of string

val mount_path :
  udp:Renofs_transport.Udp.stack ->
  ?tcp:Renofs_transport.Tcp.stack ->
  server:int ->
  path:string ->
  mount_opts ->
  t
(** The full mount(8) sequence: obtain the root file handle for [path]
    from the server's mount daemon (MNT over UDP port 635, with
    retries), then {!mount}.  Raises {!Mount_failed} if the daemon
    denies the path or never answers. *)

val transport : t -> Client_transport.t
(** The mount's own transport: its {!Client_transport.calls_by_proc} is
    the mount's RPCs by procedure, the data of Table 3. *)

val sim : t -> Renofs_engine.Sim.t
val node : t -> Renofs_net.Node.t

(* --- pathname syscalls (paths are "/"-separated, relative to the
   mount root) --- *)

val stat : t -> string -> Nfs_proto.fattr
val open_ : t -> string -> fd
val create : t -> string -> fd
(** Creates (or truncates) a regular file. *)

val unlink : t -> string -> unit
val mkdir : t -> string -> unit
val rmdir : t -> string -> unit
val rename : t -> string -> string -> unit
val symlink : t -> string -> target:string -> unit
val readlink : t -> string -> string
val link : t -> existing:string -> string -> unit
val readdir : t -> string -> string list
val statfs : t -> Nfs_proto.statfsok

(* --- fd syscalls --- *)

val read : t -> fd -> off:int -> len:int -> bytes
(** Short at EOF.  The result may share the mount's block cache (a read
    of exactly one whole aligned block returns the cached block itself,
    still charged as a copy) and must not be mutated; later writes
    never change it, as with {!Renofs_vfs.Fs.read}. *)

val write : t -> fd -> off:int -> bytes -> unit
val fsync : t -> fd -> unit
val close : t -> fd -> unit
val fd_size : t -> fd -> int

val flush_all : t -> unit
(** Push every delayed write and wait (umount-style sync). *)

(* --- cache observability --- *)

val current_transfer_size : t -> int
(** The adaptive read/write transfer size (equals [bsize] unless
    [adaptive_transfer] has shrunk it). *)

val dirty_blocks : t -> int
