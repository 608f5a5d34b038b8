(** The syscall-level NFS client: block cache with dirty regions, name
    and attribute caches, biods, write policies and the cache
    consistency rules whose interplay Section 5 of the paper measures.

    Mount profiles reproduce the paper's configurations:

    - {!reno_mount}: 4.3BSD Reno semantics.  VFS name cache; no preread
      for partial-block writes (the [buf] dirty region); dirty blocks
      pushed before reads; a client that does {e not} trust its own
      write RPCs to explain an mtime change — so its own writes
      invalidate its cache (the +50% read RPCs of Table 3); delayed
      writes pushed on close (close/open consistency).
    - {!ultrix_mount}: Sun-reference-port-shaped client.  No name cache,
      no push-before-read, and it assumes no other client writes the
      file concurrently, so its own writes leave the cache valid.
    - [reno_nopush_mount]: Reno without push-on-close (Table 2's
      "Reno-nopush" row).
    - [noconsist_mount]: the experimental mount flag that disables all
      consistency machinery, giving the optimistic bound on what a real
      cache consistency protocol could achieve.

    All syscalls must run inside a simulation process. *)

type write_policy = Write_through | Async | Delayed

type mount_opts = {
  transport : [ `Udp_fixed | `Udp_dynamic | `Tcp ];
  timeo : float;
  mss : int;  (** TCP segment size *)
  rsize : int;
  wsize : int;
  attr_timeout : float;
  num_biods : int;
  write_policy : write_policy;
      (** [Delayed] is the BSD default: asynchronous for full blocks,
          delayed for partial blocks *)
  push_on_close : bool;
  consistency : bool;
  name_cache : bool;
  push_dirty_before_read : bool;
  trust_own_writes : bool;
  read_ahead : int;
  cache_blocks : int;
  use_readdirlook : bool;
      (** use the experimental bulk-lookup RPC to prefetch handles and
          attributes while reading directories *)
  delay_full_blocks : bool;
      (** under [Delayed], also delay full blocks — the "delayed write
          without push on close" policy of the noconsist experiments *)
  use_leases : bool;
      (** the experimental NQNFS-style lease consistency protocol (the
          paper's Future Directions): a read lease makes cached data
          valid without attribute checks, a write lease makes delayed
          writes without push-on-close safe, and every lease expires —
          so server crashes and network partitions heal by timeout *)
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

val reno_mount : mount_opts
val reno_tcp_mount : mount_opts
val reno_dynamic_mount : mount_opts
(** Reno over the dynamic-RTO + congestion-window UDP transport. *)

val reno_nopush_mount : mount_opts
val noconsist_mount : mount_opts

val lease_mount : mount_opts
(** Reno with the lease protocol: the noconsist mount's write savings
    {e with} consistency — the optimistic bound made safe. *)

val v3_mount : mount_opts
(** The v3 profile: Reno semantics with UNSTABLE writes + COMMIT, 32K
    transfers ([Nfs_proto.max_data_v3]) and the bulk-lookup READDIR. *)

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
val sim : t -> Renofs_engine.Sim.t
val node : t -> Renofs_net.Node.t

val rpc_counters : t -> Renofs_engine.Stats.Counter.t
(** RPCs issued by this mount, by procedure name — the data of Table 3. *)

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
val write : t -> fd -> off:int -> bytes -> unit
val fsync : t -> fd -> unit
val close : t -> fd -> unit
val fd_size : t -> fd -> int

val flush_all : t -> unit
(** Push every delayed write and wait (umount-style sync). *)

(* --- cache observability --- *)

val current_transfer_size : t -> int
(** The adaptive read/write transfer size (equals [rsize] unless
    [adaptive_transfer] has shrunk it). *)

val dirty_blocks : t -> int
