(** Sharded multi-server NFS fleets.

    The scaling unit is the mount point: a fleet owns a set of export
    trees (["/home0"], ["/home1"], ...) spread across N servers by a
    {!Shard_map}, and clients mount each shard from whichever server
    owns it through the ordinary mount protocol ({!Mountd} + MNT RPC).
    Automount-style — a client holds handles only for the shards it
    mounted; no server proxies for another, so aggregate throughput
    scales with servers until a shared resource (the router tier, the
    client population) saturates.

    Worlds come from {!Renofs_net.Topology.build_graph}; {!create}
    takes its [servers] node list and brings up one NFS server + mount
    daemon per node. *)

(** How mount points are placed on servers. *)
type policy =
  | Round_robin  (** assignment order, cycling through servers *)
  | Hash
      (** two-choice seeded hash of the mount-point name: the
          lighter-loaded of two hash-picked candidate servers — name
          affinity with near-perfect balance *)
  | Least_loaded
      (** at mount time, the server owning the fewest shards so far;
          ties break to the lowest index *)

val policy_name : policy -> string
(** "round-robin", "hash" or "least-loaded". *)

val policy_of_name : string -> policy
(** Inverse of {!policy_name} (plus "rr"/"ll" abbreviations).  Raises
    [Invalid_argument] otherwise. *)

(** Mount point → server assignment.  Assignment is sticky and lazy:
    a shard is placed by the policy the first time {!Shard_map.assign}
    sees it and keeps that owner forever after — deterministic given
    the policy, seed and assignment order (all sim-driven). *)
module Shard_map : sig
  type t

  val create : ?seed:int -> policy -> servers:int -> t
  (** [seed] (default 0) perturbs the [Hash] policy.  Raises
      [Invalid_argument] when [servers < 1]. *)

  val assign : t -> string -> int
  (** The owning server index, placing the shard on first use. *)

  val find : t -> string -> int option
  (** The owner if already placed; never places. *)

  val loads : t -> int array
  (** Shards currently owned, per server index. *)

  val assignments : t -> (string * int) list
  (** Every placement so far, sorted by shard name. *)
end

type t

val create :
  ?policy:policy ->
  ?seed:int ->
  shards:int ->
  Renofs_net.Node.t list ->
  t
(** Bring up one Reno NFS server (UDP transport) and mount daemon on
    each node — pass [Topology.build_graph]'s [servers] list — and name
    [shards] mount points ["/home0"] .. ["/home<shards-1>"].  Policy
    defaults to [Hash].  Placement happens lazily as shards are first
    provisioned or mounted. *)

val provision : t -> unit
(** Create every shard's export directory on its owning server (which
    places all shards, in shard order).  Must run inside a process;
    call before clients mount. *)

val mount_shard :
  t ->
  udp:Renofs_transport.Udp.stack ->
  ?tcp:Renofs_transport.Tcp.stack ->
  shard:string ->
  Renofs_core.Nfs_client.mount_opts ->
  Renofs_core.Nfs_client.t
(** Mount [shard] from its owning server via the mount daemon
    ({!Renofs_core.Nfs_client.mount_path}).  Must run inside a
    process. *)

val shards : t -> string list
val servers : t -> Renofs_core.Nfs_server.t list

val iter_shards :
  t -> (shard:string -> server:Renofs_core.Nfs_server.t -> unit) -> unit
(** Visit every shard with its owner, in shard order — the hook for
    preloading per-shard filesets. *)

val total_served : t -> int
(** Sum of [rpcs_served] across the fleet. *)

val balance : t -> float
(** max/mean of per-server [rpcs_served] — 1.0 is perfect balance;
    1.0 when nothing has been served yet. *)
