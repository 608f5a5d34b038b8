(** Client-side file attribute cache.

    Attributes expire a few seconds after they were last refreshed from
    the server (five in the Reno implementation), which bounds how stale
    a client's view of another client's changes can be — the consistency
    level Section 1 of the paper describes.  Every RPC reply carrying
    attributes refreshes the cache ("piggyback" updates), which is what
    keeps the Getattr RPC count low. *)

type t

val create : Renofs_engine.Sim.t -> ?timeout:float -> unit -> t
(** [timeout] defaults to 5 s. *)

val get : t -> Nfs_proto.fhandle -> Nfs_proto.fattr option
(** Fresh attributes only; counts a hit or a miss. *)

val peek : t -> Nfs_proto.fhandle -> Nfs_proto.fattr option
(** Like {!get} but ignores freshness and the counters; used when any
    cached value is acceptable (e.g. a file size hint). *)

val update : t -> Nfs_proto.fhandle -> Nfs_proto.fattr -> unit
val invalidate : t -> Nfs_proto.fhandle -> unit
val hits : t -> int
val misses : t -> int
