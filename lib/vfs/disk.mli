(** A simple seek + rotation + transfer disk model of an RD53, serving
    one request at a time.

    NFSv2 servers must push every write RPC to stable storage before
    replying — "every write RPC requires 1-3 disk writes on the server"
    (paper, Section 5) — so disk latency is load-bearing for the write
    policy experiments (Table 5). *)

type t

val create : Renofs_engine.Sim.t -> t
(** Each I/O costs a 30 ms average seek, 8.3 ms of rotational delay
    (3600 rpm) and its bytes at 0.6 MB/s. *)

val read : t -> bytes:int -> unit
(** Block the calling process for one read I/O of [bytes]. *)

val write : t -> bytes:int -> unit

val reads : t -> int
val writes : t -> int
