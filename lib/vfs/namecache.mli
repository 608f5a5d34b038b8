(** The VFS name-lookup cache.

    Maps (directory inode, component name) to a target inode.  4.3BSD
    Reno caches names up to 31 characters — longer names bypass the cache
    entirely, which is why Nhfsstone's long-file-name trick (meant to
    defeat client caches) can also defeat a server's cache (paper,
    Appendix caveat 1).  The paper credits this cache with halving the
    client's lookup RPC count (Table 3). *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable too_long : int;  (** lookups skipped because the name is > 31 chars *)
}

val create : ?capacity:int -> unit -> t
(** Names up to 31 characters; [capacity] entries (default 256),
    LRU-ish FIFO eviction. *)

val lookup : t -> dir:int -> string -> int option
val enter : t -> dir:int -> string -> int -> unit
val remove : t -> dir:int -> string -> unit
val invalidate_dir : t -> int -> unit
(** Drop every entry under a directory (used on directory change). *)

val purge : t -> unit
val stats : t -> stats
