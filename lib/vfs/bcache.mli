(** Server buffer-cache residency model.

    Tracks which (inode, logical block) pairs are resident, with LRU
    eviction, and charges the CPU for the cost of *searching* the cache.
    4.3BSD Reno chains a vnode's buffers directly off the vnode, making
    the search cheap and independent of cache size; the Sun reference
    port searches a global table.  The paper attributes most of the
    server lookup-rate gap between Reno and Ultrix (Graphs 8-9) to this
    difference, not to the name cache.

    That search cost is simulated only.  On the host, resident buffers
    sit on a doubly-linked LRU list beside a hash table, so a hit, a
    re-insert and an eviction each take constant time; the victim is
    always the least recently looked-up or inserted block. *)

type search_mode =
  | Vnode_chained  (** constant-cost search (Reno) *)
  | Global_scan  (** cost proportional to resident buffers (reference port) *)

type stats = { mutable hits : int; mutable misses : int }

type t

val create :
  Renofs_engine.Sim.t ->
  Renofs_engine.Cpu.t ->
  blocks:int ->
  search:search_mode ->
  unit ->
  t
(** [blocks] is the cache capacity in buffers (identically sized caches
    were configured for the paper's Reno/Ultrix comparison). *)

val search_mode : t -> search_mode

val lookup : t -> ino:int -> blk:int -> bool
(** Consult the cache, charging search CPU; [true] on hit (refreshes
    LRU).  Must run inside a process. *)

val insert : t -> ino:int -> blk:int -> unit
(** Make a block resident, evicting the LRU victim if full. *)

val invalidate_ino : t -> int -> unit
val resident : t -> int
val stats : t -> stats
