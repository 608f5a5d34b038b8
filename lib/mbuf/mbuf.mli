(** Berkeley-style mbuf chains carrying real bytes.

    The 4.3BSD Reno NFS builds RPC requests and replies directly in mbuf
    data areas ([nfsm_build] / [nfsm_disect]) to avoid intermediate
    buffers.  We model the same structure: a chain of small mbufs (112
    usable bytes each, as in 4.3BSD) and page clusters (2048 bytes),
    with zero-copy {!split} (cluster sharing, as fragmentation does in the
    kernel) and explicit accounting of every memory-to-memory copy — the
    quantity Section 3 of the paper works to minimise.

    File data can also ride in {e lent} views, modelled on Reno's
    reference-counted external (M_EXT) clusters: {!add_lent} appends
    read-only views of the caller's bytes where {!add_bytes} would fill
    whole fresh clusters, {!share} views a chain instead of copying it,
    and {!Cursor.bytes} hands the lent bytes back at the far end.  A view
    has the same length, cluster flag and tail room as the copy it stands
    for, and counts the same copied bytes, so everything the simulation
    reads of a chain (layout, checksum, copy counters) is the same either
    way; only the host skips the copy. *)

(** Per-host allocation and copy counters.  Pass the owning host's
    counters to the operations that copy; the host charges CPU time for
    [bytes_copied] at its memory-copy bandwidth.

    [smalls_allocated] and [clusters_allocated] count every buffer
    grabbed, however satisfied; [pool_hits] counts the subset served
    from a {!Pool} free list, so fresh heap allocations are
    [smalls_allocated + clusters_allocated - pool_hits]. *)
module Counters : sig
  type t = {
    mutable bytes_copied : int;
    mutable smalls_allocated : int;
    mutable clusters_allocated : int;
    mutable pool_hits : int;
  }

  val create : unit -> t
  val reset : t -> unit
end

(** A free list of recycled mbuf storage, shared per simulated world.

    Chains cross node boundaries zero-copy (network delivery hands the
    sender's storage to the receiver), so the pool is per-world, not
    per-host: whoever ends up owning a chain releases it back to the
    common pool.  Ownership is explicit and conservative — a chain is
    {!release}d only at points where the owner provably holds the last
    reference (a served request after the reply is built, a reply after
    the client decodes it); anything ambiguous is simply left to the GC.
    Only exactly pool-sized buffers (small mbuf or cluster) are kept;
    storage of any other size falls back to the GC too. *)
module Pool : sig
  type t

  val create : ?small_cap:int -> ?cluster_cap:int -> unit -> t
  (** Caps bound how many free buffers of each class are retained
      (defaults: 2048 smalls, 512 clusters); releases beyond the cap are
      dropped on the floor for the GC. *)

  val hits : t -> int
  (** Allocations served from the free list since creation. *)

  val recycled : t -> int
  (** Buffers accepted back by {!release} since creation. *)

  val small_free : t -> int
  val cluster_free : t -> int
end

type t
(** A mutable chain of mbufs. *)

val release : ?pool:Pool.t -> t -> unit
(** Declare the chain's payload dead and hand its storage back to
    [pool].  Each mbuf drops one reference; storage recycles only when
    its last sharer releases, so a {!split} sibling still holding a view
    of the same cluster keeps the bytes alive.  The chain itself is
    emptied, making a second release a no-op.  Releasing a chain while
    any alias of it is still being read is an ownership bug — the
    storage may be handed to a new writer.  Without [pool] this only
    empties the chain. *)

val empty : unit -> t
val length : t -> int
(** Total payload bytes in the chain. *)

val num_mbufs : t -> int
val num_clusters : t -> int

val cluster_bytes : t -> int
(** Payload bytes held in cluster mbufs; the remainder lives in small
    mbufs.  The NIC model maps clusters but must copy small-mbuf bytes. *)

val layout : t -> (int * bool) list
(** Each mbuf's payload length and cluster flag, in chain order: the
    shape that the NIC's cost and IP fragmentation read. *)

val add_bytes : ?ctr:Counters.t -> ?pool:Pool.t -> t -> bytes -> off:int -> len:int -> unit
(** Append by copying, filling the tail mbuf then allocating new ones
    (clusters once the remainder is large, like [MINCLSIZE]).  With
    [pool], new mbuf storage is grabbed from the free list when one is
    available, allocated fresh otherwise. *)

val add_lent : ?ctr:Counters.t -> ?pool:Pool.t -> t -> bytes -> off:int -> len:int -> unit
(** {!add_bytes}, but each whole fresh cluster it would fill (2,048
    bytes) is a read-only view of [bytes] instead: the same length,
    cluster flag, tail room and [bytes_copied], and no storage taken.
    Everything else is copied as {!add_bytes} copies it.  Lent storage
    belongs to no pool: {!release} never hands it to a {!Pool}, however
    many views of it ({!split}, {!share}) are released.  The caller must
    never mutate the range while any chain holding a view of it lives;
    every holder of lent bytes copies them before a change. *)

val add_string : ?ctr:Counters.t -> ?pool:Pool.t -> t -> string -> unit

val add_u32 : ?ctr:Counters.t -> ?pool:Pool.t -> t -> int -> unit
(** Append the low 32 bits of an int as a big-endian word (the XDR
    unit).  Writes directly into the tail mbuf, allocating nothing, when
    four bytes of room remain; otherwise the word is staged and copied
    like {!add_bytes}. *)

val of_string : ?ctr:Counters.t -> ?pool:Pool.t -> string -> t
val of_bytes : ?ctr:Counters.t -> ?pool:Pool.t -> bytes -> t

val to_bytes : ?ctr:Counters.t -> t -> bytes
(** Linearise by copying; mainly for tests and checksums. *)

val append_chain : t -> t -> unit
(** [append_chain a b] moves [b]'s mbufs to the tail of [a] without
    copying; [b] becomes empty. *)

val split : t -> int -> t * t
(** [split t n] divides the payload at byte [n] without copying: mbufs
    that straddle the boundary are shared as views (cluster reference
    sharing).  Raises [Invalid_argument] if [n] exceeds {!length}. *)

val sub_copy : ?ctr:Counters.t -> ?pool:Pool.t -> t -> pos:int -> len:int -> t
(** Copy out a byte range as a fresh chain. *)

val share : ?pool:Pool.t -> t -> t
(** The whole chain as {!sub_copy} lays it out, sharing storage where
    that layout allows.  A full mbuf of that layout (112 bytes in a
    small, 2,048 in a cluster) that is exactly one full mbuf of [t] is a
    read-only view of it, holding a reference as a {!split} view does; a
    full cluster whose bytes are one lent buffer ({!add_lent}) is a view
    of that buffer; every other byte is copied.  The (length, cluster)
    sequence and every tail room equal {!sub_copy}'s.  [t] must not
    change while the result lives. *)

val checksum : t -> int
(** 16-bit ones-complement sum over the payload (Internet checksum,
    zero-padded to even length); exercised per-packet by the network
    layer since the checksum routine was one of the paper's residual CPU
    bottlenecks.  Summed eight bytes per load in native byte order, as
    two 32-bit halves into one 63-bit accumulator, then folded to 16
    bits and byte-swapped on a little-endian host (RFC 1071: carries
    can be deferred, and byte order only swaps the result).  The loads
    are unchecked, so they rely on the invariant that every mbuf's
    [off + len] lies within its storage. *)

(** Sequential reader over a chain ([nfsm_disect] analogue). *)
module Cursor : sig
  type chain := t
  type t

  exception Underrun
  (** Raised when reading past the end of the chain. *)

  val create : chain -> t
  val remaining : t -> int
  val u32 : t -> int
  (** The next big-endian 32-bit word, in [0, 2{^32}).  Read in place,
      allocating nothing, when the word lies inside the current mbuf; a
      word split across two mbufs is copied out first.  Raises
      {!Underrun} with the cursor unmoved when fewer than four bytes
      remain. *)

  val bytes : t -> int -> bytes
  (** The next [n] bytes, in a fresh copy unless they are one lent
      buffer ({!add_lent}) from end to end: every lent view among them
      is of that buffer at its own position in the range, the buffer is
      [n] bytes long, and the copied bytes before and after the views
      equal it (checked).  Then the buffer itself is returned, and must
      not be mutated: other holders keep it. *)

  val skip : t -> int -> unit
end
