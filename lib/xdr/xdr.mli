(** External Data Representation (RFC 1014 subset) over mbuf chains.

    Encoders append directly to an mbuf chain and decoders walk a chain
    cursor — the [nfsm_build]/[nfsm_disect] style the paper describes,
    with no intermediate linear buffer.  A word travels as an [int] and
    is written or read in place in the current mbuf, so {!Enc.int},
    {!Enc.bool}, {!Enc.enum} and their {!Dec} counterparts allocate
    nothing unless a new mbuf is needed or the word straddles two. *)

exception Decode_error of string
(** Malformed input: bad discriminant, truncated data, negative or
    oversized length.  Errors raised by {!Dec} locate themselves as
    ["... at byte N of M"] within the message being decoded. *)

(** Encoding: all functions append to the chain. *)
module Enc : sig
  type t

  val create :
    ?ctr:Renofs_mbuf.Mbuf.Counters.t ->
    ?pool:Renofs_mbuf.Mbuf.Pool.t ->
    unit ->
    t
  (** [pool] recycles mbuf storage for everything this encoder appends. *)

  val sub : t -> t
  (** A fresh encoder inheriting [t]'s counters and pool, for building a
      nested structure to splice in with {!append_chain}. *)

  val chain : t -> Renofs_mbuf.Mbuf.t
  (** The chain built so far (also usable mid-encode). *)

  val u32 : t -> int32 -> unit
  val int : t -> int -> unit
  (** Encode a non-negative int that fits 32 bits. *)

  val bool : t -> bool -> unit
  val enum : t -> int -> unit
  val u64 : t -> int64 -> unit

  val opaque_fixed : t -> bytes -> unit
  (** Fixed-length opaque: bytes plus zero padding to a 4-byte boundary
      (no length word). *)

  val opaque : t -> bytes -> unit
  (** Variable-length opaque: length word, bytes, padding. *)

  val string : t -> string -> unit

  val append_chain : t -> Renofs_mbuf.Mbuf.t -> unit
  (** Splice an existing chain (e.g. file data already in mbufs) without
      copying — how the Reno server avoids copying read data. *)
end

(** Decoding from a chain cursor. *)
module Dec : sig
  type t

  val create : Renofs_mbuf.Mbuf.t -> t
  val remaining : t -> int
  val u32 : t -> int32
  val int : t -> int
  val bool : t -> bool
  val enum : t -> int
  val u64 : t -> int64

  val opaque_fixed : t -> int -> bytes
  (** Read exactly [n] bytes plus padding. *)

  val opaque : t -> max:int -> bytes
  (** Variable-length opaque; rejects lengths above [max]. *)

  val string : t -> max:int -> string
end
