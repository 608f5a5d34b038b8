(** Wire packets: IP fragments of transport datagrams.

    A transport datagram (one UDP RPC message, or one TCP segment) larger
    than the outgoing link's MTU is carried as several fragments sharing
    an [ip_id].  Losing any one fragment loses the whole datagram — the
    "fragmentation considered harmful" failure mode [Kent87b] that drives
    the paper's transport experiments.  Transport headers are modelled as
    per-datagram virtual bytes counted in the first fragment's wire size;
    [payload] carries only data bytes. *)

type proto = Udp | Tcp

type t = {
  proto : proto;
  src : int;  (** source host id *)
  dst : int;  (** destination host id *)
  src_port : int;
  dst_port : int;
  ip_id : int;  (** datagram identity for reassembly *)
  frag_off : int;  (** byte offset of [payload] within the datagram data *)
  more : bool;  (** more fragments follow *)
  total_data : int;  (** data length of the whole datagram *)
  payload : Renofs_mbuf.Mbuf.t;
  sum : (int * int) option;
      (** UDP checksum metadata, [(data length, Internet checksum)] as
          computed by the sender.  Virtual like the UDP header itself:
          not counted in {!wire_size}, copied onto every fragment, and
          verified (against the reassembled payload) by the receiving
          transport.  [None] means the sender sent without a checksum —
          the Sun-checksums-off configuration. *)
}

val data_len : t -> int
val wire_size : t -> int
(** Bytes on the wire: IP header + (first fragment only) transport header
    + data. *)

val is_fragmented : t -> bool
(** True if this packet is one piece of a multi-fragment datagram. *)

val make_datagram :
  ?sum:int * int ->
  proto:proto ->
  src:int ->
  dst:int ->
  src_port:int ->
  dst_port:int ->
  ip_id:int ->
  Renofs_mbuf.Mbuf.t ->
  t
(** An unfragmented datagram-as-single-packet (fragment it with
    {!fragment} before transmission if needed).  [sum] is the sender's
    checksum metadata (absent = unchecksummed). *)

val fragment : t -> mtu:int -> t list
(** Split (or further split — routers re-fragment fragments) so every
    piece fits [mtu].  Non-final pieces carry a multiple of 8 data bytes,
    as IP requires.  The input packet's payload chain is consumed.
    Raises [Invalid_argument] if [mtu] cannot fit even one aligned data
    unit. *)
