(** UDP datagram sockets over the simulated IP layer.

    Sockets have bounded receive buffers, as 4.3BSD's do: a server whose
    nfsds cannot keep up drops requests at the socket, which is one of
    the overload behaviours the transport experiments react to. *)

type stack
(** Per-node UDP demultiplexer. *)

type socket

(** One received datagram.  [arrived_at] is the sim time it entered the
    socket queue: receivers subtract it from now to measure queue wait
    (the [Srv_queue] trace event). *)
type datagram = {
  src : int;
  src_port : int;
  payload : Renofs_mbuf.Mbuf.t;
  arrived_at : float;
}

val install : ?checksum:bool -> Renofs_net.Node.t -> stack
(** Claim the node's UDP input.  Each datagram is charged 180
    instructions of socket-layer processing in each direction (0.2 ms
    on a 0.9-MIPS MicroVAXII, scaled by the node's MIPS).

    [checksum] (default [true]) controls the optional UDP checksum:
    senders attach [(length, Internet checksum)] metadata and receivers
    drop any datagram whose reassembled payload no longer matches
    (traced as a [Bad_checksum] drop, counted by {!checksum_drops}).
    Unchecksummed datagrams ([sum = None]) are always accepted, as UDP
    specifies.  [~checksum:false] reproduces the early Sun servers that
    shipped with UDP checksums off: wire corruption then reaches the
    RPC layer, and anything XDR happens to decode reaches the file
    system. *)

val node : stack -> Renofs_net.Node.t

val bind : ?recv_buffer:int -> stack -> port:int -> socket
(** Raises [Invalid_argument] if the port is taken.  [recv_buffer] is the
    receive-queue capacity in payload bytes (default 34816 bytes, 4.3BSD's
    ~4 x 8.5 KB). *)

val bind_ephemeral : ?recv_buffer:int -> stack -> socket

val sendto : socket -> dst:int -> dst_port:int -> Renofs_mbuf.Mbuf.t -> unit
(** Transmit one datagram (process context; consumes CPU). *)

exception Closed

val recv : socket -> datagram
(** Block until a datagram arrives.  Raises [Closed] once the socket is
    closed and its queue is empty. *)

val pending : socket -> int

val drops : socket -> int
(** Datagrams discarded because the receive buffer was full. *)

val checksum_drops : stack -> int
(** Datagrams discarded for a checksum or length mismatch. *)

val close : socket -> unit
(** Unbind the port.  A fiber blocked in {!recv} on the socket resumes
    at once, inside [close] rather than from the event queue, and its
    [recv] raises [Closed]: closing ends the receiver without
    scheduling an event. *)
