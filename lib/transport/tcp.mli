(** A 4.3BSD-Reno-style TCP over the simulated IP layer.

    Implements the pieces the paper's transport comparison depends on:
    Jacobson RTT estimation with [A + 4D] timeouts and Karn's rule,
    slow start and congestion avoidance [Jacobson88a], Reno fast
    retransmit / fast recovery, exponential timer backoff, go-back-N on
    timeout, receiver-advertised flow control with a persist probe, and
    out-of-order reassembly.  Each segment carries a real 20-byte header
    in its payload, and protocol processing is charged to the host CPU —
    the source of TCP's ~20% CPU premium over UDP in Graph 6.

    Simplifications (documented in DESIGN.md): no delayed ACKs (4.3BSD's
    200 ms ACK timer mostly vanishes under RPC traffic because replies
    follow requests immediately), initial sequence numbers are zero, and
    connection teardown is abbreviated (no TIME_WAIT). *)

type stack
type conn

exception Connection_closed
exception Connect_timeout

(** Per-connection observability for the benches. *)
type stats = {
  segs_sent : int;
  segs_received : int;
  retransmit_timeouts : int;
  fast_retransmits : int;
  bytes_sent : int;
  srtt : float;
  rto : float;
  cwnd : float;
}

val install : Renofs_net.Node.t -> stack
(** Claim the node's TCP input.  Protocol processing costs 480
    instructions per data segment sent or received and 200 per pure
    ACK received, converted to seconds on this node's CPU. *)

val node : stack -> Renofs_net.Node.t

val checksum_drops : stack -> int
(** Segments discarded on input because they were shorter than a header
    or failed the (always-on) TCP checksum — wire corruption the
    sender's retransmission repairs. *)

val listen : stack -> port:int -> (conn -> unit) -> unit
(** Accept connections on [port]; the callback runs as a new process per
    connection. *)

val connect : ?mss:int -> stack -> dst:int -> dst_port:int -> conn
(** Active open; blocks until established.  [mss] defaults to 512, the
    4.3BSD choice for non-local destinations (1460 is the on-LAN value).
    Every connection has a 16 KiB receive buffer.
    Raises {!Connect_timeout} after repeated unanswered SYNs. *)

val send : conn -> Renofs_mbuf.Mbuf.t -> unit
(** Queue bytes for transmission; blocks while the send buffer is full.
    Concurrent senders are serialised, as the paper notes the Reno NFS
    does for stream sockets.  Consumes the chain. *)

val recv : conn -> max:int -> Renofs_mbuf.Mbuf.t
(** Block until at least one byte is readable; returns at most [max]
    bytes.  Raises {!Connection_closed} once the peer has closed and the
    buffer is drained. *)

val close : conn -> unit
(** Send FIN after pending data; further {!send}s raise. *)

val abort : conn -> unit
(** Hard reset: send RST, drop all state, wake blocked callers with
    {!Connection_closed}.  Must run inside a process. *)

val reset_all : stack -> unit
(** {!abort} every connection — what a host reboot does. *)

val stats : conn -> stats

val peer : conn -> int
(** Remote host id. *)

val peer_port : conn -> int
