(** Hosts and routers.

    A node owns a CPU, a NIC cost profile, interfaces onto links, a
    static routing table and an IP reassembly buffer.  Sending charges
    the calling process for checksum and per-packet interface work;
    receiving charges interrupt-priority CPU before the datagram reaches
    the transport handler — so a saturated server CPU shows up as RTT,
    exactly as in the paper's graphs. *)

type t

(** A reassembled transport datagram handed to a protocol handler. *)
type datagram = {
  proto : Packet.proto;
  src : int;
  src_port : int;
  dst_port : int;
  payload : Renofs_mbuf.Mbuf.t;
  sum : (int * int) option;
      (** the sender's [(length, checksum)] metadata, if it checksummed —
          see [Packet.t.sum]; the receiving transport verifies it *)
}

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable packets_forwarded : int;
  mutable no_route_drops : int;
  mutable no_handler_drops : int;
}

val create :
  Renofs_engine.Sim.t ->
  id:int ->
  name:string ->
  mips:float ->
  nic:Nic.profile ->
  rng:Renofs_engine.Rng.t ->
  ?forward_cost:float ->
  unit ->
  t
(** [forward_cost] is CPU seconds per forwarded packet (default 0.3 ms);
    only routers exercise it. *)

val id : t -> int
val name : t -> string
val sim : t -> Renofs_engine.Sim.t
val cpu : t -> Renofs_engine.Cpu.t
val rng : t -> Renofs_engine.Rng.t
val nic : t -> Nic.profile

val copy_counters : t -> Renofs_mbuf.Mbuf.Counters.t
(** This host's mbuf copy/allocation accounting. *)

val stats : t -> stats

(** Everything a world may hang off a node to watch (or feed) it.
    Build one by overriding {!detached}:
    [{ Node.detached with trace = Some tr }]. *)
type observers = {
  trace : Renofs_trace.Trace.t option;
  metrics : Renofs_metrics.Metrics.run option;
  pool : Renofs_mbuf.Mbuf.Pool.t option;
}

val detached : observers
(** All [None] — the fast path.  A detached node records nothing,
    registers nothing, allocates mbufs straight from the heap, and pays
    one branch per would-be observation. *)

val attach : t -> observers -> unit
(** Wire every observer kind in one call.

    [trace] covers the host's own events ([Frag_lost] from reassembly
    timeouts), every outgoing link direction attached so far, and —
    because the transports and the NFS client/server consult {!trace} —
    everything those layers record on this host.

    [metrics] registers sampled sources for the reassembly buffer
    (in-flight fragments, timeouts), mbuf copy bytes, and every outgoing
    link direction attached so far (busy-time, queue length, drops,
    bytes); upper layers consult {!metrics} at creation time to register
    their own sources, so attach before building them.

    [pool] is the world's shared mbuf free list; the transports and RPC
    layers consult {!pool} to recycle buffer storage across calls.

    Call after {!connect}ing this node ({!connect} propagates to links
    made later, but metrics sources are only registered for links that
    exist now), and attach metrics at most once per run (sources
    re-register). *)

val trace : t -> Renofs_trace.Trace.t option
(** The attached sink, if any.  Upper layers (UDP, TCP, the NFS client
    transport and server) read this on their hot paths; a [None] costs
    one branch. *)

val metrics : t -> Renofs_metrics.Metrics.run option
(** The attached metrics run, if any. *)

val pool : t -> Renofs_mbuf.Mbuf.Pool.t option
(** The attached mbuf pool, if any. *)

val connect :
  t ->
  t ->
  name:string ->
  bandwidth_bps:float ->
  delay:float ->
  mtu:int ->
  queue_limit:int ->
  ?loss:float ->
  unit ->
  Link.t * Link.t
(** Join two nodes with a full-duplex link; returns the [(a_to_b, b_to_a)]
    directions for inspection. *)

val links : t -> Link.t list
(** Outgoing link directions attached so far. *)

val auto_routes : t list -> unit
(** Fill every node's routing table with shortest-hop next hops (BFS);
    call once after all {!connect}s.  Single-homed hosts get a default
    route through their one interface (guarded by a shared
    reachable-set membership test, so destinations outside the world
    still count as [no_route_drops]) instead of a per-destination
    table — semantically identical, but fleet-scale worlds with
    thousands of leaf clients route in O(n) instead of O(n^2). *)

val set_proto_handler :
  t -> ?needs_fiber:bool -> Packet.proto -> (datagram -> unit) -> unit
(** Install the UDP or TCP input function.  The handler runs from a
    CPU-completion event after reassembly and per-datagram input costs.
    By default it is given a process context ({!Proc.run}), so it may
    block — on the CPU, a socket buffer, a timer.  A handler that never
    suspends can pass [~needs_fiber:false] to skip the per-datagram
    fiber allocation; calling anything that suspends from such a
    handler raises [Effect.Unhandled]. *)

val send_datagram :
  t ->
  ?sum:int * int ->
  proto:Packet.proto ->
  dst:int ->
  src_port:int ->
  dst_port:int ->
  Renofs_mbuf.Mbuf.t ->
  unit
(** Route, checksum, fragment and transmit one transport datagram.
    Must run inside a process (it consumes CPU).  Consumes the chain.
    [sum] is checksum metadata carried to the receiver (default none). *)

val send_datagram_k :
  t ->
  ?sum:int * int ->
  proto:Packet.proto ->
  dst:int ->
  src_port:int ->
  dst_port:int ->
  Renofs_mbuf.Mbuf.t ->
  (unit -> unit) ->
  unit
(** {!send_datagram} in continuation-passing style: queues exactly the
    same CPU jobs at the same moments, but needs no process — the final
    callback runs once the last fragment has been handed to its link.
    For event-driven senders (e.g. the cross-traffic generator) that
    would otherwise keep a fiber alive just to block on the NIC. *)
