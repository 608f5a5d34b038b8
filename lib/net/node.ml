module Sim = Renofs_engine.Sim
module Probe = Renofs_engine.Probe
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Rng = Renofs_engine.Rng
module Mbuf = Renofs_mbuf.Mbuf
module Trace = Renofs_trace.Trace
module Metrics = Renofs_metrics.Metrics

type datagram = {
  proto : Packet.proto;
  src : int;
  src_port : int;
  dst_port : int;
  payload : Mbuf.t;
  sum : (int * int) option;
      (* sender's (length, checksum) metadata — see [Packet.t.sum] *)
}

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable packets_forwarded : int;
  mutable no_route_drops : int;
  mutable no_handler_drops : int;
}

type iface = { mtu : int; link : Link.t; peer : int }

(* Everything a world may hang off a node to watch (or feed) it.  One
   record instead of one setter per layer: adding an observer kind means
   one field here plus its wiring in [attach]. *)
type observers = {
  trace : Trace.t option;
  metrics : Metrics.run option;
  pool : Mbuf.Pool.t option;
}

type t = {
  sim : Sim.t;
  id : int;
  name : string;
  cpu : Cpu.t;
  nic : Nic.profile;
  rng : Rng.t;
  forward_cost : float;
  mutable ifaces : iface list; (* in attachment order *)
  mutable routes : (int, iface) Hashtbl.t option;
      (* per-destination first hops, for the nodes [auto_routes] runs a
         BFS from; a single-homed host routes by [default_route] *)
  mutable default_route : (iface * (int, unit) Hashtbl.t) option;
      (* single-homed shortcut: (only iface, ids reachable through it) *)
  (* One-entry route cache: a router forwards long runs of packets to
     the same destination (cross-traffic especially), and a host's
     sends cluster per peer — so remembering the last lookup skips the
     hashtable (and its [find_opt] allocation) on almost every packet.
     Invalidated by [auto_routes]. *)
  mutable rc_dst : int;
  mutable rc_iface : iface option;
  reasm : Ipfrag.t;
  mutable udp_handler : (datagram -> unit) option;
  mutable tcp_handler : (datagram -> unit) option;
  copy_ctr : Mbuf.Counters.t;
  stats : stats;
  mutable next_ip_id : int;
  mutable trace : Trace.t option;
  mutable metrics : Metrics.run option;
  mutable pool : Mbuf.Pool.t option;
}

let create sim ~id ~name ~mips ~nic ~rng ?(forward_cost = 0.3e-3) () =
  {
    sim;
    id;
    name;
    cpu = Cpu.create sim ~mips;
    nic;
    rng;
    forward_cost;
    ifaces = [];
    routes = None;
    default_route = None;
    rc_dst = min_int;
    rc_iface = None;
    reasm = Ipfrag.create sim ();
    udp_handler = None;
    tcp_handler = None;
    copy_ctr = Mbuf.Counters.create ();
    stats =
      {
        datagrams_sent = 0;
        datagrams_received = 0;
        packets_forwarded = 0;
        no_route_drops = 0;
        no_handler_drops = 0;
      };
    next_ip_id = id * 100_000;
    trace = None;
    metrics = None;
    pool = None;
  }

let detached : observers = { trace = None; metrics = None; pool = None }

let id t = t.id
let name t = t.name
let sim t = t.sim
let cpu t = t.cpu
let rng t = t.rng
let nic t = t.nic
let copy_counters t = t.copy_ctr
let stats t = t.stats
let trace t = t.trace

let links t = List.rev_map (fun i -> i.link) t.ifaces |> List.rev
let metrics t = t.metrics
let pool t = t.pool

let register_link_metrics run link =
  let p suffix = Printf.sprintf "link:%s/%s" (Link.name link) suffix in
  let fi = float_of_int in
  Metrics.register run ~name:(p "busy_time") ~unit_:"s" ~kind:Metrics.Counter
    (fun () -> Link.busy_time link);
  Metrics.register run ~name:(p "qlen") ~unit_:"count" ~kind:Metrics.Gauge
    (fun () -> fi (Link.queue_length link));
  Metrics.register run ~name:(p "drops") ~unit_:"count" ~kind:Metrics.Counter
    (fun () ->
      let s = Link.stats link in
      fi (s.Link.queue_drops + s.Link.error_drops));
  Metrics.register run ~name:(p "bytes") ~unit_:"bytes" ~kind:Metrics.Counter
    (fun () -> fi (Link.stats link).Link.bytes_sent);
  Metrics.register run ~name:(p "mangled") ~unit_:"count" ~kind:Metrics.Counter
    (fun () -> fi (Link.stats link).Link.mangled)

(* One call per node wires every observer kind at once: the trace sink
   covers the host's own hooks, its reassembly buffer (fragment-loss
   events) and every outgoing link direction attached so far; the
   metrics run registers sampled sources for the same set; the mbuf
   pool is simply recorded for upper layers to consult.  Detached
   fields stay [None] and cost one branch wherever they are read. *)
let attach t (obs : observers) =
  t.trace <- obs.trace;
  t.pool <- obs.pool;
  List.iter (fun i -> Link.set_trace i.link obs.trace) t.ifaces;
  Ipfrag.set_on_timeout t.reasm (fun ~src ~ip_id ->
      match t.trace with
      | Some sink ->
          Trace.record sink ~time:(Sim.now t.sim) ~node:t.id
            (Trace.Frag_lost { src; ip_id })
      | None -> ());
  t.metrics <- obs.metrics;
  match obs.metrics with
  | None -> ()
  | Some run ->
      let p suffix = t.name ^ "." ^ suffix in
      let fi = float_of_int in
      Metrics.register run ~name:(p "ipfrag.pending") ~unit_:"count"
        ~kind:Metrics.Gauge (fun () -> fi (Ipfrag.pending t.reasm));
      Metrics.register run ~name:(p "ipfrag.timeouts") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi (Ipfrag.timeouts t.reasm));
      Metrics.register run ~name:(p "mbuf.bytes_copied") ~unit_:"bytes"
        ~kind:Metrics.Counter (fun () ->
          fi t.copy_ctr.Mbuf.Counters.bytes_copied);
      List.iter (fun i -> register_link_metrics run i.link) t.ifaces

let handler_for t = function
  | Packet.Udp -> t.udp_handler
  | Packet.Tcp -> t.tcp_handler

(* Handlers that may suspend (block on the CPU, a socket, a timer) are
   wrapped in a fiber at registration time, so the dispatch point below
   stays a plain call; handlers that never suspend register with
   [~needs_fiber:false] and skip the fiber allocation entirely — the
   cross-traffic sink runs millions of times per run and does nothing
   but recycle a buffer. *)
let set_proto_handler t ?(needs_fiber = true) proto h =
  let h = if needs_fiber then fun dg -> Proc.run (fun () -> h dg) else h in
  match proto with
  | Packet.Udp -> t.udp_handler <- Some h
  | Packet.Tcp -> t.tcp_handler <- Some h

let route_slow t dst =
  match match t.routes with Some r -> Hashtbl.find_opt r dst | None -> None with
  | Some _ as r -> r
  | None -> (
      match t.default_route with
      | Some (iface, known) when dst <> t.id && Hashtbl.mem known dst ->
          Some iface
      | _ -> None)

let route t dst =
  if dst = t.rc_dst then t.rc_iface
  else begin
    let r = route_slow t dst in
    t.rc_dst <- dst;
    t.rc_iface <- r;
    r
  end

(* Deliver a locally-addressed packet: interrupt-level per-packet work,
   reassembly, checksum of completed datagrams, protocol dispatch.

   Written in continuation-passing style over [Cpu.consume_k]: the old
   shape spawned a process per packet just to block on the CPU twice,
   which cost a fiber allocation and two effect suspensions per packet
   for control flow that creates exactly the same events.  The stage
   boundaries (one event to enter, one CPU job per stage) are
   unchanged, so event sequences — and therefore all simulated
   timings — are identical. *)
let dispatch t (whole : Packet.t) =
  t.stats.datagrams_received <- t.stats.datagrams_received + 1;
  match handler_for t whole.Packet.proto with
  | None -> t.stats.no_handler_drops <- t.stats.no_handler_drops + 1
  | Some h -> (
      let dg =
        {
          proto = whole.Packet.proto;
          src = whole.Packet.src;
          src_port = whole.Packet.src_port;
          dst_port = whole.Packet.dst_port;
          payload = whole.Packet.payload;
          sum = whole.Packet.sum;
        }
      in
      (* The handler is the protocol layer (UDP/TCP demux, RPC decode,
         fiber resume); charge it to the transport slot when probed. *)
      match Sim.probe t.sim with
      | None -> h dg
      | Some p ->
          let d = p.Probe.enter Probe.transport in
          (try h dg with e -> p.Probe.leave d; raise e);
          p.Probe.leave d)

let deliver_local t (pkt : Packet.t) =
  Sim.after t.sim 0.0 (fun () ->
      Cpu.consume_k ~priority:Cpu.Interrupt t.cpu
        (Nic.rx_cost t.nic ~data_bytes:(Packet.data_len pkt))
        (fun () ->
          match Ipfrag.insert t.reasm pkt with
          | None -> ()
          | Some whole ->
              Cpu.consume_k t.cpu
                (Nic.checksum_cost t.nic ~bytes:(Packet.data_len whole))
                (fun () -> dispatch t whole)))

let forward t (pkt : Packet.t) =
  Sim.after t.sim 0.0 (fun () ->
      Cpu.consume_k ~priority:Cpu.Interrupt t.cpu t.forward_cost (fun () ->
          match route t pkt.Packet.dst with
          | None -> t.stats.no_route_drops <- t.stats.no_route_drops + 1
          | Some iface ->
              t.stats.packets_forwarded <- t.stats.packets_forwarded + 1;
              List.iter (Link.send iface.link) (Packet.fragment pkt ~mtu:iface.mtu)))

let receive t pkt =
  if pkt.Packet.dst = t.id then deliver_local t pkt else forward t pkt

let connect a b ~name ~bandwidth_bps ~delay ~mtu ~queue_limit ?(loss = 0.0) () =
  let ab =
    Link.create a.sim
      ~name:(name ^ ":" ^ a.name ^ ">" ^ b.name)
      ~bandwidth_bps ~delay ~queue_limit ~loss ~owner:a.id ~rng:(Rng.split a.rng)
      ~deliver:(fun pkt -> receive b pkt)
      ()
  in
  let ba =
    Link.create a.sim
      ~name:(name ^ ":" ^ b.name ^ ">" ^ a.name)
      ~bandwidth_bps ~delay ~queue_limit ~loss ~owner:b.id ~rng:(Rng.split b.rng)
      ~deliver:(fun pkt -> receive a pkt)
      ()
  in
  (match a.trace with Some _ as tr -> Link.set_trace ab tr | None -> ());
  (match b.trace with Some _ as tr -> Link.set_trace ba tr | None -> ());
  (match a.metrics with Some run -> register_link_metrics run ab | None -> ());
  (match b.metrics with Some run -> register_link_metrics run ba | None -> ());
  a.ifaces <- a.ifaces @ [ { mtu; link = ab; peer = b.id } ];
  b.ifaces <- b.ifaces @ [ { mtu; link = ba; peer = a.id } ];
  (ab, ba)

let auto_routes nodes =
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun n ->
      n.rc_dst <- min_int;
      n.rc_iface <- None;
      Hashtbl.replace by_id n.id n)
    nodes;
  let bfs src =
    (* Shortest-hop tree rooted at [src]; record each node's first hop. *)
    let first_hop = Hashtbl.create 16 in
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited src.id ();
    let q = Queue.create () in
    List.iter
      (fun iface ->
        if not (Hashtbl.mem visited iface.peer) then begin
          Hashtbl.replace visited iface.peer ();
          Hashtbl.replace first_hop iface.peer iface;
          Queue.add (iface.peer, iface) q
        end)
      src.ifaces;
    while not (Queue.is_empty q) do
      let node_id, hop = Queue.take q in
      match Hashtbl.find_opt by_id node_id with
      | None -> ()
      | Some node ->
          List.iter
            (fun iface ->
              if not (Hashtbl.mem visited iface.peer) then begin
                Hashtbl.replace visited iface.peer ();
                Hashtbl.replace first_hop iface.peer hop;
                Queue.add (iface.peer, hop) q
              end)
            node.ifaces
    done;
    src.routes <- Some first_hop
  in
  (* A single-homed host's whole table would say "via my one link"; a
     shared membership set of its connected component replaces the
     per-destination entries (and the per-host BFS), which is what lets
     worlds with thousands of leaf clients route in O(n) instead of
     O(n^2) time and space.  Multi-homed nodes (routers) and nodes
     outside the first component keep the exact BFS tables. *)
  match nodes with
  | [] -> ()
  | first :: _ ->
      let component = Hashtbl.create 16 in
      let q = Queue.create () in
      Hashtbl.replace component first.id ();
      Queue.add first q;
      while not (Queue.is_empty q) do
        let n = Queue.take q in
        List.iter
          (fun iface ->
            if not (Hashtbl.mem component iface.peer) then begin
              Hashtbl.replace component iface.peer ();
              match Hashtbl.find_opt by_id iface.peer with
              | Some m -> Queue.add m q
              | None -> ()
            end)
          n.ifaces
      done;
      List.iter
        (fun n ->
          match n.ifaces with
          | [ only ] when Hashtbl.mem component n.id ->
              n.default_route <- Some (only, component)
          | _ -> bfs n)
        nodes

(* Continuation-passing transmit: checksum cost, then per-fragment NIC
   work and wire handoff, each stage from the CPU completion event of
   the one before — the same job sequence {!Cpu.consume} produced when
   this blocked a process, without needing one.  [k] runs right after
   the last fragment reaches its link. *)
let send_datagram_k t ?sum ~proto ~dst ~src_port ~dst_port payload k =
  match route t dst with
  | None ->
      t.stats.no_route_drops <- t.stats.no_route_drops + 1;
      k ()
  | Some iface ->
      t.next_ip_id <- t.next_ip_id + 1;
      let dgram =
        Packet.make_datagram ?sum ~proto ~src:t.id ~dst ~src_port ~dst_port
          ~ip_id:t.next_ip_id payload
      in
      let bytes = Packet.data_len dgram in
      Cpu.consume_k t.cpu (Nic.checksum_cost t.nic ~bytes) (fun () ->
          let frags = Packet.fragment dgram ~mtu:iface.mtu in
          let rec send_frags = function
            | [] ->
                t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
                k ()
            | pkt :: rest ->
                let data_bytes = Packet.data_len pkt in
                let clusters = Mbuf.num_clusters pkt.Packet.payload in
                let cluster_bytes = Mbuf.cluster_bytes pkt.Packet.payload in
                let small_bytes = data_bytes - cluster_bytes in
                (match t.nic.Nic.strategy with
                | Nic.Copy_to_board ->
                    t.copy_ctr.Mbuf.Counters.bytes_copied <-
                      t.copy_ctr.Mbuf.Counters.bytes_copied + data_bytes
                | Nic.Map_clusters ->
                    t.copy_ctr.Mbuf.Counters.bytes_copied <-
                      t.copy_ctr.Mbuf.Counters.bytes_copied + small_bytes);
                Cpu.consume_k t.cpu
                  (Nic.tx_cost t.nic ~data_bytes ~clusters ~small_bytes)
                  (fun () ->
                    Link.send iface.link pkt;
                    send_frags rest)
          in
          send_frags frags)

let send_datagram t ?sum ~proto ~dst ~src_port ~dst_port payload =
  Proc.suspend (fun resume ->
      send_datagram_k t ?sum ~proto ~dst ~src_port ~dst_port payload resume)
