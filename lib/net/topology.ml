module Sim = Renofs_engine.Sim
module Rng = Renofs_engine.Rng

type params = {
  seed : int;
  client_mips : float;
  server_mips : float;
  client_nic : Nic.profile;
  server_nic : Nic.profile;
  cross_traffic : bool;
  link_loss : float;
}

let default_params =
  {
    seed = 1;
    client_mips = 0.9;
    server_mips = 0.9;
    client_nic = Nic.deqna_tuned;
    server_nic = Nic.deqna_tuned;
    cross_traffic = true;
    link_loss = 0.001;
  }

type shape = Lan | Campus | Wide_area | Star

type spec = { shape : shape; clients : int; params : params }

let default_spec = { shape = Lan; clients = 1; params = default_params }

type tier = Backbone of int | Fat_tree of { spines : int; leaves : int }

type graph_spec = {
  g_servers : int;
  g_clients : int;
  g_tier : tier;
  g_wan_fraction : float;
  g_params : params;
}

let default_graph_spec =
  {
    g_servers = 4;
    g_clients = 8;
    g_tier = Backbone 1;
    g_wan_fraction = 0.0;
    g_params = default_params;
  }

type t = {
  sim : Sim.t;
  client : Node.t;
  server : Node.t;
  clients : Node.t list;
  servers : Node.t list;
  routers : Node.t list;
  all : Node.t list;
  bottleneck : Link.t option;
}

let server_id t = Node.id t.server

(* Link-class constants. *)
let ethernet = (10.0e6, 0.1e-3, 1500, 50)
let token_ring = (80.0e6, 0.5e-3, 4464, 30)
let slow_serial = (56.0e3, 5.0e-3, 1006, 10)

let connect_class a b ~name ~loss (bandwidth_bps, delay, mtu, queue_limit) =
  Node.connect a b ~name ~bandwidth_bps ~delay ~mtu ~queue_limit ~loss ()

let make_host sim rng ~id ~name ~mips ~nic =
  Node.create sim ~id ~name ~mips ~nic ~rng:(Rng.split rng) ()

let make_router sim rng ~id ~name =
  (* Dedicated routing hardware: modest CPU fully devoted to forwarding. *)
  Node.create sim ~id ~name ~mips:2.0 ~nic:Nic.deqna_tuned ~rng:(Rng.split rng)
    ~forward_cost:0.3e-3 ()

(* Fleet-era fabric routers: fast enough that the servers, not the
   interconnect, stay the saturating resource in multi-server worlds
   (the paper's 1991 routers would bottleneck a 16-server sweep before
   the first server broke a sweat). *)
let make_fabric_router sim rng ~id ~name =
  Node.create sim ~id ~name ~mips:10.0 ~nic:Nic.deqna_tuned ~rng:(Rng.split rng)
    ~forward_cost:0.05e-3 ()

let host_pair sim rng params =
  ( make_host sim rng ~id:1 ~name:"client" ~mips:params.client_mips
      ~nic:params.client_nic,
    make_host sim rng ~id:2 ~name:"server" ~mips:params.server_mips
      ~nic:params.server_nic )

let build_lan sim params =
  let rng = Rng.create params.seed in
  let client, server = host_pair sim rng params in
  let _ = connect_class client server ~name:"eth0" ~loss:0.0 ethernet in
  let all = [ client; server ] in
  Node.auto_routes all;
  {
    sim;
    client;
    server;
    clients = [ client ];
    servers = [ server ];
    routers = [];
    all;
    bottleneck = None;
  }

let build_campus sim params =
  let rng = Rng.create params.seed in
  let client, server = host_pair sim rng params in
  let r1 = make_router sim rng ~id:10 ~name:"router1"
  and r2 = make_router sim rng ~id:11 ~name:"router2" in
  let _ = connect_class client r1 ~name:"eth1" ~loss:0.0 ethernet in
  let _ring_out, ring_back =
    connect_class r1 r2 ~name:"ring" ~loss:params.link_loss token_ring
  in
  let _ = connect_class r2 server ~name:"eth2" ~loss:0.0 ethernet in
  let all = [ client; server; r1; r2 ] in
  Node.auto_routes all;
  if params.cross_traffic then begin
    Traffic.sink r1;
    Traffic.sink r2;
    Traffic.start ~src:r1 ~dst:r2 Traffic.campus_backbone;
    Traffic.start ~src:r2 ~dst:r1 Traffic.campus_backbone
  end;
  {
    sim;
    client;
    server;
    clients = [ client ];
    servers = [ server ];
    routers = [ r1; r2 ];
    all;
    bottleneck = Some ring_back;
  }

let build_wide_area sim params =
  let rng = Rng.create params.seed in
  let client, server = host_pair sim rng params in
  let r1 = make_router sim rng ~id:10 ~name:"router1"
  and r2 = make_router sim rng ~id:11 ~name:"router2"
  and r3 = make_router sim rng ~id:12 ~name:"router3" in
  let _ = connect_class client r1 ~name:"eth1" ~loss:0.0 ethernet in
  let _ = connect_class r1 r2 ~name:"ring" ~loss:params.link_loss token_ring in
  let serial_out, _serial_back =
    connect_class r2 r3 ~name:"serial56k" ~loss:params.link_loss slow_serial
  in
  let _ = connect_class r3 server ~name:"eth2" ~loss:0.0 ethernet in
  let all = [ client; server; r1; r2; r3 ] in
  Node.auto_routes all;
  if params.cross_traffic then begin
    (* After hours the 56K line itself carried almost no other load
       (paper, Section 4); the campus ring still did. *)
    Traffic.sink r1;
    Traffic.sink r2;
    Traffic.start ~src:r1 ~dst:r2 Traffic.campus_backbone;
    Traffic.start ~src:r2 ~dst:r1 Traffic.campus_backbone
  end;
  {
    sim;
    client;
    server;
    clients = [ client ];
    servers = [ server ];
    routers = [ r1; r2; r3 ];
    all;
    bottleneck = Some serial_out;
  }

let build_star sim ~clients params =
  if clients < 1 then invalid_arg "Topology.build: Star needs at least one client";
  let rng = Rng.create params.seed in
  let server =
    make_host sim rng ~id:2 ~name:"server" ~mips:params.server_mips
      ~nic:params.server_nic
  in
  let client_nodes =
    List.init clients (fun i ->
        let c =
          make_host sim rng ~id:(100 + i)
            ~name:(Printf.sprintf "client%d" i)
            ~mips:params.client_mips ~nic:params.client_nic
        in
        let _ =
          connect_class c server ~name:(Printf.sprintf "eth%d" i) ~loss:0.0 ethernet
        in
        c)
  in
  let all = server :: client_nodes in
  Node.auto_routes all;
  {
    sim;
    client = List.hd client_nodes;
    server;
    clients = client_nodes;
    servers = [ server ];
    routers = [];
    all;
    bottleneck = None;
  }

(* ------------------------------------------------------------------ *)
(* Graph worlds: N servers behind a router tier                        *)
(* ------------------------------------------------------------------ *)

(* Disjoint id ranges, so fault schedules and traces can always tell
   who is who: servers 2..91, routers 1000+, clients 100_000+. *)
let max_graph_servers = 90

let build_graph sim g =
  let p = g.g_params in
  if g.g_servers < 1 then
    invalid_arg "Topology.build_graph: needs at least one server";
  if g.g_servers > max_graph_servers then
    invalid_arg
      (Printf.sprintf "Topology.build_graph: at most %d servers (got %d)"
         max_graph_servers g.g_servers);
  if g.g_clients < 1 then
    invalid_arg "Topology.build_graph: needs at least one client";
  if g.g_wan_fraction < 0.0 || g.g_wan_fraction > 1.0 then
    invalid_arg "Topology.build_graph: wan_fraction must be within [0,1]";
  let rng = Rng.create p.seed in
  let servers =
    List.init g.g_servers (fun i ->
        make_host sim rng ~id:(2 + i)
          ~name:(Printf.sprintf "server%d" i)
          ~mips:p.server_mips ~nic:p.server_nic)
  in
  (* [attach k] is the edge router the k-th host (server or client, each
     numbered independently) plugs into — round-robin, so shard load
     spreads across the tier. *)
  let routers, attach =
    match g.g_tier with
    | Backbone n ->
        if n < 1 then
          invalid_arg "Topology.build_graph: Backbone needs at least one router";
        let bb =
          Array.init n (fun i ->
              make_fabric_router sim rng ~id:(1000 + i)
                ~name:(Printf.sprintf "bb%d" i))
        in
        Array.iteri
          (fun i r ->
            if i + 1 < n then
              ignore
                (connect_class r bb.(i + 1)
                   ~name:(Printf.sprintf "bbring%d" i)
                   ~loss:p.link_loss token_ring))
          bb;
        (Array.to_list bb, fun k -> bb.(k mod n))
    | Fat_tree { spines; leaves } ->
        if spines < 1 || leaves < 1 then
          invalid_arg
            "Topology.build_graph: Fat_tree needs at least one spine and one \
             leaf";
        let spine =
          Array.init spines (fun i ->
              make_fabric_router sim rng ~id:(1000 + i)
                ~name:(Printf.sprintf "spine%d" i))
        in
        let leaf =
          Array.init leaves (fun i ->
              make_fabric_router sim rng
                ~id:(1000 + spines + i)
                ~name:(Printf.sprintf "leaf%d" i))
        in
        Array.iteri
          (fun i s ->
            Array.iteri
              (fun j l ->
                ignore
                  (connect_class s l
                     ~name:(Printf.sprintf "ft%d_%d" i j)
                     ~loss:p.link_loss token_ring))
              leaf)
          spine;
        (Array.to_list spine @ Array.to_list leaf, fun k -> leaf.(k mod leaves))
  in
  List.iteri
    (fun i s ->
      ignore
        (connect_class s (attach i)
           ~name:(Printf.sprintf "srv%d" i)
           ~loss:0.0 ethernet))
    servers;
  (* Client i is WAN-class when the running count [wan_fraction * i]
     gains a unit — spreads the slow edges evenly instead of bunching
     them at the front. *)
  let wan_count i = int_of_float (g.g_wan_fraction *. float_of_int i) in
  let clients =
    List.init g.g_clients (fun i ->
        let c =
          make_host sim rng ~id:(100_000 + i)
            ~name:(Printf.sprintf "client%d" i)
            ~mips:p.client_mips ~nic:p.client_nic
        in
        let cls = if wan_count (i + 1) > wan_count i then slow_serial else ethernet in
        ignore
          (connect_class c (attach i) ~name:(Printf.sprintf "cl%d" i) ~loss:0.0
             cls);
        c)
  in
  let all = servers @ routers @ clients in
  Node.auto_routes all;
  {
    sim;
    client = List.hd clients;
    server = List.hd servers;
    clients;
    servers;
    routers;
    all;
    bottleneck = None;
  }

let shape_name = function
  | Lan -> "Lan"
  | Campus -> "Campus"
  | Wide_area -> "Wide_area"
  | Star -> "Star"

let build sim spec =
  match spec.shape with
  | Star -> build_star sim ~clients:spec.clients spec.params
  | (Lan | Campus | Wide_area) as shape ->
      if spec.clients <> 1 then
        invalid_arg
          (Printf.sprintf
             "Topology.build: shape %s has exactly one client (got %d)"
             (shape_name shape) spec.clients);
      (match shape with
      | Lan -> build_lan sim spec.params
      | Campus -> build_campus sim spec.params
      | Wide_area -> build_wide_area sim spec.params
      | Star -> assert false)

let shape_of_name = function
  | "lan" -> Lan
  | "campus" -> Campus
  | "wan" -> Wide_area
  | "star" -> Star
  | other -> invalid_arg ("Topology.shape_of_name: unknown topology " ^ other)

