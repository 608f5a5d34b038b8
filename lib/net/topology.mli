(** The paper's client/server internetwork configurations, built from
    one declarative {!spec}.

    1. [Lan]: both machines on the same lightly-loaded Ethernet.
    2. [Campus]: two Ethernets joined by an 80 Mbit/s token ring and two
       IP routers, with bursty backbone cross-traffic.
    3. [Wide_area]: as [Campus] plus a 56 Kbit/s point-to-point link
       and a third router.
    4. [Star]: a server with N clients, each on its own Ethernet drop —
       the server-characterization setup of [Keith90].

    Hosts default to 0.9 MIPS MicroVAXIIs with tuned DEQNA profiles.

    Beyond the four paper shapes, {!build_graph} makes fleet-scale
    worlds: N servers behind a router tier (a chained campus backbone
    or a small fat-tree) with a heterogeneous client population.

    Node and link names are stable across runs, so fault schedules can
    target them: hosts are ["client"] / ["server"] (Star clients:
    ["client0"], ["client1"], ...), routers ["router1"] .. ["router3"],
    and link bases ["eth0"] (Lan), ["eth1"] / ["ring"] / ["eth2"]
    (Campus), plus ["serial56k"] (Wide_area), and ["eth0"] ..
    ["ethN-1"] (Star).  Each base names two directions,
    ["<base>:<a>><b>"].

    Graph worlds extend the contract: servers are ["server0"] ..
    ["serverN-1"] (node ids 2..), routers ["bb0"].. (Backbone) or
    ["spine0"].. / ["leaf0"].. (Fat_tree, ids 1000..), clients
    ["client0"].. (ids 100_000..); link bases are ["srv<i>"] (server
    edges), ["cl<i>"] (client edges), ["bbring<i>"] (backbone hops)
    and ["ft<i>_<j>"] (spine<i>-leaf<j>). *)

type params = {
  seed : int;
  client_mips : float;
  server_mips : float;
  client_nic : Nic.profile;
  server_nic : Nic.profile;
  cross_traffic : bool;  (** competing load on shared segments *)
  link_loss : float;  (** random per-packet loss on backbone links *)
}

val default_params : params
(** seed 1, 0.9 MIPS hosts, tuned DEQNAs, cross-traffic on, 0.1% backbone
    loss. *)

type shape = Lan | Campus | Wide_area | Star

type spec = { shape : shape; clients : int; params : params }
(** [clients] must be 1 for every shape but [Star]. *)

val default_spec : spec
(** [Lan], one client, {!default_params}. *)

(** Router fabric between servers and clients in a graph world. *)
type tier =
  | Backbone of int
      (** [n] campus-class routers chained by token rings; hosts attach
          round-robin *)
  | Fat_tree of { spines : int; leaves : int }
      (** every spine linked to every leaf; hosts attach to leaves
          round-robin *)

type graph_spec = {
  g_servers : int;  (** 1 .. 90 *)
  g_clients : int;  (** at least 1 *)
  g_tier : tier;
  g_wan_fraction : float;
      (** fraction of clients on 56K serial edges instead of Ethernet,
          spread evenly through the population; within [0,1] *)
  g_params : params;
}

val default_graph_spec : graph_spec
(** 4 servers, 8 clients, [Backbone 1], no WAN clients,
    {!default_params}. *)

type t = {
  sim : Renofs_engine.Sim.t;
  client : Node.t;  (** the first (often only) client *)
  server : Node.t;  (** the first (often only) server *)
  clients : Node.t list;  (** every client host, [client] first *)
  servers : Node.t list;  (** every server host, [server] first *)
  routers : Node.t list;
  all : Node.t list;
  bottleneck : Link.t option;
      (** the link most likely to congest (client-bound direction), when
          there is one: the token ring or the 56K line *)
}

val build : Renofs_engine.Sim.t -> spec -> t
(** The one constructor.  Raises [Invalid_argument] on a [clients]
    count the shape cannot honour. *)

val build_graph : Renofs_engine.Sim.t -> graph_spec -> t
(** N servers behind a router {!tier}, M clients on heterogeneous
    edges; see the naming contract above.  Raises [Invalid_argument]
    on out-of-range counts. *)

val shape_of_name : string -> shape
(** "lan", "campus", "wan" or "star".  Raises [Invalid_argument]
    otherwise. *)

val server_id : t -> int
