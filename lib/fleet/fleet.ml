module Node = Renofs_net.Node
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Mountd = Renofs_core.Mountd

type policy = Round_robin | Hash | Least_loaded

let policy_name = function
  | Round_robin -> "round-robin"
  | Hash -> "hash"
  | Least_loaded -> "least-loaded"

let policy_of_name = function
  | "round-robin" | "rr" -> Round_robin
  | "hash" -> Hash
  | "least-loaded" | "ll" -> Least_loaded
  | other -> invalid_arg ("Fleet.policy_of_name: unknown policy " ^ other)

module Shard_map = struct
  type t = {
    policy : policy;
    seed : int;
    n_servers : int;
    table : (string, int) Hashtbl.t;
    loads : int array;
    mutable next_rr : int;
  }

  let create ?(seed = 0) policy ~servers =
    if servers < 1 then
      invalid_arg "Fleet.Shard_map.create: needs at least one server";
    {
      policy;
      seed;
      n_servers = servers;
      table = Hashtbl.create 64;
      loads = Array.make servers 0;
      next_rr = 0;
    }

  (* FNV-1a, then a murmur-style avalanche: FNV alone leaves the low
     bits of near-sequential names like "/home0".."/home99" correlated
     enough to skew [mod n_servers] past the fleet balance bound. *)
  let hash_name seed s =
    let mask = 0x3FFFFFFF in
    let h = ref ((0x811c9dc5 lxor (seed * 0x9e3779b9)) land mask) in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land mask)
      s;
    let h = !h in
    let h = (h lxor (h lsr 16)) * 0x7feb352d land mask in
    let h = (h lxor (h lsr 15)) * 0x846ca68b land mask in
    h lxor (h lsr 16)

  let least_loaded t =
    let best = ref 0 in
    Array.iteri (fun i l -> if l < t.loads.(!best) then best := i) t.loads;
    !best

  let assign t shard =
    match Hashtbl.find_opt t.table shard with
    | Some i -> i
    | None ->
        let i =
          match t.policy with
          | Round_robin ->
              let i = t.next_rr mod t.n_servers in
              t.next_rr <- t.next_rr + 1;
              i
          | Hash ->
              (* Two-choice hashing: a single hash leaves a ~1.3
                 max/mean skew at 100 shards over 4 servers; taking
                 the lighter-loaded of two hash-picked candidates
                 keeps it within a shard or two of perfect. *)
              let c1 = hash_name t.seed shard mod t.n_servers in
              let c2 = hash_name (t.seed + 0x5bd1) shard mod t.n_servers in
              if t.loads.(c1) <= t.loads.(c2) then c1 else c2
          | Least_loaded -> least_loaded t
        in
        Hashtbl.replace t.table shard i;
        t.loads.(i) <- t.loads.(i) + 1;
        i

  let find t shard = Hashtbl.find_opt t.table shard
  let loads t = Array.copy t.loads

  let assignments t =
    Hashtbl.fold (fun shard i acc -> (shard, i) :: acc) t.table []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Fleet worlds                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  servers : Nfs_server.t array;
  map : Shard_map.t;
  shards : string list;
}

let shard_name i = Printf.sprintf "/home%d" i

let create ?(policy = Hash) ?(seed = 0) ~shards nodes =
  if nodes = [] then invalid_arg "Fleet.create: needs at least one server node";
  if shards < 1 then invalid_arg "Fleet.create: needs at least one shard";
  let servers =
    List.map
      (fun node ->
        let srv = Nfs_server.create node ~udp:(Udp.install node) () in
        Nfs_server.start srv;
        Mountd.start srv;
        srv)
      nodes
  in
  let servers = Array.of_list servers in
  let map = Shard_map.create ~seed policy ~servers:(Array.length servers) in
  { servers; map; shards = List.init shards shard_name }

let shards t = t.shards
let servers t = Array.to_list t.servers
let server_of_shard t shard = t.servers.(Shard_map.assign t.map shard)

let provision t =
  List.iter
    (fun shard ->
      let srv = server_of_shard t shard in
      let fs = Nfs_server.fs srv in
      let name =
        match
          String.split_on_char '/' shard |> List.filter (fun c -> c <> "")
        with
        | [ name ] -> name
        | _ -> invalid_arg "Fleet.provision: shards are single-component paths"
      in
      (* World-writable like the export root itself: clients present
         non-root AUTH_UNIX credentials and must be able to populate
         their shard. *)
      ignore
        (Renofs_vfs.Fs.mkdir fs ~dir:(Renofs_vfs.Fs.root fs) name ~mode:0o777 ()))
    t.shards

let iter_shards t f =
  List.iter (fun shard -> f ~shard ~server:(server_of_shard t shard)) t.shards

let mount_shard t ~udp ?tcp ~shard opts =
  let srv = server_of_shard t shard in
  Nfs_client.mount_path ~udp ?tcp
    ~server:(Node.id (Nfs_server.node srv))
    ~path:shard opts

let total_served t =
  Array.fold_left (fun acc srv -> acc + Nfs_server.rpcs_served srv) 0 t.servers

let balance t =
  let n = Array.length t.servers in
  let served =
    Array.map (fun srv -> float_of_int (Nfs_server.rpcs_served srv)) t.servers
  in
  let total = Array.fold_left ( +. ) 0.0 served in
  if total <= 0.0 then 1.0
  else
    let mean = total /. float_of_int n in
    Array.fold_left Float.max 0.0 served /. mean
