module Sim = Renofs_engine.Sim

type entry = { attr : Nfs_proto.fattr; stamp : float }

type t = {
  sim : Sim.t;
  timeout : float;
  table : (int, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create sim ?(timeout = 5.0) () =
  { sim; timeout; table = Hashtbl.create 64; hits = 0; misses = 0 }

let get t fh =
  match Hashtbl.find_opt t.table fh with
  | Some e when Sim.now t.sim -. e.stamp <= t.timeout ->
      t.hits <- t.hits + 1;
      Some e.attr
  | Some _ ->
      Hashtbl.remove t.table fh;
      t.misses <- t.misses + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let peek t fh =
  match Hashtbl.find_opt t.table fh with Some e -> Some e.attr | None -> None

let update t fh attr =
  Hashtbl.replace t.table fh { attr; stamp = Sim.now t.sim }

let invalidate t fh = Hashtbl.remove t.table fh
let hits t = t.hits
let misses t = t.misses
