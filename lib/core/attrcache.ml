module Sim = Renofs_engine.Sim

(* A refresh updates the entry in place, and the stamp lives in its
   own all-float record: as a float field of the mixed entry it would
   point at a boxed float, and each refresh would leave a new box for
   the major heap to keep. *)
type stamp = { mutable at : float }
type entry = { mutable attr : Nfs_proto.fattr; stamp : stamp }

type t = {
  sim : Sim.t;
  timeout : float;
  table : (int, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

(* Lookup-only, so the table starts at Hashtbl's minimum and grows with
   the files the client touches. *)
let create sim ?(timeout = 5.0) () =
  { sim; timeout; table = Hashtbl.create 16; hits = 0; misses = 0 }

let get t fh =
  match Hashtbl.find_opt t.table fh with
  | Some e when Sim.now t.sim -. e.stamp.at <= t.timeout ->
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
  match Hashtbl.find_opt t.table fh with
  | Some e ->
      e.attr <- attr;
      e.stamp.at <- Sim.now t.sim
  | None -> Hashtbl.add t.table fh { attr; stamp = { at = Sim.now t.sim } }

let invalidate t fh = Hashtbl.remove t.table fh
let hits t = t.hits
let misses t = t.misses
