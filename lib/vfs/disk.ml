module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc

type t = {
  sim : Sim.t;
  lock : Proc.Semaphore.t;
  mutable reads : int;
  mutable writes : int;
}

(* An RD53: average seek and rotational delay in seconds, transfer in
   bytes per second. *)
let avg_seek = 0.030
let avg_rotation = 0.0083
let transfer_rate = 0.6e6

let create sim =
  {
    sim;
    lock = Proc.Semaphore.create sim 1;
    reads = 0;
    writes = 0;
  }

let io t ~bytes =
  let service =
    avg_seek +. avg_rotation +. (float_of_int bytes /. transfer_rate)
  in
  Proc.Semaphore.acquire t.lock;
  Proc.sleep t.sim service;
  Proc.Semaphore.release t.lock

let read t ~bytes =
  t.reads <- t.reads + 1;
  io t ~bytes

let write t ~bytes =
  t.writes <- t.writes + 1;
  io t ~bytes

let reads t = t.reads
let writes t = t.writes
