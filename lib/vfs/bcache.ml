module Cpu = Renofs_engine.Cpu

type search_mode = Vnode_chained | Global_scan

type stats = { mutable hits : int; mutable misses : int }

(* A resident buffer on the circular LRU list. *)
type buf = { key : int * int; mutable prev : buf; mutable next : buf }

type t = {
  cpu : Cpu.t;
  capacity : int;
  search : search_mode;
  table : (int * int, buf) Hashtbl.t;
  lru : buf;
      (* Sentinel, never in [table]: [lru.next] is the most recently
         used buffer, [lru.prev] the least. *)
  stats : stats;
}

(* Search costs in instructions: a hash probe down the vnode chain vs a
   walk over the resident buffer headers. *)
let chained_instructions = 60.0
let scan_instructions_per_buffer = 12.0

let create _sim cpu ~blocks ~search () =
  if blocks <= 0 then invalid_arg "Bcache.create: blocks must be positive";
  let rec lru = { key = (-1, -1); prev = lru; next = lru } in
  {
    cpu;
    capacity = blocks;
    search;
    table = Hashtbl.create blocks;
    lru;
    stats = { hits = 0; misses = 0 };
  }

let search_mode t = t.search

let search_cost t =
  match t.search with
  | Vnode_chained -> Cpu.seconds_of_instructions t.cpu chained_instructions
  | Global_scan ->
      let examined = float_of_int (Hashtbl.length t.table) in
      Cpu.seconds_of_instructions t.cpu
        (chained_instructions +. (scan_instructions_per_buffer *. examined))

let unlink b =
  b.prev.next <- b.next;
  b.next.prev <- b.prev

let push_front t b =
  b.prev <- t.lru;
  b.next <- t.lru.next;
  t.lru.next.prev <- b;
  t.lru.next <- b

let touch t b =
  unlink b;
  push_front t b

let lookup t ~ino ~blk =
  Cpu.consume t.cpu (search_cost t);
  match Hashtbl.find_opt t.table (ino, blk) with
  | Some b ->
      touch t b;
      t.stats.hits <- t.stats.hits + 1;
      true
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      false

let insert t ~ino ~blk =
  let key = (ino, blk) in
  match Hashtbl.find_opt t.table key with
  | Some b -> touch t b
  | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        let victim = t.lru.prev in
        unlink victim;
        Hashtbl.remove t.table victim.key
      end;
      let b = { key; prev = t.lru; next = t.lru } in
      push_front t b;
      Hashtbl.add t.table key b

let invalidate_ino t ino =
  let b = ref t.lru.next in
  while !b != t.lru do
    let cur = !b in
    b := cur.next;
    if fst cur.key = ino then begin
      unlink cur;
      Hashtbl.remove t.table cur.key
    end
  done

let resident t = Hashtbl.length t.table
let stats t = t.stats
