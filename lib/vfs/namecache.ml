type stats = { mutable hits : int; mutable misses : int; mutable too_long : int }

type t = {
  capacity : int;
  table : (int * string, int) Hashtbl.t;
  order : (int * string) Queue.t; (* FIFO eviction order *)
  stats : stats;
}

(* 4.3BSD Reno's NCHNAMLEN. *)
let max_name_len = 31

(* The table starts at Hashtbl's minimum and grows with its entries:
   [capacity] bounds it, and most caches never come near that.  Nothing
   iterates it in an order that reaches output ([invalidate_dir] only
   collects the keys it removes). *)
let create ?(capacity = 256) () =
  {
    capacity;
    table = Hashtbl.create 16;
    order = Queue.create ();
    stats = { hits = 0; misses = 0; too_long = 0 };
  }

let lookup t ~dir name =
  if String.length name > max_name_len then begin
    t.stats.too_long <- t.stats.too_long + 1;
    None
  end
  else
    match Hashtbl.find_opt t.table (dir, name) with
    | Some ino ->
        t.stats.hits <- t.stats.hits + 1;
        Some ino
    | None ->
        t.stats.misses <- t.stats.misses + 1;
        None

let evict_one t =
  match Queue.take_opt t.order with
  | Some key -> Hashtbl.remove t.table key
  | None -> ()

let enter t ~dir name ino =
  if String.length name <= max_name_len then begin
    let key = (dir, name) in
    if not (Hashtbl.mem t.table key) then begin
      while Hashtbl.length t.table >= t.capacity do
        evict_one t
      done;
      Queue.add key t.order
    end;
    Hashtbl.replace t.table key ino
  end

let remove t ~dir name = Hashtbl.remove t.table (dir, name)

let invalidate_dir t dir =
  let doomed =
    Hashtbl.fold
      (fun ((d, _) as key) _ acc -> if d = dir then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed

let purge t =
  Hashtbl.reset t.table;
  Queue.clear t.order

let stats t = t.stats
