module Probe = Renofs_engine.Probe
module Json = Renofs_json.Json

let n_slots = Probe.n_slots
let hist_buckets = 28 (* log2(ns): bucket 27 is ~134 ms and up *)

(* One stack frame per nested scope; events never nest deeper than a
   handful of scopes, so overflow means a bug — pushes beyond the array
   are dropped (truncation keeps the accounting conserved anyway). *)
let max_depth = 64

type t = {
  clock_fn : unit -> float;
  self : float array;  (* self seconds per slot *)
  enters : int array;  (* scope enters per slot, deterministic *)
  fires : int array;  (* event fires per tag, deterministic *)
  fire_s : float array;  (* summed fire durations per tag *)
  hist : int array;  (* n_slots * hist_buckets *)
  stack : int array;
  mutable depth : int;  (* >= 1; stack.(0) = Probe.harness *)
  mutable mark : float;  (* wall time of the last attribution boundary *)
  mutable fire_t0 : float;
  mutable fire_tag : int;
  mutable wall_s : float;  (* accumulated across start/stop windows *)
  mutable win_start : float;
  mutable running : bool;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable direct_major_words : float;
      (* allocated straight into the major heap, not promoted into it *)
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable gc0 : Gc.stat option;
}

let create ?(clock = Unix.gettimeofday) () =
  let stack = Array.make max_depth Probe.harness in
  {
    clock_fn = clock;
    self = Array.make n_slots 0.0;
    enters = Array.make n_slots 0;
    fires = Array.make n_slots 0;
    fire_s = Array.make n_slots 0.0;
    hist = Array.make (n_slots * hist_buckets) 0;
    stack;
    depth = 1;
    mark = clock ();
    fire_t0 = 0.0;
    fire_tag = 0;
    wall_s = 0.0;
    win_start = 0.0;
    running = false;
    minor_words = 0.0;
    promoted_words = 0.0;
    direct_major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    gc0 = None;
  }

(* Charge the time since the last boundary to the top of the stack and
   advance the boundary.  Every probe operation goes through here, so
   slot self-times always sum to the profiled wall time. *)
let charge t =
  let now = t.clock_fn () in
  let top = t.stack.(t.depth - 1) in
  t.self.(top) <- t.self.(top) +. (now -. t.mark);
  t.mark <- now

let enter t slot =
  charge t;
  let d = t.depth in
  if d < max_depth then begin
    t.stack.(d) <- slot;
    t.depth <- d + 1
  end;
  t.enters.(slot) <- t.enters.(slot) + 1;
  d

(* Truncate, don't pop: a stale token (>= depth) is a no-op, and a
   token below several frames drops them all — both are the designed
   behaviour around suspended fibers (see Probe). *)
let leave t d = if d >= 1 && d < t.depth then begin charge t; t.depth <- d end
let current t = t.stack.(t.depth - 1)

let bucket_of_ns ns =
  if ns <= 0 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 && !b < hist_buckets - 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let fire_enter t tag =
  charge t;
  t.fires.(tag) <- t.fires.(tag) + 1;
  let d = t.depth in
  if d < max_depth then begin
    t.stack.(d) <- tag;
    t.depth <- d + 1
  end;
  t.fire_t0 <- t.mark;
  t.fire_tag <- tag;
  d

let fire_leave t d =
  charge t;
  let dt = t.mark -. t.fire_t0 in
  let tag = t.fire_tag in
  t.fire_s.(tag) <- t.fire_s.(tag) +. dt;
  let b = bucket_of_ns (int_of_float (dt *. 1e9)) in
  t.hist.((tag * hist_buckets) + b) <- t.hist.((tag * hist_buckets) + b) + 1;
  if d >= 1 && d < t.depth then t.depth <- d

let probe t =
  {
    Probe.enter = (fun slot -> enter t slot);
    leave = (fun d -> leave t d);
    current = (fun () -> current t);
    fire_enter = (fun tag -> fire_enter t tag);
    fire_leave = (fun d -> fire_leave t d);
  }

(* [Gc.quick_stat]'s [minor_words] leaves out the words allocated since
   the last minor collection; [Gc.minor_words ()] counts them. *)
let gc_stat () = { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () }

let start t =
  let now = t.clock_fn () in
  t.depth <- 1;
  t.mark <- now;
  t.win_start <- now;
  t.running <- true;
  t.gc0 <- Some (gc_stat ())

let stop t =
  if t.running then begin
    charge t;
    t.wall_s <- t.wall_s +. (t.mark -. t.win_start);
    t.running <- false;
    t.depth <- 1;
    match t.gc0 with
    | None -> ()
    | Some g0 ->
        let g1 = gc_stat () in
        t.minor_words <- t.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
        t.promoted_words <- t.promoted_words +. promoted;
        t.direct_major_words <-
          t.direct_major_words +. (g1.Gc.major_words -. g0.Gc.major_words -. promoted);
        t.minor_collections <-
          t.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
        t.major_collections <-
          t.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
        t.gc0 <- None
  end

let merge ~into src =
  for i = 0 to n_slots - 1 do
    into.self.(i) <- into.self.(i) +. src.self.(i);
    into.enters.(i) <- into.enters.(i) + src.enters.(i);
    into.fires.(i) <- into.fires.(i) + src.fires.(i);
    into.fire_s.(i) <- into.fire_s.(i) +. src.fire_s.(i)
  done;
  for i = 0 to (n_slots * hist_buckets) - 1 do
    into.hist.(i) <- into.hist.(i) + src.hist.(i)
  done;
  into.wall_s <- into.wall_s +. src.wall_s;
  into.minor_words <- into.minor_words +. src.minor_words;
  into.promoted_words <- into.promoted_words +. src.promoted_words;
  into.direct_major_words <- into.direct_major_words +. src.direct_major_words;
  into.minor_collections <- into.minor_collections + src.minor_collections;
  into.major_collections <- into.major_collections + src.major_collections

let counts t =
  let b = Buffer.create 256 in
  for i = 0 to n_slots - 1 do
    Buffer.add_string b
      (Printf.sprintf "%s enters=%d fires=%d\n" (Probe.slot_name i) t.enters.(i)
         t.fires.(i))
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Snapshots, table, JSON                                             *)
(* ------------------------------------------------------------------ *)

type slot_stat = {
  ss_name : string;
  ss_self_s : float;
  ss_enters : int;
  ss_fires : int;
  ss_fire_s : float;
  ss_hist : int array;
}

type snapshot = {
  p_wall_s : float;
  p_slots : slot_stat list;
  p_events : int;
  p_minor_words : float;
  p_promoted_words : float;
  p_direct_major_words : float;
  p_minor_collections : int;
  p_major_collections : int;
}

let snapshot t =
  let slots =
    List.init n_slots (fun i ->
        {
          ss_name = Probe.slot_name i;
          ss_self_s = t.self.(i);
          ss_enters = t.enters.(i);
          ss_fires = t.fires.(i);
          ss_fire_s = t.fire_s.(i);
          ss_hist = Array.sub t.hist (i * hist_buckets) hist_buckets;
        })
  in
  {
    p_wall_s = t.wall_s;
    p_slots = slots;
    p_events = Array.fold_left ( + ) 0 t.fires;
    p_minor_words = t.minor_words;
    p_promoted_words = t.promoted_words;
    p_direct_major_words = t.direct_major_words;
    p_minor_collections = t.minor_collections;
    p_major_collections = t.major_collections;
  }

let per_event s words =
  if s.p_events <= 0 then 0.0 else words /. float_of_int s.p_events

let minor_words_per_event s = per_event s s.p_minor_words
let direct_major_words_per_event s = per_event s s.p_direct_major_words

let print ppf s =
  let total = Float.max s.p_wall_s 1e-12 in
  Format.fprintf ppf "== profile: engine self-time ==@.";
  Format.fprintf ppf "%-10s %10s %6s %12s %12s %12s@." "subsystem" "self(s)"
    "wall%" "enters" "fires" "mean-fire(us)";
  List.iter
    (fun ss ->
      if ss.ss_self_s > 0.0 || ss.ss_enters > 0 || ss.ss_fires > 0 then
        Format.fprintf ppf "%-10s %10.4f %5.1f%% %12d %12d %12.2f@." ss.ss_name
          ss.ss_self_s
          (100.0 *. ss.ss_self_s /. total)
          ss.ss_enters ss.ss_fires
          (if ss.ss_fires = 0 then 0.0
           else 1e6 *. ss.ss_fire_s /. float_of_int ss.ss_fires))
    s.p_slots;
  Format.fprintf ppf "%-10s %10.4f %5.1f%% %12s %12d@." "total" s.p_wall_s 100.0
    "" s.p_events;
  Format.fprintf ppf
    "gc: %.0f minor words (%.1f/event), %.0f promoted, %.0f direct major \
     (%.1f/event), %d minor / %d major collections@."
    s.p_minor_words (minor_words_per_event s) s.p_promoted_words
    s.p_direct_major_words (direct_major_words_per_event s)
    s.p_minor_collections s.p_major_collections

let to_json s =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("schema", Str "renofs-profile/1");
      ("wall_s", Num s.p_wall_s);
      ("events", int s.p_events);
      ( "gc",
        Obj
          [
            ("minor_words", Num s.p_minor_words);
            ("promoted_words", Num s.p_promoted_words);
            ("direct_major_words", Num s.p_direct_major_words);
            ("minor_collections", int s.p_minor_collections);
            ("major_collections", int s.p_major_collections);
          ] );
      ( "slots",
        Arr
          (List.map
             (fun ss ->
               Json.Obj
                 [
                   ("name", Str ss.ss_name);
                   ("self_s", Num ss.ss_self_s);
                   ("enters", int ss.ss_enters);
                   ("fires", int ss.ss_fires);
                   ("fire_s", Num ss.ss_fire_s);
                   ("hist", Arr (Array.to_list (Array.map int ss.ss_hist)));
                 ])
             s.p_slots) );
    ]

let of_json ~ctx j =
  let o = Json.obj ~ctx j in
  let bad fmt = Printf.ksprintf (fun m -> raise (Json.Bad (ctx ^ ": " ^ m))) fmt in
  (match Json.str ~ctx (Json.member ~ctx "schema" o) with
  | "renofs-profile/1" -> ()
  | s -> bad "unsupported schema %S" s);
  let wall_s = Json.num ~ctx (Json.member ~ctx "wall_s" o) in
  let int o name = Json.int ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let events = int o "events" in
  let gc = Json.obj ~ctx (Json.member ~ctx "gc" o) in
  let gnum name = Json.num ~ctx (Json.member ~ctx name gc) in
  let slots =
    List.map
      (fun sj ->
        let so = Json.obj ~ctx sj in
        let m k = Json.member ~ctx k so in
        {
          ss_name = Json.str ~ctx (m "name");
          ss_self_s = Json.num ~ctx (m "self_s");
          ss_enters = int so "enters";
          ss_fires = int so "fires";
          ss_fire_s = Json.num ~ctx (m "fire_s");
          ss_hist =
            Array.of_list
              (List.map (Json.int ~ctx:(ctx ^ ".hist")) (Json.arr ~ctx (m "hist")));
        })
      (Json.arr ~ctx (Json.member ~ctx "slots" o))
  in
  if slots = [] then bad "empty slots array";
  List.iter
    (fun ss ->
      if Array.length ss.ss_hist <> hist_buckets then
        bad "slot %s: expected %d histogram buckets, got %d" ss.ss_name
          hist_buckets (Array.length ss.ss_hist))
    slots;
  (* The structural invariant of self-time attribution: slot seconds sum
     to the profiled wall time.  More than 10% apart (on a wall long
     enough to judge) means broken accounting, not noise. *)
  let sum = List.fold_left (fun a ss -> a +. ss.ss_self_s) 0.0 slots in
  if wall_s > 1e-3 && Float.abs (sum -. wall_s) > 0.10 *. wall_s then
    bad "slot self-times sum to %.6fs but wall_s is %.6fs (>10%% apart)" sum
      wall_s;
  {
    p_wall_s = wall_s;
    p_slots = slots;
    p_events = events;
    p_minor_words = gnum "minor_words";
    p_promoted_words = gnum "promoted_words";
    (* Absent from profiles written before the field existed. *)
    p_direct_major_words =
      (match Json.member_opt "direct_major_words" gc with
      | Some n -> Json.num ~ctx n
      | None -> 0.0);
    p_minor_collections = int gc "minor_collections";
    p_major_collections = int gc "major_collections";
  }

let write_file ~path t = Json.write_file path (to_json (snapshot t))

let read_file path = Json.decode_file path (of_json ~ctx:path)
