(* A binary min-heap of slot ids ordered by (time, seq).  The keys sit
   in flat arrays in heap order and the rest of each event in arrays
   indexed by slot (see sim.mli).  [ids] is a permutation of every slot:
   its first [len] entries are the heap and the rest are the free slots,
   so the pool needs no free list of its own.  A float passed to a
   function that is not inlined is boxed, so the helpers that carry a
   time are [@inline] ([place], [push], [schedule]) and the others take
   heap positions. *)

type t = {
  mutable times : Float.Array.t;  (* heap order: each event's time *)
  mutable seqs : int array;  (* heap order: schedule order, breaks ties *)
  mutable ids : int array;  (* heap order in [0, len); free slots after *)
  mutable pos : int array;  (* by slot: heap position, -1 when free *)
  mutable fns : (unit -> unit) array;  (* by slot; [ignore] when free *)
  mutable tags : int array;
      (* by slot: the probe slot active when the event was scheduled, 0
         when no probe is attached.  Lets the profiler attribute each
         fire to the subsystem that requested it. *)
  mutable len : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable probe : Probe.t option;
}

(* A cancel handle names its event by slot and sequence number.  The
   slot may be reused once the event fires or is cancelled; the new
   occupant has a later sequence number, so a stale handle never
   matches it. *)
type timer = { sim : t; slot : int; seq : int }

let create () =
  let n = 64 in
  { times = Float.Array.make n 0.0; seqs = Array.make n 0;
    ids = Array.init n Fun.id; pos = Array.make n (-1);
    fns = Array.make n ignore; tags = Array.make n 0; len = 0; clock = 0.0;
    next_seq = 0; processed = 0; probe = None }

let now t = t.clock
let set_probe t p = t.probe <- p
let probe t = t.probe

(* Double every array; the new slots [n, 2n) join the free region. *)
let grow t =
  let n = Array.length t.ids in
  let extend a fill = Array.append a (Array.make n fill) in
  t.times <- Float.Array.append t.times (Float.Array.make n 0.0);
  t.seqs <- extend t.seqs 0;
  t.ids <- Array.append t.ids (Array.init n (fun i -> n + i));
  t.pos <- extend t.pos (-1);
  t.fns <- extend t.fns ignore;
  t.tags <- extend t.tags 0

(* The sifts below run once per heap level, so they skip bounds checks:
   every heap position they touch is below [len], every slot is an
   entry of [ids], and all six arrays have the same length, which is at
   least [len]. *)
let[@inline] seq_at t i = Array.unsafe_get t.seqs i
let[@inline] id_at t i = Array.unsafe_get t.ids i

(* Whether heap position [a] fires before heap position [b]. *)
let[@inline] earlier t a b =
  let ta = Float.Array.unsafe_get t.times a
  and tb = Float.Array.unsafe_get t.times b in
  ta < tb || (ta = tb && seq_at t a < seq_at t b)

(* Store the key and slot at heap position [i]. *)
let[@inline] place t i time seq id =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.ids i id;
  Array.unsafe_set t.pos id i

(* Move the entry at heap position [i] towards the root until its
   parent is earlier. *)
let sift_up t i =
  let times = t.times in
  let time = Float.Array.get times i and seq = seq_at t i and id = id_at t i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times p in
    if time < pt || (time = pt && seq < seq_at t p) then begin
      place t !i pt (seq_at t p) (id_at t p);
      i := p
    end
    else moving := false
  done;
  place t !i time seq id

(* Move the entry at heap position [i] towards the leaves until no
   child is earlier. *)
let sift_down t i =
  let times = t.times and n = t.len in
  let time = Float.Array.get times i and seq = seq_at t i and id = id_at t i in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let c = if l + 1 < n && earlier t (l + 1) l then l + 1 else l in
      let ct = Float.Array.unsafe_get times c in
      if ct < time || (ct = time && seq_at t c < seq) then begin
        place t !i ct (seq_at t c) (id_at t c);
        i := c
      end
      else moving := false
    end
  done;
  place t !i time seq id

(* Retire the event at heap position [i]: drop its closure, fill the
   hole with the last entry, which may belong above or below it, and
   park the freed slot just past the heap. *)
let remove t i =
  let slot = t.ids.(i) and n = t.len - 1 in
  t.len <- n;
  t.pos.(slot) <- -1;
  t.fns.(slot) <- ignore;
  if i < n then begin
    place t i (Float.Array.get t.times n) t.seqs.(n) t.ids.(n);
    t.ids.(n) <- slot;
    if i > 0 && earlier t i ((i - 1) / 2) then sift_up t i else sift_down t i
  end

(* Queue [fn] at [time] in the first free slot and return the slot. *)
let[@inline] push t time fn tag =
  if t.len = Array.length t.ids then grow t;
  let i = t.len in
  let slot = t.ids.(i) in
  t.fns.(slot) <- fn;
  t.tags.(slot) <- tag;
  place t i time t.next_seq slot;
  t.next_seq <- t.next_seq + 1;
  t.len <- i + 1;
  sift_up t i;
  slot

let reject t time =
  invalid_arg
    (if Float.is_nan time then "Sim.at: time is nan"
     else Printf.sprintf "Sim.at: time %g is before now %g" time t.clock)

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let[@inline] schedule t time fn =
  if not (time >= t.clock) then reject t time;
  match t.probe with
  | None -> push t time fn 0
  | Some p ->
      (* The tag is read before entering, so it names the caller. *)
      let tag = p.Probe.current () in
      let d = p.Probe.enter Probe.scheduler in
      let slot = push t time fn tag in
      p.Probe.leave d;
      slot

let at t time fn = ignore (schedule t time fn)
let after t delay fn = ignore (schedule t (t.clock +. delay) fn)

let timer_after t delay fn =
  let slot = schedule t (t.clock +. delay) fn in
  { sim = t; slot; seq = t.next_seq - 1 }

let pending { sim = t; slot; seq } =
  let i = t.pos.(slot) in
  i >= 0 && t.seqs.(i) = seq

let cancel ({ sim = t; slot; _ } as tm) =
  if pending tm then
    match t.probe with
    | None -> remove t t.pos.(slot)
    | Some p ->
        let d = p.Probe.enter Probe.scheduler in
        remove t t.pos.(slot);
        p.Probe.leave d

(* One branch when detached; when probed, the fire is bracketed so the
   profiler can charge the event's wall time to the slot that scheduled
   it (the event's tag) and histogram its duration. *)
let fire t fn tag =
  match t.probe with
  | None -> fn ()
  | Some p ->
      let d = p.Probe.fire_enter tag in
      (try fn () with e -> p.Probe.fire_leave d; raise e);
      p.Probe.fire_leave d

let step t =
  if t.len = 0 then false
  else begin
    let slot = t.ids.(0) in
    let fn = t.fns.(slot) and tag = t.tags.(slot) in
    let time = Float.Array.get t.times 0 in
    remove t 0;
    (* [clock] is a boxed field: write it only when time moves. *)
    if time <> t.clock then t.clock <- time;
    t.processed <- t.processed + 1;
    fire t fn tag;
    true
  end

let run ?until t =
  let body () =
    match until with
    | None -> while step t do () done
    | Some limit ->
        while t.len > 0 && Float.Array.get t.times 0 <= limit do
          ignore (step t)
        done;
        if t.clock < limit then t.clock <- limit
  in
  (* The run loop itself is the "scheduler" slot: pops and clock
     advances between fires are charged to it, while each fire's body
     is charged to its own tag by [fire]. *)
  match t.probe with
  | None -> body ()
  | Some p ->
      let d = p.Probe.enter Probe.scheduler in
      (try body () with e -> p.Probe.leave d; raise e);
      p.Probe.leave d

let events_processed t = t.processed
let pending_events t = t.len
