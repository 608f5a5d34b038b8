(* The event queue is an array-backed binary min-heap ordered by
   (tkey, time, seq).  Each event records its own heap index, so
   cancellation removes it in place in O(log n) — cancelled events never
   reach a pop — and schedule and fire are O(log n) whatever the mix of
   near and far times.  Ordering is exactly (time, seq): [tkey] is
   monotone in [time], and [seq] breaks every remaining tie. *)

type event = {
  time : float;
  tkey : int;
      (* [time] in integer nanoseconds (truncated): a monotone
         approximation that resolves almost every ordering with one
         untagged int compare instead of chasing boxed floats.  Ties
         fall back to the exact float, then to [seq]. *)
  seq : int;
  fn : unit -> unit;
  tag : int;
      (* the probe slot active when the event was scheduled; 0 when no
         probe is attached.  Lets the profiler attribute each fire to
         the subsystem that requested it. *)
  mutable idx : int;  (* position in [owner.heap]; -1 once fired or cancelled *)
  owner : t;  (* so [cancel] can reach the queue *)
}

and t = {
  mutable heap : event array;  (* slots [0, len) hold the queue *)
  mutable len : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable probe : Probe.t option;
}

type timer = event

(* Fills vacated heap slots, so the array never keeps a fired event's
   closure alive. *)
let rec dummy =
  { time = nan; tkey = max_int; seq = -1; fn = ignore; tag = 0; idx = -1;
    owner = nobody }

and nobody =
  { heap = [||]; len = 0; clock = 0.0; next_seq = 0; processed = 0;
    probe = None }

let create () =
  { heap = Array.make 64 dummy; len = 0; clock = 0.0; next_seq = 0;
    processed = 0; probe = None }

let now t = t.clock
let set_probe t p = t.probe <- p
let probe t = t.probe

let before a b =
  a.tkey < b.tkey
  || (a.tkey = b.tkey
     && (a.time < b.time || (a.time = b.time && a.seq < b.seq)))

let place h i ev =
  h.(i) <- ev;
  ev.idx <- i

(* Move the hole at [i] towards the root until [ev] fits in it. *)
let rec sift_up h i ev =
  let p = (i - 1) / 2 in
  if i > 0 && before ev h.(p) then begin
    place h i h.(p);
    sift_up h p ev
  end
  else place h i ev

(* Move the hole at [i] towards the leaves of [h.(0 .. len-1)] until
   [ev] fits in it. *)
let rec sift_down h len i ev =
  let l = (2 * i) + 1 in
  if l >= len then place h i ev
  else
    let c = if l + 1 < len && before h.(l + 1) h.(l) then l + 1 else l in
    if before h.(c) ev then begin
      place h i h.(c);
      sift_down h len c ev
    end
    else place h i ev

let push t ev =
  if t.len = Array.length t.heap then begin
    let h = Array.make (2 * t.len) dummy in
    Array.blit t.heap 0 h 0 t.len;
    t.heap <- h
  end;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1) ev

(* Fill [ev]'s slot with the last event, which may belong above or
   below it. *)
let remove t ev =
  let h = t.heap and i = ev.idx and n = t.len - 1 in
  ev.idx <- -1;
  let last = h.(n) in
  h.(n) <- dummy;
  t.len <- n;
  if i < n then
    if i > 0 && before last h.((i - 1) / 2) then sift_up h i last
    else sift_down h n i last

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let make t time fn tag =
  let ev =
    { time; tkey = int_of_float (time *. 1e9); seq = t.next_seq; fn; tag;
      idx = -1; owner = t }
  in
  t.next_seq <- t.next_seq + 1;
  ev

let schedule t time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is before now %g" time t.clock);
  match t.probe with
  | None ->
      let ev = make t time fn 0 in
      push t ev;
      ev
  | Some p ->
      (* The tag is read before entering, so it names the caller. *)
      let ev = make t time fn (p.Probe.current ()) in
      let d = p.Probe.enter Probe.scheduler in
      push t ev;
      p.Probe.leave d;
      ev

let at t time fn = ignore (schedule t time fn)
let after t delay fn = ignore (schedule t (t.clock +. delay) fn)
let timer_after t delay fn = schedule t (t.clock +. delay) fn

let cancel ev =
  if ev.idx >= 0 then
    let t = ev.owner in
    match t.probe with
    | None -> remove t ev
    | Some p ->
        let d = p.Probe.enter Probe.scheduler in
        remove t ev;
        p.Probe.leave d

let pending ev = ev.idx >= 0

(* One branch when detached; when probed, the fire is bracketed so the
   profiler can charge the event's wall time to the slot that scheduled
   it (the event [tag]) and histogram its duration. *)
let fire t ev =
  match t.probe with
  | None -> ev.fn ()
  | Some p ->
      let d = p.Probe.fire_enter ev.tag in
      (try ev.fn () with e -> p.Probe.fire_leave d; raise e);
      p.Probe.fire_leave d

let step t =
  if t.len = 0 then false
  else begin
    let ev = t.heap.(0) in
    remove t ev;
    t.clock <- ev.time;
    t.processed <- t.processed + 1;
    fire t ev;
    true
  end

let run ?until t =
  let body () =
    match until with
    | None -> while step t do () done
    | Some limit ->
        while t.len > 0 && t.heap.(0).time <= limit do
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
