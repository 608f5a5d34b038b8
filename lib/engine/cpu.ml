type priority = Interrupt | Normal

(* A job is (work seconds, completion callback); [ignore] marks fire-
   and-forget [charge] work.  Jobs live in ring buffers — a float array
   for work and a closure array for callbacks — rather than a [Queue.t]
   of records: the float array stores work unboxed, so queueing a job
   allocates nothing (the old shape cost a record, an option, a queue
   cell and a boxed float per job, on a path taken several times per
   packet).  A ring starts at two entries and doubles when full: most
   nodes never queue more than a job or two, and a fleet has thousands
   of them. *)
type ring = {
  mutable works : float array;
  mutable fins : (unit -> unit) array;
  mutable head : int;
  mutable tail : int;  (* count = tail - head; capacity a power of two *)
}

let ring_create () =
  { works = Array.make 2 0.0; fins = Array.make 2 ignore; head = 0; tail = 0 }

let ring_grow r =
  let cap = Array.length r.works in
  let works = Array.make (2 * cap) 0.0 in
  let fins = Array.make (2 * cap) ignore in
  let n = r.tail - r.head in
  for i = 0 to n - 1 do
    works.(i) <- r.works.((r.head + i) land (cap - 1));
    fins.(i) <- r.fins.((r.head + i) land (cap - 1))
  done;
  r.works <- works;
  r.fins <- fins;
  r.head <- 0;
  r.tail <- n

(* All-float sub-record: the busy-time counters update once per job,
   and a float field of a mixed record would box each new value. *)
type busy = {
  mutable completed : float; (* busy seconds fully served *)
  mutable cur_start : float;
  mutable cur_len : float;   (* work of the job in service; 0 when idle *)
}

type t = {
  sim : Sim.t;
  mips : float;
  mutable slowdown : float; (* work multiplier, >= epsilon; 1.0 = nominal *)
  intr_q : ring;
  norm_q : ring;
  mutable serving : bool;
  busy : busy;
  (* The CPU serves one job at a time, so the job in service sits in
     fields ([busy.cur_len] is its work) and one shared completion
     closure (tied in [create]) reads it back — no closure allocation
     per served job. *)
  mutable cur_fin : unit -> unit;
  mutable job_done : unit -> unit;
}

let rec serve t =
  let q = if t.intr_q.head <> t.intr_q.tail then t.intr_q else t.norm_q in
  if q.head = q.tail then t.serving <- false
  else begin
    let i = q.head land (Array.length q.works - 1) in
    let work = q.works.(i) in
    let fin = q.fins.(i) in
    q.fins.(i) <- ignore;
    q.head <- q.head + 1;
    t.serving <- true;
    t.busy.cur_start <- Sim.now t.sim;
    t.busy.cur_len <- work;
    t.cur_fin <- fin;
    Sim.after t.sim work t.job_done
  end

and job_done t =
  let work = t.busy.cur_len in
  let fin = t.cur_fin in
  t.cur_fin <- ignore;
  t.busy.completed <- t.busy.completed +. work;
  t.busy.cur_len <- 0.0;
  (* [fin] resumes whatever fiber was waiting on the CPU; the resumed
     segment runs here, so charge it to the cpu slot when probed. *)
  (match Sim.probe t.sim with
  | None -> fin ()
  | Some p ->
      let d = p.Probe.enter Probe.cpu in
      (try fin () with e -> p.Probe.leave d; raise e);
      p.Probe.leave d);
  serve t

let create sim ~mips =
  if mips <= 0.0 then invalid_arg "Cpu.create: mips must be positive";
  let t =
    {
      sim;
      mips;
      slowdown = 1.0;
      intr_q = ring_create ();
      norm_q = ring_create ();
      serving = false;
      busy = { completed = 0.0; cur_start = 0.0; cur_len = 0.0 };
      cur_fin = ignore;
      job_done = ignore;
    }
  in
  t.job_done <- (fun () -> job_done t);
  t

let seconds_of_instructions t instructions = instructions /. (t.mips *. 1e6)
let slowdown t = t.slowdown

let set_slowdown t factor =
  if factor <= 0.0 then invalid_arg "Cpu.set_slowdown: factor must be positive";
  t.slowdown <- factor

(* [seconds] is pre-slowdown: multiplying inside the array store keeps
   the scaled work unboxed end to end. *)
let enqueue t priority seconds fin =
  let q = match priority with Interrupt -> t.intr_q | Normal -> t.norm_q in
  if q.tail - q.head = Array.length q.works then ring_grow q;
  let i = q.tail land (Array.length q.works - 1) in
  q.works.(i) <- seconds *. t.slowdown;
  q.fins.(i) <- fin;
  q.tail <- q.tail + 1;
  if not t.serving then serve t

let consume_k ?(priority = Normal) t seconds k =
  if seconds < 0.0 then invalid_arg "Cpu.consume: negative work";
  if seconds = 0.0 then k () else enqueue t priority seconds k

let consume ?(priority = Normal) t seconds =
  if seconds < 0.0 then invalid_arg "Cpu.consume: negative work";
  if seconds = 0.0 then ()
  else Proc.suspend (fun resume -> enqueue t priority seconds resume)

let charge ?(priority = Normal) t seconds =
  if seconds < 0.0 then invalid_arg "Cpu.charge: negative work";
  if seconds > 0.0 then enqueue t priority seconds ignore

let busy_time t =
  let in_service =
    if t.busy.cur_len > 0.0 then
      Float.min t.busy.cur_len (Sim.now t.sim -. t.busy.cur_start)
    else 0.0
  in
  t.busy.completed +. in_service

let utilization t ~since_time ~since_busy =
  let elapsed = Sim.now t.sim -. since_time in
  if elapsed <= 0.0 then 0.0 else (busy_time t -. since_busy) /. elapsed
