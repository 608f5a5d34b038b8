open Renofs_engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 3.0 (fun () -> log := "c" :: !log);
  Sim.at sim 1.0 (fun () -> log := "a" :: !log);
  Sim.at sim 2.0 (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.now sim)

let test_sim_fifo_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo within a timestamp" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.at sim 5.0 (fun () -> ());
  Sim.run sim;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.at: time 1 is before now 5") (fun () ->
      Sim.at sim 1.0 ignore)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.at sim 1.0 (fun () ->
      Sim.after sim 0.5 (fun () ->
          incr hits;
          check_float "nested time" 1.5 (Sim.now sim)));
  Sim.run sim;
  Alcotest.(check int) "nested ran" 1 !hits

let test_sim_until () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.at sim 1.0 (fun () -> incr hits);
  Sim.at sim 10.0 (fun () -> incr hits);
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only early event" 1 !hits;
  check_float "clock moved to until" 5.0 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "late event still queued" 2 !hits

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let tm = Sim.timer_after sim 2.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Sim.pending tm);
  Sim.cancel tm;
  Sim.run sim;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check bool) "not pending after" false (Sim.pending tm)

let test_events_processed () =
  let sim = Sim.create () in
  for i = 1 to 10 do
    Sim.at sim (float_of_int i) ignore
  done;
  Sim.run sim;
  Alcotest.(check int) "count" 10 (Sim.events_processed sim)

(* Events at or past 2^62 ns (about 146 years), and at [infinity], sort
   after every earlier event; a NaN time is refused. *)
let test_sim_far_future () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Sim.at sim 10.0 (note "a");
  Sim.after sim infinity (note "b");
  Sim.after sim 5e9 (note "c");
  Sim.at sim 4.7e9 (note "d");
  Sim.at sim 4.6e9 (note "e");
  Sim.run ~until:100.0 sim;
  Alcotest.(check (list string)) "only the near event fired" [ "a" ] !log;
  Alcotest.(check int) "far events stay queued" 4 (Sim.pending_events sim);
  check_float "clock moved to until" 100.0 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list string)) "far events in time order"
    [ "a"; "e"; "d"; "c"; "b" ] (List.rev !log);
  Alcotest.(check bool) "clock reached infinity" true (Sim.now sim = infinity);
  let sim = Sim.create () in
  List.iter
    (fun (what, f) ->
      Alcotest.check_raises what (Invalid_argument "Sim.at: time is nan") f)
    [ ("at nan", fun () -> Sim.at sim nan ignore);
      ("after nan", fun () -> Sim.after sim nan ignore);
      ("timer_after nan", fun () -> ignore (Sim.timer_after sim nan ignore)) ];
  Alcotest.(check int) "nothing queued" 0 (Sim.pending_events sim)

(* A retired handle whose slot now holds another event must not touch
   that event, whether the handle was cancelled or fired, and whether
   it is cancelled from outside or inside a fire. *)
let test_sim_stale_handles () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let a = Sim.timer_after sim 1.0 (note "a") in
  Sim.cancel a;
  let b = Sim.timer_after sim 2.0 (note "b") in
  Sim.after sim 3.0 (note "c");
  let n = Sim.pending_events sim in
  Sim.cancel a;
  Alcotest.(check int) "stale cancel leaves the queue" n (Sim.pending_events sim);
  Alcotest.(check bool) "new occupant still pending" true (Sim.pending b);
  let rec d =
    lazy
      (Sim.timer_after sim 0.5 (fun () ->
           note "d" ();
           let e = Sim.timer_after sim 0.25 (note "e") in
           Sim.cancel (Lazy.force d);
           Alcotest.(check bool) "own stale cancel spares e" true (Sim.pending e);
           Sim.cancel b))
  in
  ignore (Lazy.force d);
  Sim.run ~until:0.6 sim;
  Sim.cancel (Lazy.force d);
  Alcotest.(check int) "fired stale cancel leaves the queue" 2
    (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check (list string)) "survivors fire in order" [ "d"; "e"; "c" ]
    (List.rev !log);
  Alcotest.(check bool) "b cancelled from a fire" false (Sim.pending b)

(* Plain [Sim.after] events with a preallocated closure and a constant
   delay, popped by [Sim.step]: the queue keeps its keys unboxed and its
   slots recycled, so the only allocation left is the boxed clock. *)
let test_sim_alloc () =
  let sim = Sim.create () in
  let rec hop () = Sim.after sim 1e-4 hop in
  for i = 1 to 256 do
    Sim.at sim (float_of_int i *. 1e-6) hop
  done;
  let events = 100_000 in
  let run () =
    for _ = 1 to events do
      ignore (Sim.step sim)
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_event = (Gc.minor_words () -. before) /. float_of_int events in
  if per_event > 3.0 then
    Alcotest.failf "%.2f minor words per event (at most 3)" per_event

(* Oracle check of the event heap against the (time, seq) contract: a
   randomized script of plain events and timers, schedules and
   cancels, one per mix below, must fire in exactly sorted (time,
   insertion order).  After every fire the queue holds exactly the live
   events, and a fired or cancelled timer reads not-pending and ignores
   every later cancel, including after its slot has gone to a newer
   event.  The local [id] counter advances in lockstep with Sim's
   internal sequence number because every schedule in these scripts
   goes through [spawn]. *)
type oracle = {
  sim : Sim.t;
  rng : Rng.t;
  live : (int, Sim.timer) Hashtbl.t;  (* timers neither fired nor cancelled *)
  mutable plain : int;  (* plain events not yet fired *)
  mutable retired : Sim.timer list;  (* fired or cancelled, newest first *)
  mutable next_id : int;
  mutable fired : (float * int) list;  (* newest first *)
  mutable cancelled : int;
}

let check_retired o what id tm =
  let n = Sim.pending_events o.sim in
  if Sim.pending tm then Alcotest.failf "%s timer %d still pending" what id;
  Sim.cancel tm;
  if Sim.pending_events o.sim <> n then
    Alcotest.failf "second cancel of %s timer %d changed the queue" what id;
  o.retired <- tm :: List.filteri (fun i _ -> i < 7) o.retired

(* Cancel the handles retired most recently, whose slots the queue
   hands out first: nothing live may leave the queue. *)
let cancel_stale o =
  let n = Sim.pending_events o.sim in
  List.iter Sim.cancel o.retired;
  if Sim.pending_events o.sim <> n then
    Alcotest.failf "a stale cancel changed the queue (%d -> %d)" n
      (Sim.pending_events o.sim)

(* Schedule one event [delay] ahead: a timer when [timer], otherwise a
   plain [Sim.after] or [Sim.at] event.  Returns its id. *)
let spawn o ~timer delay on_fire =
  let id = o.next_id in
  o.next_id <- id + 1;
  let time = Sim.now o.sim +. delay in
  let fire () =
    o.fired <- (time, id) :: o.fired;
    on_fire ()
  in
  if timer then begin
    let tm =
      Sim.timer_after o.sim delay (fun () ->
          let tm = Hashtbl.find o.live id in
          Hashtbl.remove o.live id;
          check_retired o "fired" id tm;
          fire ())
    in
    Hashtbl.replace o.live id tm
  end
  else begin
    o.plain <- o.plain + 1;
    let fire () =
      o.plain <- o.plain - 1;
      fire ()
    in
    if Rng.bool o.rng then Sim.after o.sim delay fire
    else Sim.at o.sim time fire
  end;
  cancel_stale o;
  id

let cancel o id =
  match Hashtbl.find_opt o.live id with
  | None -> ()
  | Some tm ->
      Sim.cancel tm;
      Hashtbl.remove o.live id;
      o.cancelled <- o.cancelled + 1;
      check_retired o "cancelled" id tm

(* Nested schedules with same-time ties, sub-millisecond churn and jumps
   of up to 80 s, half of them timers; one fire in eight cancels the
   youngest live timer. *)
let churn_mix o =
  let cancel_youngest () =
    cancel o (Hashtbl.fold (fun id _ acc -> max id acc) o.live (-1))
  in
  let rec churn depth =
    let delay =
      match Rng.int o.rng 4 with
      | 0 -> Rng.float o.rng 1e-4
      | 1 -> Rng.float o.rng 2.0
      | 2 -> Rng.float o.rng 80.0
      | _ -> 0.0 (* same instant: seq tie-break *)
    in
    ignore
      (spawn o ~timer:(Rng.bool o.rng) delay (fun () ->
           if depth < 3 then
             for _ = 1 to Rng.int o.rng 3 do
               churn (depth + 1)
             done;
           if Rng.int o.rng 8 = 0 then cancel_youngest ()))
  in
  for _ = 1 to 400 do
    churn 0
  done

(* A past-the-knee fleet's queue, the population that cost the calendar
   queue this heap replaced ~790 scan steps per insert (one bucket width
   cannot suit both kinds of event): ~2,000 RTO and think timers
   50 ms-5 s ahead that re-arm when they fire, 16 chains of plain
   packet-hop events 10 us-1 ms ahead, and one hop in four cancelling
   and re-arming a far timer from inside its fire, for two simulated
   seconds. *)
let fleet_mix o =
  let horizon = 2.0 in
  let far = Array.make 2000 (-1) in
  let rec arm k =
    far.(k) <-
      spawn o ~timer:true (0.05 +. Rng.float o.rng 4.95) (fun () ->
          if Sim.now o.sim < horizon then arm k)
  in
  let rec hop () =
    ignore
      (spawn o ~timer:false (1e-5 +. Rng.float o.rng 0.99e-3) (fun () ->
           if Rng.int o.rng 4 = 0 then begin
             let k = Rng.int o.rng (Array.length far) in
             cancel o far.(k);
             arm k
           end;
           if Sim.now o.sim < horizon then hop ()))
  in
  Array.iteri (fun k _ -> arm k) far;
  for _ = 1 to 16 do
    hop ()
  done

let run_oracle mix seed =
  let o =
    { sim = Sim.create (); rng = Rng.create seed; live = Hashtbl.create 64;
      plain = 0; retired = []; next_id = 0; fired = []; cancelled = 0 }
  in
  mix o;
  while Sim.step o.sim do
    let live = Hashtbl.length o.live + o.plain in
    if Sim.pending_events o.sim <> live then
      Alcotest.failf "%d pending events but %d live events"
        (Sim.pending_events o.sim) live
  done;
  let order = List.rev o.fired in
  Alcotest.(check int) "every event fired or was cancelled"
    o.next_id
    (List.length order + o.cancelled);
  Alcotest.(check bool) "a real population ran" true (o.next_id > 1000);
  Alcotest.(check bool) "some cancels happened" true (o.cancelled > 10);
  Alcotest.(check
               (list (pair (float 0.0) int)))
    "fired in (time, seq) order" (List.sort compare order) order

let test_sim_oracle_order mix () = run_oracle mix 97

let prop_sim_oracle name mix count =
  QCheck.Test.make ~name ~count QCheck.(int_bound 1_000_000) (fun seed ->
      run_oracle mix seed;
      true)

(* ------------------------------------------------------------------ *)
(* Proc                                                               *)
(* ------------------------------------------------------------------ *)

let test_proc_sleep () =
  let sim = Sim.create () in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Proc.sleep sim 1.0;
      log := ("p1", Sim.now sim) :: !log;
      Proc.sleep sim 2.0;
      log := ("p1b", Sim.now sim) :: !log);
  Proc.spawn sim (fun () ->
      Proc.sleep sim 1.5;
      log := ("p2", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaving"
    [ ("p1", 1.0); ("p2", 1.5); ("p1b", 3.0) ]
    (List.rev !log)

let test_ivar () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create sim in
  let got = ref [] in
  for i = 1 to 3 do
    Proc.spawn sim (fun () ->
        let v = Proc.Ivar.read iv in
        got := (i, v, Sim.now sim) :: !got)
  done;
  Proc.spawn sim (fun () ->
      Proc.sleep sim 2.0;
      Proc.Ivar.fill iv 42);
  Sim.run sim;
  Alcotest.(check int) "all woke" 3 (List.length !got);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 42 v;
      check_float "wake time" 2.0 t)
    !got;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Proc.Ivar.fill iv 0)

let test_ivar_read_after_fill () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create sim in
  Proc.Ivar.fill iv "x";
  let got = ref "" in
  Proc.spawn sim (fun () -> got := Proc.Ivar.read iv);
  Sim.run sim;
  Alcotest.(check string) "immediate read" "x" !got;
  Alcotest.(check (option string)) "peek" (Some "x") (Proc.Ivar.peek iv)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create sim in
  let got = ref [] in
  Proc.spawn sim (fun () ->
      for _ = 1 to 4 do
        got := Proc.Mailbox.recv mb :: !got
      done);
  Proc.spawn sim (fun () ->
      Proc.Mailbox.send mb 1;
      Proc.Mailbox.send mb 2;
      Proc.sleep sim 1.0;
      Proc.Mailbox.send mb 3;
      Proc.Mailbox.send mb 4);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !got)

let test_mailbox_try_recv () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create sim in
  Alcotest.(check (option int)) "empty" None (Proc.Mailbox.try_recv mb);
  Proc.Mailbox.send mb 7;
  Alcotest.(check int) "length" 1 (Proc.Mailbox.length mb);
  Alcotest.(check (option int)) "pop" (Some 7) (Proc.Mailbox.try_recv mb)

let test_semaphore_limits_concurrency () =
  let sim = Sim.create () in
  let sem = Proc.Semaphore.create sim 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    Proc.spawn sim (fun () ->
        Proc.Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Proc.sleep sim 1.0;
        decr active;
        Proc.Semaphore.release sem)
  done;
  Sim.run sim;
  Alcotest.(check int) "peak concurrency" 2 !peak;
  Alcotest.(check int) "all released" 2 (Proc.Semaphore.available sem)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  Alcotest.(check bool) "streams differ" true (x <> y)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_float_mean () =
  let rng = Rng.create 9 in
  let w = Stats.Welford.create () in
  for _ = 1 to 10_000 do
    Stats.Welford.add w (Rng.float rng 1.0)
  done;
  let m = Stats.Welford.mean w in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let w = Stats.Welford.create () in
  for _ = 1 to 20_000 do
    Stats.Welford.add w (Rng.exponential rng 3.0)
  done;
  let m = Stats.Welford.mean w in
  Alcotest.(check bool) "mean near 3" true (abs_float (m -. 3.0) < 0.15)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_welford_known () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Welford.count w);
  check_float "mean" 5.0 (Stats.Welford.mean w);
  check_float "sample variance" (32.0 /. 7.0) (Stats.Welford.variance w);
  check_float "min" 2.0 (Stats.Welford.min w);
  check_float "max" 9.0 (Stats.Welford.max w);
  check_float "total" 40.0 (Stats.Welford.total w)

let test_hist_quantile () =
  let h = Stats.Hist.create ~bucket_width:10.0 ~buckets:10 in
  for i = 0 to 99 do
    Stats.Hist.add h (float_of_int i)
  done;
  (* values 0..99: each bucket of width 10 holds exactly 10 values *)
  Alcotest.(check int) "count" 100 (Stats.Hist.count h);
  check_float "median bound" 50.0 (Stats.Hist.quantile h 0.5);
  check_float "p90 bound" 90.0 (Stats.Hist.quantile h 0.9)

let test_hist_overflow () =
  let h = Stats.Hist.create ~bucket_width:1.0 ~buckets:2 in
  Stats.Hist.add h 100.0;
  check_float "overflow quantile" infinity (Stats.Hist.quantile h 1.0)

let test_hist_quantile_bounds () =
  let h = Stats.Hist.create ~bucket_width:10.0 ~buckets:10 in
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Hist.quantile: empty") (fun () ->
      ignore (Stats.Hist.quantile h 0.5));
  (* One sample in the fourth bucket: every quantile is its bound. *)
  Stats.Hist.add h 35.0;
  check_float "q=0 on one sample" 40.0 (Stats.Hist.quantile h 0.0);
  check_float "q=1 on one sample" 40.0 (Stats.Hist.quantile h 1.0);
  for i = 0 to 99 do
    Stats.Hist.add h (float_of_int i)
  done;
  check_float "q=0 is the first nonempty bound" 10.0 (Stats.Hist.quantile h 0.0);
  check_float "q=1 is the last nonempty bound" 100.0 (Stats.Hist.quantile h 1.0);
  Alcotest.check_raises "q below range rejected"
    (Invalid_argument "Hist.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hist.quantile h (-0.01)));
  Alcotest.check_raises "q above range rejected"
    (Invalid_argument "Hist.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hist.quantile h 1.01));
  (* A sample past the covered range keeps finite quantiles for the
     covered mass but reports the tail as unbounded. *)
  Stats.Hist.add h 1e9;
  check_float "median still finite" 50.0 (Stats.Hist.quantile h 0.5);
  check_float "overflowed tail" infinity (Stats.Hist.quantile h 1.0)

let test_series () =
  let s = Stats.Timeseries.create ~name:"rtt" () in
  Stats.Timeseries.add s 1.0 0.1;
  Stats.Timeseries.add s 2.0 0.2;
  Alcotest.(check int) "length" 2 (Stats.Timeseries.length s);
  Alcotest.(check string) "name" "rtt" (Stats.Timeseries.name s);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "order" [ (1.0, 0.1); (2.0, 0.2) ] (Stats.Timeseries.to_list s)

let check_points = Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))

let test_timeseries_delta () =
  check_points "empty" [] (Stats.Timeseries.delta []);
  check_points "single point" [] (Stats.Timeseries.delta [ (1.0, 5.0) ]);
  check_points "differences stamped at later time"
    [ (2.0, 3.0); (3.0, -1.0) ]
    (Stats.Timeseries.delta [ (1.0, 10.0); (2.0, 13.0); (3.0, 12.0) ])

let test_timeseries_rate () =
  check_points "empty" [] (Stats.Timeseries.rate []);
  check_points "single point" [] (Stats.Timeseries.rate [ (1.0, 5.0) ]);
  check_points "delta over dt"
    [ (2.0, 3.0); (4.0, 2.0) ]
    (Stats.Timeseries.rate [ (1.0, 10.0); (2.0, 13.0); (4.0, 17.0) ]);
  (* A repeated timestamp has no defined rate; the pair is skipped
     rather than emitting an infinity. *)
  check_points "zero dt skipped" [ (3.0, 1.0) ]
    (Stats.Timeseries.rate [ (1.0, 5.0); (1.0, 9.0); (3.0, 11.0) ])

(* ------------------------------------------------------------------ *)
(* Rtt                                                                *)
(* ------------------------------------------------------------------ *)

let test_rtt_first_sample () =
  let r = Rtt.create ~k:4.0 () in
  Alcotest.(check bool) "not inited" false (Rtt.initialized r);
  check_float "default rto" 1.0 (Rtt.rto r ~default:1.0);
  Rtt.observe r 0.2;
  check_float "srtt = sample" 0.2 (Rtt.srtt r);
  check_float "D = sample/2" 0.1 (Rtt.deviation r);
  check_float "rto = A + 4D" 0.6 (Rtt.rto r ~default:1.0)

let test_rtt_converges () =
  let r = Rtt.create ~k:4.0 () in
  for _ = 1 to 200 do
    Rtt.observe r 0.05
  done;
  Alcotest.(check bool) "srtt converged" true (abs_float (Rtt.srtt r -. 0.05) < 0.001);
  Alcotest.(check bool) "deviation shrinks" true (Rtt.deviation r < 0.002)

let test_rtt_clamping () =
  let r = Rtt.create ~k:4.0 ~min_rto:0.5 ~max_rto:2.0 () in
  Rtt.observe r 0.01;
  check_float "min clamp" 0.5 (Rtt.rto r ~default:1.0);
  for _ = 1 to 50 do
    Rtt.observe r 10.0
  done;
  check_float "max clamp" 2.0 (Rtt.rto r ~default:1.0)

let test_rtt_k_matters () =
  let r2 = Rtt.create ~k:2.0 () and r4 = Rtt.create ~k:4.0 () in
  List.iter
    (fun s ->
      Rtt.observe r2 s;
      Rtt.observe r4 s)
    [ 0.1; 0.3; 0.1; 0.5; 0.2 ];
  Alcotest.(check bool) "A+4D > A+2D" true
    (Rtt.rto r4 ~default:1.0 > Rtt.rto r2 ~default:1.0)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_cpu_serializes () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := ("a", Sim.now sim) :: !log);
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 2.0;
      log := ("b", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "fifo service" [ ("a", 1.0); ("b", 3.0) ] (List.rev !log);
  check_float "busy time" 3.0 (Cpu.busy_time cpu)

let test_cpu_interrupt_priority () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := "normal1" :: !log);
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := "normal2" :: !log);
  Proc.spawn sim (fun () ->
      (* Arrives while normal1 is in service; jumps the normal queue. *)
      Proc.sleep sim 0.5;
      Cpu.consume ~priority:Cpu.Interrupt cpu 0.25;
      log := "intr" :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "interrupt served before queued normal work"
    [ "normal1"; "intr"; "normal2" ]
    (List.rev !log)

let test_cpu_charge_async () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  Cpu.charge cpu 2.0;
  Sim.run sim;
  check_float "charged busy" 2.0 (Cpu.busy_time cpu)

let test_cpu_utilization () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  Proc.spawn sim (fun () -> Cpu.consume cpu 2.0);
  Sim.at sim 4.0 ignore;
  Sim.run sim;
  check_float "50%% busy over 4s" 0.5 (Cpu.utilization cpu ~since_time:0.0 ~since_busy:0.0)

let test_cpu_utilization_window () =
  (* The scaling experiment's view: the busy fraction since a point
     noted when the load starts, here after 2 s of work the window must
     not count. *)
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let start = ref (0.0, 0.0) in
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 2.0;
      start := (Sim.now sim, Cpu.busy_time cpu);
      (* 50% duty cycle: 0.5 s of work at the start of each second. *)
      for _ = 1 to 10 do
        Cpu.consume cpu 0.5;
        Proc.sleep sim 0.5
      done);
  Sim.run sim;
  let since_time, since_busy = !start in
  check_float "50%% over the window" 0.5 (Cpu.utilization cpu ~since_time ~since_busy);
  check_float "empty window" 0.0
    (Cpu.utilization cpu ~since_time:(Sim.now sim) ~since_busy:(Cpu.busy_time cpu))

let test_cpu_instructions () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  check_float "0.9 MIPS" (1.0 /. 0.9e6) (Cpu.seconds_of_instructions cpu 1.0)

let () =
  Alcotest.run "engine"
    [
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_sim_fifo_same_time;
          Alcotest.test_case "past raises" `Quick test_sim_past_raises;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
          Alcotest.test_case "events processed" `Quick test_events_processed;
          Alcotest.test_case "oracle order under churn" `Quick
            (test_sim_oracle_order churn_mix);
          Alcotest.test_case "oracle order under fleet timers" `Quick
            (test_sim_oracle_order fleet_mix);
          Alcotest.test_case "far future and nan" `Quick test_sim_far_future;
          Alcotest.test_case "stale handles" `Quick test_sim_stale_handles;
          Alcotest.test_case "no allocation per event" `Quick test_sim_alloc;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_sim_oracle "oracle order under churn, any seed" churn_mix 30;
              prop_sim_oracle "oracle order under fleet timers, any seed" fleet_mix 10 ] );
      ( "proc",
        [
          Alcotest.test_case "sleep interleaves" `Quick test_proc_sleep;
          Alcotest.test_case "ivar wakes all" `Quick test_ivar;
          Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "semaphore bounds" `Quick test_semaphore_limits_concurrency;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford known values" `Quick test_welford_known;
          Alcotest.test_case "hist quantile" `Quick test_hist_quantile;
          Alcotest.test_case "hist overflow" `Quick test_hist_overflow;
          Alcotest.test_case "hist quantile bounds" `Quick test_hist_quantile_bounds;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "timeseries delta" `Quick test_timeseries_delta;
          Alcotest.test_case "timeseries rate" `Quick test_timeseries_rate;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "converges" `Quick test_rtt_converges;
          Alcotest.test_case "clamping" `Quick test_rtt_clamping;
          Alcotest.test_case "A+4D above A+2D" `Quick test_rtt_k_matters;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes;
          Alcotest.test_case "interrupt priority" `Quick test_cpu_interrupt_priority;
          Alcotest.test_case "async charge" `Quick test_cpu_charge_async;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "utilization over a window" `Quick
            test_cpu_utilization_window;
          Alcotest.test_case "instruction conversion" `Quick test_cpu_instructions;
        ] );
    ]
