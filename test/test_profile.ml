(* Self-profiler suite: attribution semantics on a fake clock, the
   deterministic counts contract across --jobs, the renofs-profile/1
   JSON (including the attribution-sum check), the Perfetto exporter's
   span pairing, the trace-export metadata header, and the flight
   recorder's trigger paths (stuck driver, invariant FAIL, SLO
   breach). *)

module Probe = Renofs_engine.Probe
module Sim = Renofs_engine.Sim
module Profile = Renofs_profile.Profile
module Perfetto = Renofs_profile.Perfetto
module Flight = Renofs_profile.Flight
module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec
module Scenario = Renofs_scenario.Scenario

let slot s name =
  match
    List.find_opt (fun ss -> ss.Profile.ss_name = name) s.Profile.p_slots
  with
  | Some ss -> ss
  | None -> Alcotest.failf "no slot %S in snapshot" name

let self_sum s =
  List.fold_left (fun a ss -> a +. ss.Profile.ss_self_s) 0.0 s.Profile.p_slots

let tmppath prefix suffix =
  let f = Filename.temp_file prefix suffix in
  Sys.remove f;
  f

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Attribution on a fake clock                                         *)
(* ------------------------------------------------------------------ *)

let test_scoped_attribution () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.enter Probe.cpu in
  now := 3.0;
  pr.Probe.leave d;
  now := 3.5;
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check (float 1e-9)) "wall" 3.5 s.Profile.p_wall_s;
  Alcotest.(check (float 1e-9))
    "harness self" 1.5 (slot s "harness").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "cpu self" 2.0 (slot s "cpu").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "conserved" s.Profile.p_wall_s (self_sum s);
  Alcotest.(check int) "cpu enters" 1 (slot s "cpu").Profile.ss_enters

(* leave is a truncation: one token unwinds nested frames, and a stale
   token from a resumed fiber is a no-op. *)
let test_leave_truncates () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d0 = pr.Probe.enter Probe.link in
  now := 2.0;
  let d1 = pr.Probe.enter Probe.transport in
  now := 3.0;
  pr.Probe.leave d0;
  Alcotest.(check int) "back to harness" Probe.harness (pr.Probe.current ());
  now := 4.0;
  pr.Probe.leave d1 (* stale: deeper than the current stack *);
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check (float 1e-9))
    "link self" 1.0 (slot s "link").Profile.ss_self_s;
  Alcotest.(check (float 1e-9))
    "transport self" 1.0 (slot s "transport").Profile.ss_self_s;
  Alcotest.(check (float 1e-9))
    "harness absorbs the rest" 2.0 (slot s "harness").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "conserved" 4.0 (self_sum s)

let test_fire_counts_and_durations () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.fire_enter Probe.link in
  now := 1.5;
  pr.Probe.fire_leave d;
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check int) "one probed event" 1 s.Profile.p_events;
  let link = slot s "link" in
  Alcotest.(check int) "link fires" 1 link.Profile.ss_fires;
  Alcotest.(check (float 1e-9))
    "fire duration summed" 0.5 link.Profile.ss_fire_s;
  Alcotest.(check int) "one histogram entry" 1
    (Array.fold_left ( + ) 0 link.Profile.ss_hist)

(* Sim.schedule and Sim.cancel charge their heap work to the scheduler,
   while the event keeps the caller's slot as its tag.  Every clock read
   advances the fake clock one second, so each bracket with no read
   inside charges exactly one second. *)
let test_heap_work_charged_to_scheduler () =
  let now = ref 0.0 in
  let tick () =
    now := !now +. 1.0;
    !now
  in
  let p = Profile.create ~clock:tick () in
  let pr = Profile.probe p in
  let sim = Sim.create () in
  Sim.set_probe sim (Some pr);
  Profile.start p;
  let d = pr.Probe.enter Probe.cpu in
  let tm = Sim.timer_after sim 1.0 ignore in
  Sim.after sim 2.0 ignore;
  Sim.cancel tm;
  Sim.cancel tm (* already cancelled: no heap work, nothing charged *);
  pr.Probe.leave d;
  Alcotest.(check bool) "the surviving event fires" true (Sim.step sim);
  Profile.stop p;
  let s = Profile.snapshot p in
  let sched = slot s "scheduler" in
  Alcotest.(check int) "two schedules and one cancel entered" 3
    sched.Profile.ss_enters;
  Alcotest.(check (float 1e-9))
    "one tick per heap operation" 3.0 sched.Profile.ss_self_s;
  Alcotest.(check int) "the fire keeps the caller's slot" 1
    (slot s "cpu").Profile.ss_fires;
  Alcotest.(check int) "no fire tagged scheduler" 0 sched.Profile.ss_fires;
  Alcotest.(check (float 1e-9)) "conserved" s.Profile.p_wall_s (self_sum s)

(* ------------------------------------------------------------------ *)
(* A real profiled run: determinism and conservation                   *)
(* ------------------------------------------------------------------ *)

let profiled_run jobs =
  let p = Profile.create () in
  ignore (E.run_spec ~jobs ~profile:p ((List.assoc "graph1" E.specs) E.Quick));
  p

let p_serial = lazy (profiled_run 1)

let test_counts_deterministic_across_jobs () =
  Alcotest.(check string)
    "enter/fire counts identical at --jobs 1 and 4"
    (Profile.counts (Lazy.force p_serial))
    (Profile.counts (profiled_run 4))

let test_real_run_attribution () =
  let s = Profile.snapshot (Lazy.force p_serial) in
  Alcotest.(check bool) "wall measured" true (s.Profile.p_wall_s > 0.0);
  Alcotest.(check bool) "events probed" true (s.Profile.p_events > 0);
  Alcotest.(check bool) "scheduler entered" true
    ((slot s "scheduler").Profile.ss_enters > 0);
  Alcotest.(check bool) "link events fired" true
    ((slot s "link").Profile.ss_fires > 0);
  Alcotest.(check bool) "server time attributed" true
    ((slot s "server").Profile.ss_self_s > 0.0);
  let err = abs_float (self_sum s -. s.Profile.p_wall_s) in
  Alcotest.(check bool) "self times sum to wall (10%)" true
    (err <= 0.10 *. s.Profile.p_wall_s)

let test_profile_json_roundtrip () =
  let p = Lazy.force p_serial in
  let path = tmppath "renofs_profile" ".json" in
  Profile.write_file ~path p;
  match Profile.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      let orig = Profile.snapshot p in
      Alcotest.(check int)
        "events survive" orig.Profile.p_events s.Profile.p_events;
      Alcotest.(check int) "slot count"
        (List.length orig.Profile.p_slots)
        (List.length s.Profile.p_slots);
      Alcotest.(check int) "fires survive" (slot orig "link").Profile.ss_fires
        (slot s "link").Profile.ss_fires;
      (* graph1 moves 8 KiB blocks, too big for the minor heap. *)
      Alcotest.(check bool) "direct major words measured" true
        (orig.Profile.p_direct_major_words > 0.0);
      Alcotest.(check (float 0.0)) "direct major words survive"
        orig.Profile.p_direct_major_words s.Profile.p_direct_major_words;
      Alcotest.(check (float 0.0)) "minor words survive"
        orig.Profile.p_minor_words s.Profile.p_minor_words

(* Minor words are exact, not quantized by the minor heap: right after
   a minor collection, 1,000 iterations that each allocate a pair and a
   list cell (6 words) read at least 6,000 words. *)
let test_exact_minor_words () =
  let p = Profile.create () in
  Gc.minor ();
  Profile.start p;
  let keep = ref [] in
  for i = 1 to 1000 do
    keep := [ Sys.opaque_identity (i, i) ];
    ignore (Sys.opaque_identity !keep)
  done;
  Profile.stop p;
  let words = (Profile.snapshot p).Profile.p_minor_words in
  if words < 6000.0 then Alcotest.failf "read %.0f minor words, want >= 6000" words

(* The validator is also the accountant: a profile whose self-times do
   not sum to its wall time is rejected. *)
let test_profile_json_rejects_bad_attribution () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  Profile.start p;
  now := 2.0;
  Profile.stop p;
  let js = Json.to_string Document (Profile.to_json (Profile.snapshot p)) in
  (* Inflate the recorded wall so the slot sum can no longer match. *)
  let sub = "\"wall_s\":2" and by = "\"wall_s\":20" in
  let rec replace s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        String.sub s 0 i ^ by
        ^ replace (String.sub s (i + n) (String.length s - i - n))
  in
  let tampered = replace js in
  Alcotest.(check bool) "tamper applied" true (tampered <> js);
  let path = tmppath "renofs_profile_bad" ".json" in
  let oc = open_out path in
  output_string oc tampered;
  close_out oc;
  match Profile.read_file path with
  | Ok _ -> Alcotest.fail "mismatched attribution accepted"
  | Error msg -> Alcotest.(check bool) "names the sum" true (contains "sum" msg)

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let rec_ ?(node = 0) time ev = { Trace.time; node; ev }

let synthetic_records =
  [
    rec_ 0.0 (Trace.Run_mark { label = "cellA" });
    rec_ 1.0 (Trace.Rpc_send { xid = 1l; proc = 4 });
    (* second RPC overlaps the first: async pairs must not collide *)
    rec_ 1.2 (Trace.Rpc_send { xid = 2l; proc = 6 });
    rec_ ~node:1 1.8 (Trace.Srv_service { xid = 1l; proc = 4; service = 0.2 });
    rec_ 2.0 (Trace.Rpc_reply { xid = 1l; proc = 4; rtt = 1.0 });
    rec_ 2.5 (Trace.Rpc_reply { xid = 2l; proc = 6; rtt = 1.3 });
    rec_ 2.6 (Trace.Rpc_retransmit { xid = 3l; proc = 4; retry = 1; rto = 0.5 });
  ]

let load_events path =
  match Json.load_file path with
  | Error msg -> Alcotest.fail msg
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) ->
          List.map
            (function
              | Json.Obj o -> o | _ -> Alcotest.fail "event not an object")
            evs
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "top level is not an object"

let sfield o name =
  match List.assoc_opt name o with Some (Json.Str s) -> s | _ -> ""

let nfield o name =
  match List.assoc_opt name o with Some (Json.Num n) -> n | _ -> Float.nan

let test_perfetto_export () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.enter Probe.cpu in
  now := 2.0;
  pr.Probe.leave d;
  Profile.stop p;
  let path = tmppath "renofs_perfetto" ".json" in
  let n =
    Perfetto.export ~path ~profile:(Profile.snapshot p) synthetic_records
  in
  let events = load_events path in
  let non_meta = List.filter (fun o -> sfield o "ph" <> "M") events in
  Alcotest.(check int) "returned count matches the file" n
    (List.length non_meta);
  let bs = List.filter (fun o -> sfield o "ph" = "b") events in
  let es = List.filter (fun o -> sfield o "ph" = "e") events in
  Alcotest.(check int) "two async begins" 2 (List.length bs);
  Alcotest.(check int) "two async ends" 2 (List.length es);
  List.iter
    (fun b ->
      let id = nfield b "id" in
      match List.filter (fun e -> nfield e "id" = id) es with
      | [ e ] ->
          Alcotest.(check bool) "end after begin" true
            (nfield e "ts" >= nfield b "ts")
      | other -> Alcotest.failf "begin id %g has %d ends" id (List.length other))
    bs;
  Alcotest.(check bool) "service slice present" true
    (List.exists
       (fun o -> sfield o "ph" = "X" && sfield o "cat" = "service")
       events);
  Alcotest.(check bool) "retransmit instant present" true
    (List.exists (fun o -> sfield o "cat" = "retransmit") events);
  Alcotest.(check bool) "profiler slices present" true
    (List.exists (fun o -> sfield o "cat" = "profile") events)

(* ------------------------------------------------------------------ *)
(* Trace export metadata header                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_export_header () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record tr ~time:(float_of_int i) ~node:0 Trace.Srv_crash
  done;
  let path = tmppath "renofs_trace" ".jsonl" in
  Trace.export_jsonl tr path;
  let header =
    match String.split_on_char '\n' (read_all path) with
    | h :: _ -> h
    | [] -> Alcotest.fail "empty export"
  in
  Alcotest.(check bool) "schema named" true (contains "renofs-trace/1" header);
  Alcotest.(check bool) "held" true (contains "\"held\":4" header);
  Alcotest.(check bool) "total" true (contains "\"total\":6" header);
  Alcotest.(check bool) "overwritten" true (contains "\"overwritten\":2" header);
  let back = Trace.import_jsonl path in
  Alcotest.(check int) "header skipped on import" 4 (List.length back);
  match back with
  | { Trace.time; _ } :: _ ->
      Alcotest.(check (float 0.0)) "oldest survivor" 3.0 time
  | [] -> Alcotest.fail "no records back"

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let member bundle name = Sys.file_exists (Filename.concat bundle name)

let check_bundle bundle =
  List.iter
    (fun m -> Alcotest.(check bool) m true (member bundle m))
    [
      "MANIFEST.json"; "reason.txt"; "run_spec.json"; "trace_tail.jsonl";
      "profile.json";
    ]

let one_cell_spec ~id run =
  {
    E.sp_id = id;
    sp_title = id;
    sp_header = [ "result" ];
    sp_cells = [ { E.cell_label = id ^ "/one"; cell_run = run } ];
    sp_assemble = (fun rows -> rows);
  }

let test_flight_on_driver_stuck () =
  let dir = tmppath "renofs_flight_stuck" "" in
  let flight = Flight.arm ~dir ~spec:(Json.Obj []) ~seed:7 ~scenarios:[] in
  let spec =
    one_cell_spec ~id:"stuck" (fun _ ->
        raise (E.Driver_stuck "stuck/one: synthetic"))
  in
  Alcotest.check_raises "driver stuck still propagates"
    (E.Driver_stuck "stuck/one: synthetic") (fun () ->
      ignore (E.run_spec ~jobs:1 ~flight spec));
  let bundle = Filename.concat dir "stuck_one" in
  check_bundle bundle;
  Alcotest.(check bool) "reason names the stuck driver" true
    (contains "stuck" (read_all (Filename.concat bundle "reason.txt")))

let test_flight_on_fail_value () =
  let dir = tmppath "renofs_flight_fail" "" in
  let flight =
    Flight.arm ~dir ~spec:(Json.Obj []) ~seed:0
      ~scenarios:[ ("failcell/one", `Builtin "diurnal") ]
  in
  let spec =
    one_cell_spec ~id:"failcell" (fun _ -> [ E.Text "FAIL: synthetic" ])
  in
  let results = E.run_spec ~jobs:1 ~flight spec in
  Alcotest.(check int) "run completes" 1 (List.length results.E.r_rows);
  let bundle = Filename.concat dir "failcell_one" in
  check_bundle bundle;
  (* A builtin is named, not copied. *)
  Alcotest.(check bool) "manifest names the builtin" true
    (contains "\"scenario\":\"diurnal\"" (read_all (Filename.concat bundle "MANIFEST.json")));
  Alcotest.(check bool) "no scenario file for a builtin" false
    (member bundle "scenario.json");
  Alcotest.(check bool) "reason carries the verdict" true
    (contains "FAIL: synthetic"
       (read_all (Filename.concat bundle "reason.txt")));
  Alcotest.(check (list (pair string string)))
    "the failing cell" [ ("failcell/one", "FAIL: synthetic") ]
    (E.failures spec results);
  (* A verdict is a row's last value: a passing cell whose name starts
     with FAIL neither fails nor dumps. *)
  let named =
    one_cell_spec ~id:"failname" (fun _ -> [ E.Text "FAILover"; E.Text "PASS" ])
  in
  Alcotest.(check (list (pair string string)))
    "a FAIL name is not a verdict" []
    (E.failures named (E.run_spec ~jobs:1 ~flight named));
  Alcotest.(check bool) "no bundle for a passing cell" false
    (Sys.file_exists (Filename.concat dir "failname_one"))

(* The full CLI path: an SLO-breaching scenario file under Run_spec
   with rs_flight set leaves a bundle, exactly what
   [nfsbench slo FILE --flight DIR] does. *)
let test_flight_on_slo_breach () =
  let path = "../examples/crash_noreboot.scenario.json" in
  match Scenario.resolve_all [ path ] with
  | Error msg -> Alcotest.fail msg
  | Ok given ->
      let scenarios = List.map fst given in
      let dir = tmppath "renofs_flight_slo" "" in
      let rs = { R.empty with R.rs_jobs = Some 1; rs_flight = Some dir } in
      let spec = Scenario.suite_spec scenarios in
      (match
         R.execute
           ~scenarios:(List.map (fun (sc, how) -> (Scenario.label sc, how)) given)
           rs spec
       with
      | Error msg -> Alcotest.fail msg
      | Ok results ->
          Alcotest.(check int) "the SLO breach is reported" 1
            (List.length (E.failures spec results)));
      let bundles =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun d ->
               Sys.is_directory (Filename.concat dir d)
               && member (Filename.concat dir d) "MANIFEST.json")
      in
      (match bundles with
      | [ b ] ->
          let bundle = Filename.concat dir b in
          check_bundle bundle;
          let manifest = read_all (Filename.concat bundle "MANIFEST.json") in
          Alcotest.(check bool) "manifest schema" true
            (contains "renofs-flight/1" manifest);
          (* The manifest names the scenario as slo was given it, and
             the bundle holds the file, which slo replays. *)
          (match Json.load_file (Filename.concat bundle "MANIFEST.json") with
          | Ok doc ->
              let o = Json.obj ~ctx:"MANIFEST.json" doc in
              Alcotest.(check string) "manifest names the scenario" path
                (Json.str ~ctx:"scenario" (Json.member ~ctx:"MANIFEST.json" "scenario" o))
          | Error msg -> Alcotest.fail msg);
          let copy = Filename.concat bundle "scenario.json" in
          Alcotest.(check string) "the scenario file, byte for byte" (read_all path)
            (read_all copy);
          (match Scenario.resolve_all [ copy ] with
          | Ok [ (sc, `File (p, _)) ] ->
              Alcotest.(check string) "replays by path" copy p;
              Alcotest.(check string) "the same scenario" "crash-noreboot"
                sc.Scenario.sc_name
          | Ok _ -> Alcotest.fail "the copy is not one file scenario"
          | Error msg -> Alcotest.fail msg);
          (* The bundle's run spec, less its schema, is a run section
             a scenario file accepts. *)
          (match Json.load_file (Filename.concat bundle "run_spec.json") with
          | Ok (Json.Obj (("schema", Json.Str "renofs-runspec/1") :: fields)) ->
              let rs = R.of_json ~ctx:"run_spec.json" fields in
              Alcotest.(check bool) "jobs replayed" true (rs.R.rs_jobs = Some 1);
              Alcotest.(check bool) "flight replayed" true
                (rs.R.rs_flight = Some dir)
          | Ok _ -> Alcotest.fail "run_spec.json lacks its schema"
          | Error msg -> Alcotest.fail msg)
      | other ->
          Alcotest.failf "expected one bundle, found %d" (List.length other))

(* The bundle's run_spec.json is JSON whatever bytes the paths hold: a
   flight directory named with a UTF-8 letter and a double quote reads
   back unchanged. *)
let test_flight_run_spec_any_path () =
  let dir = tmppath "renofs_fl\xc3\xafght_\"q" "" in
  let rs = { R.empty with R.rs_jobs = Some 1; rs_flight = Some dir } in
  let spec =
    one_cell_spec ~id:"failcell" (fun _ -> [ E.Text "FAIL: synthetic" ])
  in
  (match R.execute rs spec with Error msg -> Alcotest.fail msg | Ok _ -> ());
  let path = Filename.concat (Filename.concat dir "failcell_one") "run_spec.json" in
  match Json.load_file path with
  | Error msg -> Alcotest.fail msg
  | Ok doc ->
      let o = Json.obj ~ctx:path doc in
      Alcotest.(check string) "flight path read back" dir
        (Json.str ~ctx:path (Json.member ~ctx:path "flight" o))

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "scoped self-time" `Quick test_scoped_attribution;
          Alcotest.test_case "leave truncates" `Quick test_leave_truncates;
          Alcotest.test_case "fire counts" `Quick test_fire_counts_and_durations;
          Alcotest.test_case "heap work charged to scheduler" `Quick
            test_heap_work_charged_to_scheduler;
          Alcotest.test_case "exact minor words" `Quick test_exact_minor_words;
        ] );
      ( "real run",
        [
          Alcotest.test_case "counts deterministic across jobs" `Quick
            test_counts_deterministic_across_jobs;
          Alcotest.test_case "attribution sums to wall" `Quick
            test_real_run_attribution;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_json_roundtrip;
          Alcotest.test_case "rejects bad attribution" `Quick
            test_profile_json_rejects_bad_attribution;
        ] );
      ( "perfetto",
        [ Alcotest.test_case "export pairs spans" `Quick test_perfetto_export ]
      );
      ( "trace header",
        [ Alcotest.test_case "export metadata" `Quick test_trace_export_header ]
      );
      ( "flight",
        [
          Alcotest.test_case "driver stuck" `Quick test_flight_on_driver_stuck;
          Alcotest.test_case "invariant FAIL" `Quick test_flight_on_fail_value;
          Alcotest.test_case "slo breach via run spec" `Quick
            test_flight_on_slo_breach;
          Alcotest.test_case "run spec with a non-ASCII path" `Quick
            test_flight_run_spec_any_path;
        ] );
    ]
