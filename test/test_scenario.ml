(* Scenario suite tests: the SLO evaluator on synthetic trace streams,
   the renofs-scenario/1 decoder, the Run_spec layering, and the
   crash-at-peak scenario judged both ways (reboot = PASS, no reboot =
   recovery breach). *)

module Scenario = Renofs_scenario.Scenario
module Slo = Scenario.Slo
module Trace = Renofs_trace.Trace
module Fault = Renofs_fault.Fault
module Json = Renofs_json.Json
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec

let rec_ ?(node = 0) time ev = { Trace.time; node; ev }

(* One completed RPC: send at [t], reply [rtt] later. *)
let rpc ?(node = 0) ~xid ~proc t rtt =
  [
    rec_ ~node t (Trace.Rpc_send { xid = Int32.of_int xid; proc });
    rec_ ~node (t +. rtt)
      (Trace.Rpc_reply { xid = Int32.of_int xid; proc; rtt });
  ]

let lookup = 4
let read = 6
let no_read_back ~node:_ ~file:_ ~off:_ ~len:_ = None

(* The availability fraction of one SLO fold over [records]. *)
let availability ~window records =
  (Slo.evaluate
     { Scenario.default_slo with slo_window = window }
     ~server_nodes:[] ~read_back:no_read_back records)
    .Slo.o_availability

(* ------------------------------------------------------------------ *)
(* p99                                                                 *)
(* ------------------------------------------------------------------ *)

let test_p99_empty_and_nan () =
  Alcotest.(check (float 0.0)) "empty is 0" 0.0 (Slo.p99 []);
  Alcotest.(check (float 0.0)) "all-NaN is 0" 0.0 (Slo.p99 [ Float.nan ]);
  Alcotest.(check (float 0.0))
    "NaN samples dropped" 7.0
    (Slo.p99 [ Float.nan; 7.0; Float.nan ])

let test_p99_nearest_rank () =
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Slo.p99 hundred);
  Alcotest.(check (float 0.0)) "single sample" 42.0 (Slo.p99 [ 42.0 ]);
  Alcotest.(check (float 0.0))
    "order does not matter" 99.0
    (Slo.p99 (List.rev hundred))

(* ------------------------------------------------------------------ *)
(* availability                                                        *)
(* ------------------------------------------------------------------ *)

let test_availability_no_traffic () =
  Alcotest.(check (float 0.0)) "no records" 1.0 (availability ~window:1.0 []);
  Alcotest.(check (float 0.0))
    "non-RPC records only" 1.0
    (availability ~window:1.0 [ rec_ 3.0 Trace.Srv_crash ])

let test_availability_fractions () =
  (* Window 0: send + reply.  Window 1: send, never answered.
     Window 2: send + reply.  2 of 3 judged windows available. *)
  let records =
    rpc ~xid:1 ~proc:lookup 0.1 0.1
    @ [ rec_ 1.1 (Trace.Rpc_send { xid = 2l; proc = lookup }) ]
    @ rpc ~xid:3 ~proc:lookup 2.1 0.2
  in
  Alcotest.(check (float 1e-9))
    "2/3 windows" (2.0 /. 3.0)
    (availability ~window:1.0 records)

let test_availability_idle_window_skipped () =
  (* Nothing at all happens in window 1: it is not judged. *)
  let records = rpc ~xid:1 ~proc:lookup 0.1 0.1 @ rpc ~xid:2 ~proc:lookup 2.1 0.1 in
  Alcotest.(check (float 0.0))
    "idle window not judged" 1.0
    (availability ~window:1.0 records)

let test_availability_window_edges () =
  (* Windows anchor at the earliest event (t=5.0).  A send exactly on
     the boundary t0+window lands in the next window; its reply there
     keeps that window available while window 0's send stays
     unanswered. *)
  let records =
    [ rec_ 5.0 (Trace.Rpc_send { xid = 1l; proc = lookup }) ]
    @ rpc ~xid:2 ~proc:lookup 6.0 0.2
  in
  Alcotest.(check (float 1e-9))
    "boundary send opens the next window" 0.5
    (availability ~window:1.0 records);
  (* With a window wide enough to cover both, one judged window. *)
  Alcotest.(check (float 0.0))
    "one wide window" 1.0
    (availability ~window:10.0 records)

let test_availability_retransmit_judges () =
  (* A window containing only retransmissions of a dead RPC is judged
     (and unavailable) — that is the outage signal. *)
  let records =
    rpc ~xid:1 ~proc:lookup 0.1 0.1
    @ [
        rec_ 1.2
          (Trace.Rpc_retransmit { xid = 2l; proc = lookup; retry = 1; rto = 1.0 });
      ]
  in
  Alcotest.(check (float 0.0))
    "retransmit-only window unavailable" 0.5
    (availability ~window:1.0 records)

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let eval ?(server_nodes = []) slo records =
  Slo.evaluate slo ~server_nodes ~read_back:no_read_back records

let breach_names (o : Slo.outcome) =
  List.map (fun b -> b.Slo.b_slo) o.Slo.o_breaches

let test_evaluate_pass_vs_breach () =
  let records =
    List.concat (List.init 10 (fun i -> rpc ~xid:i ~proc:lookup (float_of_int i) 0.05))
  in
  let slo = { Scenario.default_slo with slo_p99_ms = [ ("*", 100.0) ] } in
  Alcotest.(check (list string)) "under ceiling" [] (breach_names (eval slo records));
  let slo = { Scenario.default_slo with slo_p99_ms = [ ("*", 40.0) ] } in
  Alcotest.(check (list string))
    "over ceiling" [ "p99-all" ]
    (breach_names (eval slo records))

let test_evaluate_exactly_at_threshold_passes () =
  (* One RPC of exactly 100 ms; the ceiling is strict. *)
  let records = rpc ~xid:1 ~proc:lookup 0.0 0.1 in
  let slo = { Scenario.default_slo with slo_p99_ms = [ ("*", 100.0) ] } in
  let o = eval slo records in
  Alcotest.(check (float 1e-6)) "measured 100ms" 100.0 o.Slo.o_p99_ms;
  Alcotest.(check (list string)) "at threshold passes" [] (breach_names o);
  let slo = { Scenario.default_slo with slo_p99_ms = [ ("*", 99.999) ] } in
  Alcotest.(check (list string))
    "hair under breaches" [ "p99-all" ]
    (breach_names (eval slo records))

let test_evaluate_per_class_and_vacuous () =
  let records =
    rpc ~xid:1 ~proc:lookup 0.0 0.5 @ rpc ~xid:2 ~proc:read 1.0 0.01
  in
  let slo =
    {
      Scenario.default_slo with
      (* lookup is slow, read is fast, write has no samples at all:
         only the lookup ceiling may breach. *)
      slo_p99_ms = [ ("lookup", 100.0); ("read", 100.0); ("write", 0.001) ];
    }
  in
  Alcotest.(check (list string))
    "only the slow class, empty class vacuous" [ "p99-lookup" ]
    (breach_names (eval slo records))

let test_evaluate_availability_breach () =
  let records =
    rpc ~xid:1 ~proc:lookup 0.1 0.1
    @ [ rec_ 1.1 (Trace.Rpc_send { xid = 2l; proc = lookup }) ]
  in
  let slo = { Scenario.default_slo with slo_availability = 0.75 } in
  Alcotest.(check (list string))
    "1/2 windows < 75%" [ "availability" ]
    (breach_names (eval slo records));
  let slo = { Scenario.default_slo with slo_availability = 0.5 } in
  Alcotest.(check (list string))
    "exactly at the floor passes" []
    (breach_names (eval slo records))

let test_evaluate_recovery_per_server () =
  (* Server node 2 crashes at t=10 and first serves again at t=14;
     server node 3 serves at t=10.5 throughout.  Without per-node
     partitioning the gap would wrongly be 0.5 s. *)
  let records =
    [
      rec_ ~node:2 10.0 Trace.Srv_crash;
      rec_ ~node:3 10.5
        (Trace.Srv_service { xid = 7l; proc = lookup; service = 0.001 });
      rec_ ~node:2 14.0
        (Trace.Srv_service { xid = 8l; proc = lookup; service = 0.001 });
    ]
  in
  let slo = { Scenario.default_slo with slo_max_recovery_s = Some 2.0 } in
  let o = eval ~server_nodes:[ 2; 3 ] slo records in
  Alcotest.(check (float 1e-9)) "worst gap is 4s" 4.0 o.Slo.o_recovery;
  Alcotest.(check (list string)) "over ceiling" [ "recovery" ] (breach_names o);
  let slo = { Scenario.default_slo with slo_max_recovery_s = Some 4.0 } in
  Alcotest.(check (list string))
    "exactly at ceiling passes" []
    (breach_names (eval ~server_nodes:[ 2; 3 ] slo records));
  let slo = { Scenario.default_slo with slo_max_recovery_s = None } in
  Alcotest.(check (list string))
    "no ceiling, no breach" []
    (breach_names (eval ~server_nodes:[ 2; 3 ] slo records))

let test_evaluate_integrity () =
  let records = [ rec_ 1.0 (Trace.Wl_error { op = "read"; soft = false }) ] in
  let o = eval Scenario.default_slo records in
  Alcotest.(check (list string))
    "hard-mount error is an integrity breach"
    [ "integrity:hard-mount-errors" ] (breach_names o);
  let off = { Scenario.default_slo with slo_integrity = false } in
  Alcotest.(check (list string))
    "integrity off" []
    (breach_names (eval off records))

(* slo judges every invariant chaos and fuzz judge, per server node:
   COMMIT-covered data that reads back wrong from its server breaches
   committed-durability. *)
let test_evaluate_committed_durable () =
  let data = Bytes.of_string "hello" in
  let records =
    [
      rec_ ~node:2 1.0
        (Trace.Write_unstable
           { file = 9; off = 0; len = 5; digest = Trace.digest data; verf = 7 });
      rec_ ~node:2 2.0
        (Trace.Commit_ok { file = 9; off = 0; count = 0; verf = 7 });
    ]
  in
  let read_back s ~node ~file:_ ~off:_ ~len:_ =
    if node = 2 then Some (Bytes.of_string s) else None
  in
  let eval s =
    breach_names
      (Slo.evaluate Scenario.default_slo ~server_nodes:[ 2; 3 ]
         ~read_back:(read_back s) records)
  in
  Alcotest.(check (list string)) "read back intact" [] (eval "hello");
  Alcotest.(check (list string))
    "read back wrong" [ "integrity:committed-durable" ] (eval "jello")

let test_evaluate_empty_records () =
  let slo =
    {
      Scenario.default_slo with
      slo_p99_ms = [ ("*", 1.0) ];
      slo_availability = 0.999;
      slo_max_recovery_s = Some 0.1;
    }
  in
  let o = eval slo [] in
  Alcotest.(check (list string)) "empty run passes vacuously" [] (breach_names o);
  Alcotest.(check (float 0.0)) "p99 0" 0.0 o.Slo.o_p99_ms;
  Alcotest.(check (float 0.0)) "availability 1" 1.0 o.Slo.o_availability

(* ------------------------------------------------------------------ *)
(* renofs-scenario/1 decoding                                          *)
(* ------------------------------------------------------------------ *)

let minimal =
  {|{ "schema": "renofs-scenario/1", "name": "mini",
      "load": [ { "duration": 5.0, "rate": 2.0 } ] }|}

let test_parse_minimal () =
  match Scenario.parse minimal with
  | Error msg -> Alcotest.failf "minimal scenario rejected: %s" msg
  | Ok sc ->
      Alcotest.(check string) "name" "mini" sc.Scenario.sc_name;
      Alcotest.(check int) "default world servers" 2
        sc.Scenario.sc_world.Scenario.w_servers;
      Alcotest.(check int) "one segment" 1 (List.length sc.Scenario.sc_load);
      Alcotest.(check bool) "no faults" true (sc.Scenario.sc_faults = []);
      Alcotest.(check bool) "integrity defaults on" true
        sc.Scenario.sc_slo.Scenario.slo_integrity

let test_parse_full () =
  let doc =
    {|{ "schema": "renofs-scenario/1", "name": "day", "description": "d",
        "world": { "servers": 3, "clients": 4, "tier": "fat-tree:2x3",
                   "wan_fraction": 0.25, "seed": 9 },
        "load": [ { "label": "a", "duration": 5.0, "rate": 2.0,
                    "rate_end": 8.0, "mix": "bulk" } ],
        "faults": [ { "kind": "server_crash", "at": 2.0, "downtime": 1.0,
                      "server": "server1" } ],
        "slo": { "p99_ms": { "*": 100.0, "read": 50.0 },
                 "availability": 0.9, "window": 2.0,
                 "max_recovery_s": 5.0, "integrity": false },
        "run": { "jobs": 3, "report": true } }|}
  in
  match Scenario.parse doc with
  | Error msg -> Alcotest.failf "full scenario rejected: %s" msg
  | Ok sc ->
      Alcotest.(check int) "servers" 3 sc.Scenario.sc_world.Scenario.w_servers;
      Alcotest.(check bool) "tier" true
        (sc.Scenario.sc_world.Scenario.w_tier
        = Renofs_net.Topology.Fat_tree { spines = 2; leaves = 3 });
      Alcotest.(check int) "seed" 9 sc.Scenario.sc_world.Scenario.w_seed;
      (match sc.Scenario.sc_load with
      | [ seg ] ->
          Alcotest.(check string) "label" "a" seg.Renofs_workload.Nhfsstone.sg_label;
          Alcotest.(check bool) "ramp" true
            (seg.Renofs_workload.Nhfsstone.sg_rate_end = Some 8.0)
      | _ -> Alcotest.fail "expected one segment");
      (match sc.Scenario.sc_faults with
      | [ Fault.Server_crash { at; downtime; server } ] ->
          Alcotest.(check (float 0.0)) "at" 2.0 at;
          Alcotest.(check (float 0.0)) "downtime" 1.0 downtime;
          Alcotest.(check string) "server" "server1" server
      | _ -> Alcotest.fail "expected one server_crash");
      Alcotest.(check (float 0.0)) "window" 2.0
        sc.Scenario.sc_slo.Scenario.slo_window;
      Alcotest.(check bool) "integrity off" false
        sc.Scenario.sc_slo.Scenario.slo_integrity;
      Alcotest.(check bool) "run jobs" true (sc.Scenario.sc_run.R.rs_jobs = Some 3);
      Alcotest.(check bool) "run report" true sc.Scenario.sc_run.R.rs_report

let expect_error ~needle doc =
  match Scenario.parse doc with
  | Ok _ -> Alcotest.failf "accepted bad scenario (wanted error %S)" needle
  | Error msg ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (contains needle msg) then
        Alcotest.failf "error %S does not mention %S" msg needle

let test_parse_rejects () =
  expect_error ~needle:"unknown field"
    {|{ "schema": "renofs-scenario/1", "name": "x", "laod": [],
        "load": [ { "duration": 1.0, "rate": 1.0 } ] }|};
  expect_error ~needle:"unknown field"
    {|{ "schema": "renofs-scenario/1", "name": "x",
        "load": [ { "duration": 1.0, "rate": 1.0, "mx": "bulk" } ] }|};
  (* A fault action is checked as strictly as the rest of the file:
     "sever" would otherwise crash every server. *)
  expect_error ~needle:{|"sever"|}
    {|{ "schema": "renofs-scenario/1", "name": "x",
        "load": [ { "duration": 1.0, "rate": 1.0 } ],
        "faults": [ { "kind": "server_crash", "at": 2.0, "downtime": 1.0,
                      "sever": "server0" } ] }|};
  expect_error ~needle:"unknown mix"
    {|{ "schema": "renofs-scenario/1", "name": "x",
        "load": [ { "duration": 1.0, "rate": 1.0, "mix": "nope" } ] }|};
  expect_error ~needle:"unsupported schema"
    {|{ "schema": "renofs-bench/1", "name": "x",
        "load": [ { "duration": 1.0, "rate": 1.0 } ] }|};
  expect_error ~needle:"at least one segment"
    {|{ "schema": "renofs-scenario/1", "name": "x", "load": [] }|};
  expect_error ~needle:"bad tier"
    {|{ "schema": "renofs-scenario/1", "name": "x",
        "world": { "tier": "ring:3" },
        "load": [ { "duration": 1.0, "rate": 1.0 } ] }|};
  expect_error ~needle:"duration"
    {|{ "schema": "renofs-scenario/1", "name": "x",
        "load": [ { "rate": 1.0 } ] }|};
  (* Counts and seeds are integers: a fraction or an out-of-range
     number is an error naming its field, never a truncated value. *)
  List.iter
    (fun (needle, field) ->
      expect_error ~needle
        (Printf.sprintf
           {|{ "schema": "renofs-scenario/1", "name": "x", %s,
               "load": [ { "duration": 1.0, "rate": 1.0 } ] }|}
           field))
    [
      ("scenario.world.clients", {|"world": { "clients": 2.9 }|});
      ("scenario.world.servers", {|"world": { "servers": 1.5 }|});
      ("scenario.world.seed", {|"world": { "seed": 1e300 }|});
      ("scenario.run.jobs", {|"run": { "jobs": 0.4 }|});
    ]

(* The example files still load under the strict readers. *)
let test_example_files_load () =
  (match Fault.load_file "../examples/crash.json" with
  | Ok s -> Alcotest.(check string) "crash.json" "crash-demo" s.Fault.name
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun path ->
      match Scenario.load_file path with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    [ "../examples/busy.scenario.json"; "../examples/crash_noreboot.scenario.json" ]

let test_builtins_resolve () =
  Alcotest.(check int) "five builtins" 5 (List.length Scenario.builtins);
  List.iter
    (fun name ->
      match Scenario.resolve name with
      | Ok (sc, _) -> Alcotest.(check string) "resolves to itself" name sc.Scenario.sc_name
      | Error msg -> Alcotest.failf "builtin %s: %s" name msg)
    Scenario.builtin_names;
  match Scenario.resolve "no-such-scenario" with
  | Ok _ -> Alcotest.fail "resolved a nonexistent scenario"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Run_spec layering                                                   *)
(* ------------------------------------------------------------------ *)

let test_run_spec_override () =
  let base =
    { R.empty with R.rs_jobs = Some 2; rs_seed = Some 7; rs_report = true }
  in
  let cli = { R.empty with R.rs_jobs = Some 5; rs_json = Some "x.json" } in
  let merged = R.override ~base cli in
  Alcotest.(check bool) "cli wins" true (merged.R.rs_jobs = Some 5);
  Alcotest.(check bool) "base fills the gap" true (merged.R.rs_seed = Some 7);
  Alcotest.(check bool) "new field kept" true (merged.R.rs_json = Some "x.json");
  Alcotest.(check bool) "report ors" true merged.R.rs_report;
  Alcotest.(check bool) "unset stays unset" true (merged.R.rs_scale = None)

(* A run section holds slo's flags.  slo cannot honour scale, seed or
   faults (the scenario's world, load and faults fix them), so each is
   refused by name, as a typo is. *)
let test_run_spec_of_json () =
  let fields ctx doc =
    match Json.parse_exn doc with
    | Json.Obj f -> R.of_json ~ctx f
    | _ -> Alcotest.fail "not an object"
  in
  let rs =
    fields "run" {|{ "jobs": 4, "report": true, "json": "r.json" }|}
  in
  Alcotest.(check bool) "jobs" true (rs.R.rs_jobs = Some 4);
  Alcotest.(check bool) "report" true rs.R.rs_report;
  Alcotest.(check bool) "json" true (rs.R.rs_json = Some "r.json");
  Alcotest.(check bool) "scale unset" true (rs.R.rs_scale = None);
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (field, doc) ->
      match fields "run" doc with
      | exception Json.Bad msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s" msg field)
            true
            (contains (Printf.sprintf "%S" field) msg)
      | _ -> Alcotest.failf "run field %s accepted" field)
    [
      ("scale", {|{ "scale": "full" }|});
      ("seed", {|{ "seed": 0 }|});
      ("faults", {|{ "faults": "crash" }|});
      ("jbos", {|{ "jbos": 4 }|});
    ]

(* ------------------------------------------------------------------ *)
(* crash-at-peak, judged both ways                                     *)
(* ------------------------------------------------------------------ *)

let run_verdict ?trace ?flight sc =
  let spec = Scenario.suite_spec [ sc ] in
  let results = E.run_spec ~jobs:1 ?trace ?flight spec in
  match results.E.r_rows with
  | [ row ] -> (
      match List.rev row with
      | E.Text verdict :: _ ->
          ( verdict,
            List.map
              (fun (label, v) -> label ^ ": " ^ v)
              (E.failures spec results) )
      | _ -> Alcotest.fail "verdict column is not text")
  | _ -> Alcotest.fail "expected one row"


let crash_at_peak () =
  match Scenario.find_builtin "crash-at-peak" with
  | None -> Alcotest.fail "crash-at-peak builtin missing"
  | Some sc -> sc

(* crash-at-peak whose server never reboots. *)
let crash_noreboot () =
  {
    (crash_at_peak ()) with
    Scenario.sc_name = "crash-noreboot";
    sc_faults =
      [
        Fault.Server_crash { at = 12.0; downtime = 9999.0; server = "server0" };
      ];
  }

let test_crash_at_peak_passes_with_reboot () =
  let verdict, fails = run_verdict (crash_at_peak ()) in
  Alcotest.(check string) "reboot meets the SLOs" "PASS" verdict;
  Alcotest.(check (list string)) "no failures" [] fails

let test_crash_at_peak_fails_without_reboot () =
  let verdict, fails = run_verdict (crash_noreboot ()) in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verdict is FAIL" true (contains "FAIL:" verdict);
  Alcotest.(check bool) "names the recovery SLO" true
    (contains "recovery" verdict);
  Alcotest.(check int) "one failure line" 1 (List.length fails);
  Alcotest.(check bool) "failure names the scenario" true
    (contains "crash-noreboot" (List.hd fails))

(* A 64-record ring wraps.  The SLOs are folded over every record as it
   is made, so each verdict reads as it does with no ring, and a failing
   cell still leaves its flight bundle. *)
let test_crash_at_peak_exact_over_wrapped_ring () =
  let ring () = Trace.create ~capacity:64 () in
  let verdict, fails = run_verdict ~trace:(ring ()) (crash_at_peak ()) in
  Alcotest.(check string) "reboot meets the SLOs" "PASS" verdict;
  Alcotest.(check (list string)) "no failures" [] fails;
  let unringed, _ = run_verdict (crash_noreboot ()) in
  let dir = Filename.temp_file "renofs_slo_flight" "" in
  Sys.remove dir;
  let flight =
    Renofs_profile.Flight.arm ~dir ~spec:(Renofs_json.Json.Obj []) ~seed:0
      ~scenarios:[]
  in
  let trace = ring () in
  let verdict, _ = run_verdict ~trace ~flight (crash_noreboot ()) in
  Alcotest.(check bool) "no reboot breaches" true (E.failed_verdict unringed);
  Alcotest.(check string) "same verdict as with no ring" unringed verdict;
  Alcotest.(check bool) "the ring wrapped" true (Trace.dropped trace > 0);
  Alcotest.(check bool) "flight bundle dumped" true
    (Sys.file_exists
       (Filename.concat
          (Filename.concat dir "slo_crash-noreboot")
          "reason.txt"))

let () =
  Alcotest.run "scenario"
    [
      ( "p99",
        [
          Alcotest.test_case "empty and NaN" `Quick test_p99_empty_and_nan;
          Alcotest.test_case "nearest rank" `Quick test_p99_nearest_rank;
        ] );
      ( "availability",
        [
          Alcotest.test_case "no traffic" `Quick test_availability_no_traffic;
          Alcotest.test_case "fractions" `Quick test_availability_fractions;
          Alcotest.test_case "idle window skipped" `Quick
            test_availability_idle_window_skipped;
          Alcotest.test_case "window edges" `Quick test_availability_window_edges;
          Alcotest.test_case "retransmit judges" `Quick
            test_availability_retransmit_judges;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "pass vs breach" `Quick test_evaluate_pass_vs_breach;
          Alcotest.test_case "exactly at threshold" `Quick
            test_evaluate_exactly_at_threshold_passes;
          Alcotest.test_case "per class and vacuous" `Quick
            test_evaluate_per_class_and_vacuous;
          Alcotest.test_case "availability breach" `Quick
            test_evaluate_availability_breach;
          Alcotest.test_case "recovery per server" `Quick
            test_evaluate_recovery_per_server;
          Alcotest.test_case "integrity" `Quick test_evaluate_integrity;
          Alcotest.test_case "committed durable" `Quick
            test_evaluate_committed_durable;
          Alcotest.test_case "empty records" `Quick test_evaluate_empty_records;
        ] );
      ( "format",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "full" `Quick test_parse_full;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "builtins resolve" `Quick test_builtins_resolve;
          Alcotest.test_case "example files load" `Quick test_example_files_load;
        ] );
      ( "run-spec",
        [
          Alcotest.test_case "override layering" `Quick test_run_spec_override;
          Alcotest.test_case "of_json" `Quick test_run_spec_of_json;
        ] );
      ( "crash-at-peak",
        [
          Alcotest.test_case "passes with reboot" `Quick
            test_crash_at_peak_passes_with_reboot;
          Alcotest.test_case "fails without reboot" `Quick
            test_crash_at_peak_fails_without_reboot;
          Alcotest.test_case "exact over a wrapped ring" `Quick
            test_crash_at_peak_exact_over_wrapped_ring;
        ] );
    ]
