(* The parallel sweep runner and the typed experiment-cell API.

   The contract under test: any --jobs value produces byte-identical
   rendered tables, JSON documents and trace streams, because results
   are reassembled by cell index and every cell runs in its own world
   with a private trace sink. *)

open Renofs_workload
module E = Experiments
module Trace = Renofs_trace.Trace

(* ------------------------------------------------------------------ *)
(* Sweep: the domain pool itself                                      *)
(* ------------------------------------------------------------------ *)

let test_sweep_order () =
  let cells = List.init 17 (fun i -> Sweep.cell (fun () -> i * 10)) in
  let expect = List.init 17 (fun i -> i * 10) in
  Alcotest.(check (list int)) "jobs 1" expect (Sweep.run ~jobs:1 cells);
  Alcotest.(check (list int)) "jobs 4" expect (Sweep.run ~jobs:4 cells)

let test_sweep_empty () =
  Alcotest.(check (list int)) "no cells" [] (Sweep.run ~jobs:4 [])

let test_sweep_oversubscription () =
  (* More domains than cells: jobs is clamped, results still ordered. *)
  let cells = List.init 3 (fun i -> Sweep.cell (fun () -> i)) in
  Alcotest.(check (list int)) "jobs 64" [ 0; 1; 2 ] (Sweep.run ~jobs:64 cells)

let test_sweep_uneven_cells () =
  (* Long cells must not displace short ones in the result order. *)
  let work n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let sizes = [ 500_000; 10; 200_000; 10; 10; 300_000; 10; 10 ] in
  let cells = List.map (fun n -> Sweep.cell (fun () -> work n)) sizes in
  let expect = List.map work sizes in
  Alcotest.(check (list int)) "by index" expect (Sweep.run ~jobs:4 cells)

exception Boom of int

let test_sweep_exn_lowest_index () =
  (* Cells 1 and 3 both fail; run must re-raise cell 1's exception. *)
  let cells =
    List.init 5 (fun i ->
        Sweep.cell (fun () -> if i = 1 || i = 3 then raise (Boom i) else i))
  in
  List.iter
    (fun jobs ->
      match Sweep.run ~jobs cells with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) (Printf.sprintf "jobs %d" jobs) 1 i)
    [ 1; 2; 5 ]

(* A raise must not cancel the cells after it: every failing cell of a
   flight-recorded sweep leaves its bundle from inside the cell. *)
let test_sweep_runs_every_cell () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let cells =
        List.init 5 (fun i ->
            Sweep.cell (fun () ->
                Atomic.incr ran;
                if i = 0 || i = 3 then raise (Boom i) else i))
      in
      (match Sweep.run ~jobs cells with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) (Printf.sprintf "jobs %d re-raises" jobs) 0 i);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d runs every cell" jobs)
        5 (Atomic.get ran))
    [ 1; 2; 5 ]

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Sweep.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism: serial and parallel runs are byte-identical           *)
(* ------------------------------------------------------------------ *)

let render_string results =
  Format.asprintf "%a" E.print_table (E.render results)

let spec_exn id =
  match E.spec ~scale:E.Quick id with
  | Some s -> s
  | None -> Alcotest.fail ("unknown spec " ^ id)

let test_determinism id () =
  let serial = E.run_spec ~jobs:1 (spec_exn id) in
  let parallel = E.run_spec ~jobs:4 (spec_exn id) in
  Alcotest.(check string)
    "rendered table" (render_string serial) (render_string parallel);
  (* Same ~jobs in the emission so the comparison covers the typed
     results, not the run metadata. *)
  Alcotest.(check string)
    "json document"
    (Bench_json.emit ~scale:E.Quick ~jobs:1 [ serial ])
    (Bench_json.emit ~scale:E.Quick ~jobs:1 [ parallel ])

let test_trace_merge_equivalence () =
  (* Parallel cells record into private sinks, merged in cell order:
     the combined stream must equal a serial run's, line for line. *)
  let run jobs =
    let tr = Trace.create ~capacity:(1 lsl 18) () in
    ignore (E.run_spec ~jobs ~trace:tr (spec_exn "graph1"));
    tr
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "dropped" (Trace.dropped serial) (Trace.dropped parallel);
  Alcotest.(check (list string))
    "event stream"
    (List.map Trace.line_of_record (Trace.to_list serial))
    (List.map Trace.line_of_record (Trace.to_list parallel))

(* ------------------------------------------------------------------ *)
(* Registry: every spec has metadata and renders a well-formed table  *)
(* ------------------------------------------------------------------ *)

let test_registry_lookup_covers_specs () =
  List.iter
    (fun (id, _) ->
      match E.spec id with
      | Some s -> Alcotest.(check string) (id ^ " resolves") id s.E.sp_id
      | None -> Alcotest.failf "spec %S not resolvable by id" id)
    E.specs

let test_registry_metadata () =
  List.iter
    (fun (id, mk) ->
      let s = mk E.Quick in
      Alcotest.(check string) (id ^ " id") id s.E.sp_id;
      Alcotest.(check bool) (id ^ " has title") true (s.E.sp_title <> "");
      Alcotest.(check bool) (id ^ " has cells") true (List.length s.E.sp_cells > 0);
      List.iter
        (fun c -> Alcotest.(check bool) (id ^ " cell label") true (c.E.cell_label <> ""))
        s.E.sp_cells)
    E.specs

let test_registry_tables_well_formed () =
  List.iter
    (fun (id, mk) ->
      let t = E.render (E.run_spec ~jobs:2 (mk E.Quick)) in
      let cols = List.length t.E.header in
      Alcotest.(check bool) (id ^ " has columns") true (cols > 0);
      Alcotest.(check bool) (id ^ " has rows") true (t.E.rows <> []);
      List.iteri
        (fun i row ->
          Alcotest.(check int)
            (Printf.sprintf "%s row %d width" id i)
            cols (List.length row))
        t.E.rows)
    E.specs

(* ------------------------------------------------------------------ *)
(* JSON: emission validates, garbage does not                         *)
(* ------------------------------------------------------------------ *)

let test_json_emitted_validates () =
  let results = List.map (fun id -> E.run_spec ~jobs:2 (spec_exn id)) [ "table5" ] in
  match Bench_json.validate (Bench_json.emit ~scale:E.Quick ~jobs:2 results) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("emitted document rejected: " ^ msg)

let check_invalid name doc =
  match Bench_json.validate doc with
  | Ok () -> Alcotest.fail (name ^ ": accepted")
  | Error _ -> ()

let test_json_rejects_bad_documents () =
  check_invalid "garbage" "not json at all";
  check_invalid "wrong schema"
    {|{"schema":"other/9","scale":"quick","jobs":1,"experiments":[]}|};
  check_invalid "empty experiments"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[]}|};
  check_invalid "bad scale"
    {|{"schema":"renofs-bench/1","scale":"medium","jobs":1,"experiments":[]}|};
  check_invalid "ragged row"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[
       {"id":"x","title":"t","header":["a","b"],
        "rows":[[{"type":"text","value":"only one"}]]}]}|};
  check_invalid "unknown unit"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[
       {"id":"x","title":"t","header":["a"],
        "rows":[[{"type":"int","value":3,"unit":"furlongs"}]]}]}|}

let test_json_file_roundtrip () =
  let path = Filename.temp_file "renofs_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_json.write_file ~scale:E.Quick ~jobs:2 ~path
        [ E.run_spec ~jobs:2 (spec_exn "table5") ];
      match Bench_json.validate_file path with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sweep"
    [
      ( "pool",
        [
          Alcotest.test_case "cell-index order" `Quick test_sweep_order;
          Alcotest.test_case "empty" `Quick test_sweep_empty;
          Alcotest.test_case "oversubscription" `Quick test_sweep_oversubscription;
          Alcotest.test_case "uneven cells" `Quick test_sweep_uneven_cells;
          Alcotest.test_case "lowest-index exception" `Quick
            test_sweep_exn_lowest_index;
          Alcotest.test_case "every cell runs after a raise" `Quick
            test_sweep_runs_every_cell;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "graph1 serial = parallel" `Quick
            (test_determinism "graph1");
          Alcotest.test_case "table5 serial = parallel" `Quick
            (test_determinism "table5");
          Alcotest.test_case "trace merge" `Quick test_trace_merge_equivalence;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup covers specs" `Quick
            test_registry_lookup_covers_specs;
          Alcotest.test_case "metadata" `Quick test_registry_metadata;
          Alcotest.test_case "tables well-formed" `Quick
            test_registry_tables_well_formed;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitted validates" `Quick test_json_emitted_validates;
          Alcotest.test_case "rejects bad documents" `Quick
            test_json_rejects_bad_documents;
          Alcotest.test_case "file roundtrip" `Quick test_json_file_roundtrip;
        ] );
    ]
