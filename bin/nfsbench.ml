(* nfsbench: regenerate the paper's tables and figures from the command
   line.

     nfsbench list                     show every experiment id
     nfsbench run graph5               run one experiment (Quick scale)
     nfsbench run table1 -f            run one experiment at Full scale
     nfsbench run graph1 --jobs 4      run its cells across 4 domains
     nfsbench run graph1 --json g.json write typed results as JSON
     nfsbench run graph5 --report      append the nfsstat-style trace report
     nfsbench run graph5 --trace t.jsonl   export the raw event trace
     nfsbench run graph1 --faults crash        run under a fault schedule
     nfsbench chaos [--scale quick|full]       fault-schedule x transport matrix
     nfsbench fuzz --seeds 50          seeded wire-corruption sweep
     nfsbench fuzz --no-checksum --seeds 5     reproduce Sun's checksums-off story
     nfsbench perf --json p.json       wall-clock engine throughput
     nfsbench perf --baseline BENCH_perf.json  gate against a baseline
     nfsbench faults                   list the builtin fault schedules
     nfsbench slo                      run the five builtin day-in-the-life
                                       scenarios and judge their SLOs
     nfsbench slo crash-at-peak        a builtin scenario by name
     nfsbench slo day.scenario.json    or a renofs-scenario/1 file
     nfsbench all [-f] [--jobs N] [--json FILE]   run everything
     nfsbench run graph5 --metrics m.jsonl sample time-series metrics
     nfsbench run graph5 --profile p.json  self-profile the simulator
     nfsbench run graph5 --perfetto t.json trace for ui.perfetto.dev
     nfsbench slo crash-at-peak --flight DIR   dump a bundle on failure
     nfsbench plot m.jsonl cwnd        chart a recorded series
     nfsbench diff OLD.json NEW.json   regression-gate two --json files
     nfsbench validate-json FILE       check a --json file against the schema

   Each subcommand parses only the flags it honours, so any other is an
   unknown option: run and all take no --seed, chaos and fuzz no
   --faults, slo none of --scale, --seed and --faults, and perf only
   --json, --baseline and --tolerance.

   Results are assembled by cell index, never completion order, so any
   --jobs value produces byte-identical tables and JSON. *)

open Cmdliner
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec
module Perf = Renofs_workload.Perf
module Bench_json = Renofs_workload.Bench_json
module Scenario = Renofs_scenario.Scenario
module Json = Renofs_json.Json
module Fault = Renofs_fault.Fault
module Metrics = Renofs_metrics.Metrics
module Stats = Renofs_engine.Stats

let print_with_chart table =
  E.print_table Format.std_formatter table;
  match Renofs_workload.Ascii_plot.render_table table with
  | Some chart
    when String.length table.E.id >= 5 && String.sub table.E.id 0 5 = "graph" ->
      Format.printf "%s@." chart
  | _ -> ()

let run_result = function
  | Ok () -> `Ok ()
  | Error msg -> `Error (false, msg)

let run_one id rs =
  match E.spec ~scale:(R.scale rs) id with
  | None ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment %S; try one of: %s" id
            (String.concat ", " (List.map fst E.specs)) )
  | Some spec ->
      run_result (Result.map ignore (R.execute ~print:print_with_chart rs spec))

let run_all rs =
  let scale = R.scale rs in
  let built = List.map (fun (_, mk) -> mk scale) E.specs in
  Format.printf "running %d experiments (%s scale)...@."
    (List.length E.specs)
    (match scale with E.Quick -> "quick" | E.Full -> "full");
  (* One pooled sweep across every experiment's cells: short
     experiments overlap long ones instead of serialising. *)
  run_result
    (Result.map ignore (R.execute_many ~print:print_with_chart rs built))

(* chaos, fuzz and slo exit non-zero when any cell fails its verdict,
   naming each failing cell on stderr. *)
let run_verdict ~cmd ?scenarios rs spec =
  match R.execute ~print:print_with_chart ?scenarios rs spec with
  | Error msg -> `Error (false, msg)
  | Ok results -> (
      match E.failures spec results with
      | [] -> `Ok ()
      | fails ->
          List.iter
            (fun (label, verdict) ->
              Format.eprintf "%s: %s: %s@." cmd label verdict)
            fails;
          `Error
            ( false,
              Printf.sprintf "%s: %d cell(s) failed their verdict" cmd
                (List.length fails) ))

let run_chaos rs =
  let seed = R.seed rs in
  Format.printf "chaos: seed %d%s@." seed
    (if seed = 0 then " (the default world)" else "");
  run_verdict ~cmd:"chaos" rs
    (E.chaos_spec ~seed (R.scale rs))

let run_fuzz rs seeds no_checksum =
  let checksum = not no_checksum in
  let seed = R.seed rs in
  Format.printf "fuzz: %d seeds from base seed %d, checksums %s, profiles %s@."
    seeds seed
    (if checksum then "on" else "off")
    (String.concat "," E.fuzz_profiles);
  run_verdict ~cmd:"fuzz" rs
    (E.fuzz_spec ~seeds ~base_seed:seed ~checksum (R.scale rs))

(* A single scenario's "run" section is layered under the CLI flags;
   with several scenarios only the CLI applies. *)
let run_slo rs names =
  match Scenario.resolve_all names with
  | Error msg -> `Error (false, msg)
  | Ok given ->
      let scenarios = List.map fst given in
      let rs =
        match scenarios with
        | [ sc ] -> R.override ~base:sc.Scenario.sc_run rs
        | _ -> rs
      in
      run_verdict ~cmd:"slo"
        ~scenarios:(List.map (fun (sc, how) -> (Scenario.label sc, how)) given)
        rs (Scenario.suite_spec scenarios)

(* A series address is "run/name"; PATTERN is a case-sensitive
   substring of it.  Counters plot as per-interval rates — the level of
   a monotone counter is rarely the interesting shape. *)
let run_plot path pattern =
  match Metrics.import_jsonl path with
  | Error msg -> `Error (false, msg)
  | Ok all ->
      let address (s : Metrics.series) = s.Metrics.e_run ^ "/" ^ s.Metrics.e_name in
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        sub = "" || go 0
      in
      let matches =
        List.filter (fun s -> contains ~sub:pattern (address s)) all
      in
      if matches = [] then begin
        Format.eprintf "no series matches %S; available:@." pattern;
        List.iter (fun s -> Format.eprintf "  %s@." (address s)) all;
        `Error (false, Printf.sprintf "no series matches %S" pattern)
      end
      else begin
        let shown, rest =
          List.filteri (fun i _ -> i < 4) matches,
          List.filteri (fun i _ -> i >= 4) matches
        in
        List.iter
          (fun (s : Metrics.series) ->
            let points, value_label =
              match s.Metrics.e_kind with
              | Metrics.Counter ->
                  (Stats.Timeseries.rate s.Metrics.e_points, s.Metrics.e_unit ^ "/s")
              | Metrics.Gauge | Metrics.Histogram ->
                  (s.Metrics.e_points, s.Metrics.e_unit)
            in
            Format.printf "%s — %s, %s, %d points@." (address s)
              (Metrics.kind_name s.Metrics.e_kind)
              value_label (List.length points);
            Format.printf "%s@."
              (Renofs_workload.Ascii_plot.render ~x_label:"sim time (s)"
                 ~y_label:value_label ~x:(List.map fst points)
                 ~series:[ (value_label, List.map snd points) ]
                 ()))
          shown;
        if rest <> [] then begin
          Format.printf "...and %d more matches (narrow the pattern):@."
            (List.length rest);
          List.iter (fun s -> Format.printf "  %s@." (address s)) rest
        end;
        `Ok ()
      end

(* A document's top-level "schema" member. *)
let schema_of = function
  | Json.Obj fields -> (
      match List.assoc_opt "schema" fields with
      | Some (Json.Str s) -> Some s
      | _ -> None)
  | _ -> None

(* The schema of a JSON file, when it parses at all. *)
let schema_of_file path =
  Option.bind (Result.to_option (Json.load_file path)) schema_of

let diff_perf old_path new_path tolerance_pct =
  match (Perf.read_file old_path, Perf.read_file new_path) with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok baseline, Ok current ->
      let v =
        Perf.diff ~tolerance:(tolerance_pct /. 100.0) ~baseline ~current
      in
      List.iter (fun n -> Format.printf "note: %s@." n) v.Perf.notes;
      List.iter (fun s -> Format.printf "%s@." s) v.Perf.regressions;
      Format.printf "perf diff at ±%g%%: %d regressed, %d note(s)@."
        tolerance_pct
        (List.length v.Perf.regressions)
        (List.length v.Perf.notes);
      if v.Perf.regressions <> [] then
        `Error
          ( false,
            Printf.sprintf "%d rate(s) regressed beyond %g%%"
              (List.length v.Perf.regressions)
              tolerance_pct )
      else `Ok ()

let run_diff old_path new_path tolerance_pct =
  if tolerance_pct < 0.0 then `Error (false, "--tolerance must be >= 0")
  else if schema_of_file old_path = Some "renofs-perf/1" then
    diff_perf old_path new_path tolerance_pct
  else
    match
      Bench_json.diff_files ~tolerance:(tolerance_pct /. 100.0) old_path new_path
    with
    | Error msg -> `Error (false, msg)
    | Ok r ->
        List.iter (fun w -> Format.printf "note: %s@." w) r.Bench_json.warnings;
        List.iter (fun w -> Format.printf "%s@." w) r.Bench_json.improvements;
        List.iter (fun w -> Format.printf "%s@." w) r.Bench_json.regressions;
        Format.printf "%d cells compared at ±%g%%: %d regressed, %d improved@."
          r.Bench_json.compared tolerance_pct
          (List.length r.Bench_json.regressions)
          (List.length r.Bench_json.improvements);
        if r.Bench_json.regressions <> [] then
          `Error
            ( false,
              Printf.sprintf "%d cells regressed beyond %g%%"
                (List.length r.Bench_json.regressions)
                tolerance_pct )
        else `Ok ()

(* Wall-clock throughput of the engine itself; see Perf.  Serial by
   design — measuring real time wants the machine to itself. *)
let run_perf json_path baseline_path tolerance_pct =
  match R.check_outputs [ ("json", json_path) ] with
  | Some msg -> `Error (false, msg)
  | None ->
      if tolerance_pct < 0.0 then `Error (false, "--tolerance must be >= 0")
      else begin
        let baseline =
          (* Read the baseline before the minutes-long measurement so a
             bad path fails fast. *)
          match baseline_path with
          | None -> Ok None
          | Some path -> Result.map Option.some (Perf.read_file path)
        in
        match baseline with
        | Error msg -> `Error (false, msg)
        | Ok baseline ->
            let r =
              Perf.run ~profile:true
                ~progress:(fun label -> Format.printf "%s...@." label)
                ()
            in
            Format.printf
              "%d cells, %.1f s wall: %d events (%.0f events/s), %d RPCs \
               (%.0f RPCs/s)@."
              (List.length r.Perf.cells) r.Perf.wall_s r.Perf.events
              r.Perf.events_per_s r.Perf.rpcs r.Perf.rpcs_per_s;
            (match r.Perf.p_profile with
            | Some s ->
                Renofs_profile.Profile.print Format.std_formatter s
            | None -> ());
            (match json_path with
            | Some path ->
                Perf.write_file ~path r;
                Format.printf "perf: written to %s@." path
            | None -> ());
            (match baseline with
            | None -> `Ok ()
            | Some b ->
                let v =
                  Perf.diff ~tolerance:(tolerance_pct /. 100.0) ~baseline:b
                    ~current:r
                in
                List.iter (fun n -> Format.printf "note: %s@." n) v.Perf.notes;
                List.iter (fun s -> Format.printf "%s@." s) v.Perf.regressions;
                if v.Perf.regressions <> [] then
                  `Error
                    ( false,
                      Printf.sprintf "perf: %d rate(s) regressed beyond %g%%"
                        (List.length v.Perf.regressions)
                        tolerance_pct )
                else `Ok ())
      end

let list_faults () =
  List.iter
    (fun (s : Fault.schedule) ->
      Printf.printf "%-12s %s\n" s.Fault.name s.Fault.description;
      List.iter (fun a -> Printf.printf "    %s\n" (Fault.describe a)) s.Fault.actions)
    Fault.builtins

let list_ids () =
  List.iter (fun (id, _) -> print_endline id) E.specs

(* Dispatch on the document's own "schema" member, so one subcommand
   checks any file this repo emits or consumes. *)
let validate_json path =
  let finish name = function
    | Ok _ ->
        Format.printf "%s: valid %s@." path name;
        `Ok ()
    | Error msg -> `Error (false, msg)
  in
  match Json.load_file path with
  | Error msg -> `Error (false, msg)
  | Ok doc -> (
      match schema_of doc with
      | Some "renofs-bench/1" ->
          finish "renofs-bench/1"
            (Result.map_error
               (fun msg -> path ^ ": " ^ msg)
               (Bench_json.validate_file path))
      | Some "renofs-scenario/1" ->
          finish "renofs-scenario/1" (Scenario.load_file path)
      | Some "renofs-fault/1" -> finish "renofs-fault/1" (Fault.load_file path)
      | Some "renofs-perf/1" -> finish "renofs-perf/1" (Perf.read_file path)
      | Some "renofs-profile/1" ->
          finish "renofs-profile/1" (Renofs_profile.Profile.read_file path)
      | Some other ->
          `Error (false, Printf.sprintf "%s: unknown schema %S" path other)
      | None ->
          `Error
            ( false,
              path
              ^ ": no top-level \"schema\" member (want renofs-bench/1, \
                 renofs-scenario/1, renofs-fault/1, renofs-perf/1 or \
                 renofs-profile/1)" ))

(* The run flags, each with one help text; {!spec_term} picks a
   subcommand's. *)

let full_flag =
  Arg.(
    value & flag
    & info [ "f"; "full" ]
        ~doc:"Run at full scale (longer sweeps); shorthand for --scale full.")

let scale_arg =
  Arg.(
    value
    & opt (some (enum [ ("quick", E.Quick); ("full", E.Full) ])) None
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Workload scale: $(b,quick) (seconds of wall time, the default) or \
           $(b,full) (longer sweeps, every chaos schedule).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Execute experiment cells across $(docv) domains (default: the \
           machine's recommended domain count). Results are deterministic \
           regardless of $(docv).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "World seed (printed in the header so a failing run can be \
           replayed). 0 is the historical default world; for $(b,fuzz) it is \
           the base seed: cell $(i,i) uses seed N+$(i,i).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write typed results as JSON (schema renofs-bench/1) to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record an RPC-lifecycle event trace and export it as JSONL.")

let report_flag =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Record an RPC-lifecycle event trace and print the nfsstat-style \
           per-procedure table and latency breakdown after the experiment.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Sample instrumented sources (cwnd, RTO estimators, server queue \
           depth, link utilization, caches) every 0.5 sim-seconds and write \
           the time series to $(docv): schema renofs-metrics/1 as JSONL, or \
           CSV when $(docv) ends in .csv.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SCHEDULE"
        ~doc:
          "Run under a fault schedule: a builtin name (see $(b,nfsbench \
           faults)) or a renofs-fault/1 JSON file.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Self-profile the simulator while it runs — per-subsystem \
           wall-clock attribution, event fire counts and durations, GC \
           pressure — print the profile table and write it to $(docv) \
           (schema renofs-profile/1).")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ] ~docv:"FILE"
        ~doc:
          "Record an event trace and export it as a Chrome trace-event JSON \
           file that https://ui.perfetto.dev opens directly: RPC spans, \
           server service/queue slices, retransmit and drop instants, and \
           the self-profiler's subsystem summary.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"DIR"
        ~doc:
          "Arm the flight recorder: when a cell fails (invariant FAIL, SLO \
           breach or stuck driver) dump a bundle under $(docv)/<cell> — the \
           trace-ring tail, metrics tail, self-profile snapshot, run spec \
           and seed — for post-mortem without a rerun.")

(* The Run_spec of the run flags; [scale], [seed] and [faults] say
   whether the subcommand takes those flags.  A flag it does not take is
   an unknown option to Cmdliner, and its field stays unset. *)
let spec_term ~scale ~seed ~faults =
  let only on term = if on then term else Term.const None in
  let scale_term =
    Term.(
      const (fun full scale -> if full then Some E.Full else scale)
      $ full_flag $ scale_arg)
  in
  let make rs_scale rs_jobs rs_seed rs_json rs_trace rs_report rs_metrics
      rs_faults rs_profile rs_perfetto rs_flight =
    {
      R.rs_scale;
      rs_jobs;
      rs_seed;
      rs_json;
      rs_trace;
      rs_report;
      rs_metrics;
      rs_faults;
      rs_profile;
      rs_perfetto;
      rs_flight;
    }
  in
  Term.(
    const make $ only scale scale_term $ jobs_arg $ only seed seed_arg
    $ json_arg $ trace_arg $ report_flag $ metrics_arg $ only faults faults_arg
    $ profile_arg $ perfetto_arg $ flight_arg)

let id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT"
       ~doc:"Experiment id, e.g. graph1 or table5.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and print its table")
    Term.(
      ret (const run_one $ id_arg $ spec_term ~scale:true ~seed:false ~faults:true))

let plot_cmd =
  let metrics_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A renofs-metrics/1 JSONL file (--metrics).")
  in
  let pattern =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SERIES"
          ~doc:
            "Substring of a series address (run/name), e.g. \
             $(b,udp-dyn/client.xport.cwnd) or just $(b,cwnd).")
  in
  Cmd.v
    (Cmd.info "plot"
       ~doc:
         "Render time series from a --metrics file as ASCII charts (counters \
          as per-interval rates)")
    Term.(ret (const run_plot $ metrics_file $ pattern))

let diff_cmd =
  let old_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD"
          ~doc:"Baseline renofs-bench/1 or renofs-perf/1 file.")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW"
          ~doc:"Candidate file of the same schema as $(b,OLD).")
  in
  let tolerance =
    Arg.(
      value & opt float 15.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed change in percent before a latency (ms/s) increase or a \
             throughput (per_s) decrease counts as a regression; for perf \
             files, the allowed wall-clock rate drop.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two --json files cell by cell (renofs-bench/1), or two \
          perf files rate by rate and cell by cell (renofs-perf/1); exits \
          non-zero when anything regressed beyond the tolerance")
    Term.(ret (const run_diff $ old_file $ new_file $ tolerance))

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-schedule x transport matrix and check the recovery \
          invariants; exits non-zero on any violation")
    Term.(ret (const run_chaos $ spec_term ~scale:true ~seed:true ~faults:false))

let fuzz_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Number of fuzzing cells; profile and mount (the three \
             transports plus the v3 profile) cycle per cell, so 20 or more \
             covers the full matrix.")
  in
  let no_checksum_flag =
    Arg.(
      value & flag
      & info [ "no-checksum" ]
          ~doc:
            "Disable UDP checksums, as Sun shipped them — the corrupt \
             profile is then expected to produce (and the exit code to \
             report) end-to-end data-integrity violations.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Sweep seeded wire-mangling profiles (corrupt/truncate/duplicate/\
          reorder/storm) across the three transports and the v3 profile \
          under load; exits non-zero on any invariant or data-integrity \
          violation, stuck driver, or uncaught exception")
    Term.(
      ret
        (const run_fuzz
        $ spec_term ~scale:true ~seed:true ~faults:false
        $ seeds_arg $ no_checksum_flag))

let perf_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the measurement as JSON (schema renofs-perf/1) to $(docv).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "A renofs-perf/1 file to gate against: exits non-zero when \
             events/s or RPCs/s fall more than the tolerance below it.")
  in
  let tolerance =
    Arg.(
      value & opt float 30.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed wall-clock rate drop in percent before the run counts \
             as a regression (wide by default: container clocks are noisy).")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Measure wall-clock engine throughput (events/s, RPCs/s) over the \
          fixed graph5 full cell set; optionally write a renofs-perf/1 JSON \
          and gate against a baseline")
    Term.(ret (const run_perf $ json_arg $ baseline_arg $ tolerance))

let faults_cmd =
  Cmd.v
    (Cmd.info "faults" ~doc:"List the builtin fault schedules")
    Term.(const list_faults $ const ())

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment")
    Term.(ret (const run_all $ spec_term ~scale:true ~seed:false ~faults:true))

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids") Term.(const list_ids $ const ())

let slo_cmd =
  let scenarios_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Builtin scenario names (diurnal, flash-crowd, crash-at-peak, \
             flapping-wan, background-corruption) or renofs-scenario/1 JSON \
             files; all five builtins when omitted.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Run day-in-the-life scenarios — fleet world, time-varying load, \
          fault timeline — and judge each against its SLOs (p99 latency per \
          op class, availability, recovery time, integrity invariants); \
          exits non-zero on any breach, naming the violated SLOs")
    Term.(
      ret
        (const run_slo
        $ spec_term ~scale:false ~seed:false ~faults:false
        $ scenarios_arg))

let validate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A JSON file with a top-level \"schema\" member: renofs-bench/1, \
             renofs-scenario/1, renofs-fault/1, renofs-perf/1 or \
             renofs-profile/1.")
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:
         "Validate a JSON file against the schema its \"schema\" member names")
    Term.(ret (const validate_json $ file_arg))

let main =
  Cmd.group
    (Cmd.info "nfsbench" ~version:"1.0"
       ~doc:
         "Reproduce the experiments of 'Lessons Learned Tuning the 4.3BSD Reno \
          Implementation of the NFS Protocol' (Macklem, USENIX 1991)")
    [
      run_cmd;
      chaos_cmd;
      fuzz_cmd;
      perf_cmd;
      faults_cmd;
      slo_cmd;
      all_cmd;
      list_cmd;
      validate_cmd;
      plot_cmd;
      diff_cmd;
    ]

let () = exit (Cmd.eval main)
