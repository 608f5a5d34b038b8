module E = Experiments
module Json = Renofs_json.Json
module Trace = Renofs_trace.Trace
module Fault = Renofs_fault.Fault
module Metrics = Renofs_metrics.Metrics
module Profile = Renofs_profile.Profile
module Perfetto = Renofs_profile.Perfetto
module Flight = Renofs_profile.Flight

type t = {
  rs_scale : E.scale option;
  rs_jobs : int option;
  rs_seed : int option;
  rs_json : string option;
  rs_trace : string option;
  rs_report : bool;
  rs_metrics : string option;
  rs_faults : string option;
  rs_profile : string option;
  rs_perfetto : string option;
  rs_flight : string option;
}

let empty =
  {
    rs_scale = None;
    rs_jobs = None;
    rs_seed = None;
    rs_json = None;
    rs_trace = None;
    rs_report = false;
    rs_metrics = None;
    rs_faults = None;
    rs_profile = None;
    rs_perfetto = None;
    rs_flight = None;
  }

let scale t = Option.value t.rs_scale ~default:E.Quick
let seed t = Option.value t.rs_seed ~default:0

let override ~base t =
  let pick a b = match a with Some _ -> a | None -> b in
  {
    rs_scale = pick t.rs_scale base.rs_scale;
    rs_jobs = pick t.rs_jobs base.rs_jobs;
    rs_seed = pick t.rs_seed base.rs_seed;
    rs_json = pick t.rs_json base.rs_json;
    rs_trace = pick t.rs_trace base.rs_trace;
    rs_report = t.rs_report || base.rs_report;
    rs_metrics = pick t.rs_metrics base.rs_metrics;
    rs_faults = pick t.rs_faults base.rs_faults;
    rs_profile = pick t.rs_profile base.rs_profile;
    rs_perfetto = pick t.rs_perfetto base.rs_perfetto;
    rs_flight = pick t.rs_flight base.rs_flight;
  }

let of_json ~ctx o =
  let bad fmt = Printf.ksprintf (fun m -> raise (Json.Bad (ctx ^ ": " ^ m))) fmt in
  List.iter
    (fun (k, _) ->
      if List.mem k [ "scale"; "seed"; "faults" ] then
        bad "%S cannot be set here: a scenario's world, load and faults fix it" k)
    o;
  Json.reject_unknown ~ctx
    [ "jobs"; "json"; "trace"; "report"; "metrics"; "profile"; "perfetto"; "flight" ]
    o;
  let str name =
    Option.map (Json.str ~ctx:(ctx ^ "." ^ name)) (Json.member_opt name o)
  in
  let report =
    match Json.member_opt "report" o with
    | None -> false
    | Some (Json.Bool b) -> b
    | Some _ -> bad "report: expected a boolean"
  in
  {
    empty with
    rs_jobs =
      Option.map (Json.int ~ctx:(ctx ^ ".jobs")) (Json.member_opt "jobs" o);
    rs_json = str "json";
    rs_trace = str "trace";
    rs_report = report;
    rs_metrics = str "metrics";
    rs_profile = str "profile";
    rs_perfetto = str "perfetto";
    rs_flight = str "flight";
  }

(* Fail before the sweep runs, not after: a mistyped --trace or --json
   path should not cost minutes of simulation. *)
let check_writable path =
  match open_out path with
  | oc ->
      close_out oc;
      None
  | exception Sys_error msg -> Some msg

let check_outputs paths =
  List.find_map
    (fun (what, path) ->
      Option.map
        (fun msg -> Printf.sprintf "cannot write %s: %s" what msg)
        (Option.bind path check_writable))
    paths

(* The default is already clamped to the machine and to the cell count
   (a 9-cell fleet run should not spawn idle domains); an explicit
   larger --jobs still runs, oversubscribed, with a warning. *)
let effective_jobs ~cells jobs =
  let cap j = if cells >= 1 then min j cells else j in
  match jobs with
  | None -> cap (Sweep.default_jobs ())
  | Some j ->
      let j = max 1 j in
      let recommended = Sweep.default_jobs () in
      if j > recommended then
        Format.eprintf
          "nfsbench: --jobs %d exceeds this machine's %d recommended domains; \
           running oversubscribed@."
          j recommended;
      if j > cells && cells >= 1 then
        Format.eprintf
          "nfsbench: --jobs %d exceeds the %d cells; extra domains would \
           idle, capping to %d@."
          j cells cells;
      cap j

let resolve_faults = function
  | None -> Ok None
  | Some spec -> Result.map Option.some (Fault.resolve spec)

(* CSV by extension, JSONL otherwise. *)
let export_metrics mt path =
  if Filename.check_suffix path ".csv" then Metrics.export_csv mt path
  else Metrics.export_jsonl mt path

(* The run spec, stored in flight bundles so a dump can be replayed
   without the original command line.  Only the fields that were set
   are written: slo's bundle holds slo's flags, which a scenario's run
   section accepts. *)
let spec_json t =
  let str name = Option.map (fun s -> (name, Json.Str s)) in
  let int name = Option.map (fun n -> (name, Json.Num (float_of_int n))) in
  Json.Obj
    (("schema", Json.Str "renofs-runspec/1")
    :: List.filter_map Fun.id
         [
           str "scale"
             (Option.map
                (function E.Quick -> "quick" | E.Full -> "full")
                t.rs_scale);
           int "seed" t.rs_seed;
           int "jobs" t.rs_jobs;
           str "faults" t.rs_faults;
           str "flight" t.rs_flight;
         ])

let execute_many ?(print = fun _ -> ()) ?(scenarios = []) t specs =
  match
    check_outputs
      [
        ("trace", t.rs_trace);
        ("json", t.rs_json);
        ("metrics", t.rs_metrics);
        ("profile", t.rs_profile);
        ("perfetto", t.rs_perfetto);
      ]
  with
  | Some msg -> Error msg
  | None -> (
      match resolve_faults t.rs_faults with
      | Error msg -> Error msg
      | Ok faults ->
          let cells =
            List.fold_left (fun acc s -> acc + List.length s.E.sp_cells) 0 specs
          in
          let jobs = effective_jobs ~cells t.rs_jobs in
          let tr =
            if t.rs_trace <> None || t.rs_report || t.rs_perfetto <> None then
              (* Full-scale sweeps emit a few hundred thousand events;
                 size the ring so the early runs are not overwritten. *)
              Some (Trace.create ~capacity:(1 lsl 20) ())
            else None
          in
          let mt =
            match t.rs_metrics with
            | Some _ -> Some (Metrics.create ())
            | None -> None
          in
          let profile =
            if t.rs_profile <> None || t.rs_perfetto <> None then
              Some (Profile.create ())
            else None
          in
          let flight =
            match t.rs_flight with
            | Some dir ->
                Some (Flight.arm ~dir ~spec:(spec_json t) ~seed:(seed t) ~scenarios)
            | None -> None
          in
          (match faults with
          | Some f ->
              Format.printf "faults: %s — %s@." f.Fault.name f.Fault.description
          | None -> ());
          let results =
            E.run_specs ~jobs ?trace:tr ?faults ?metrics:mt ?profile ?flight
              specs
          in
          List.iter (fun r -> print (E.render r)) results;
          (match (mt, t.rs_metrics) with
          | Some mt, Some path ->
              export_metrics mt path;
              Format.printf "metrics: %d series written to %s@."
                (List.length (Metrics.series mt))
                path
          | _ -> ());
          (match t.rs_json with
          | Some path ->
              Bench_json.write_file ~scale:(scale t) ~jobs ~path results
          | None -> ());
          (match (tr, t.rs_trace) with
          | Some tr, Some path ->
              Trace.export_jsonl tr path;
              Format.printf "trace: %d events written to %s (%d overwritten)@."
                (Trace.length tr) path (Trace.dropped tr)
          | _ -> ());
          (match tr with
          | Some tr when t.rs_report ->
              Trace.Report.print Format.std_formatter (Trace.Report.build tr)
          | _ -> ());
          (match (profile, t.rs_profile) with
          | Some p, Some path ->
              Profile.write_file ~path p;
              Format.printf "profile: written to %s@." path
          | _ -> ());
          (match profile with
          | Some p ->
              Profile.print Format.std_formatter (Profile.snapshot p)
          | None -> ());
          (match (tr, t.rs_perfetto) with
          | Some tr, Some path ->
              let n =
                Perfetto.export ~path
                  ?profile:(Option.map Profile.snapshot profile)
                  (Trace.to_list tr)
              in
              Format.printf "perfetto: %d events written to %s@." n path
          | _ -> ());
          Ok results)

let execute ?print ?scenarios t spec =
  Result.map
    (function [ r ] -> r | _ -> assert false)
    (execute_many ?print ?scenarios t [ spec ])
