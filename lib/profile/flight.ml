module Trace = Renofs_trace.Trace
module Metrics = Renofs_metrics.Metrics
module Json = Renofs_json.Json

type t = { f_dir : string; f_spec : Json.json; f_seed : int }

let arm ~dir ~spec ~seed = { f_dir = dir; f_spec = spec; f_seed = seed }
let tail_records = 20_000

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    label

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let dump t ~label ~reason ?trace ?metrics ?profile () =
  let bundle = Filename.concat t.f_dir (sanitize label) in
  mkdir_p bundle;
  let members = ref [] in
  let add name write =
    write (Filename.concat bundle name);
    members := name :: !members
  in
  add "reason.txt" (fun p -> write_string p (reason ^ "\n"));
  add "run_spec.json" (fun p -> write_string p (Json.to_string Compact t.f_spec));
  (match trace with
  | Some tr ->
      add "trace_tail.jsonl" (fun p -> Trace.export_jsonl ~last:tail_records tr p)
  | None -> ());
  (match metrics with
  | Some m -> add "metrics.jsonl" (fun p -> Metrics.export_jsonl m p)
  | None -> ());
  (match profile with
  | Some p -> add "profile.json" (fun path -> Profile.write_file ~path p)
  | None -> ());
  Json.write_file
    (Filename.concat bundle "MANIFEST.json")
    (Obj
       [
         ("schema", Str "renofs-flight/1");
         ("label", Str label);
         ("seed", Num (float_of_int t.f_seed));
         ("reason", Str reason);
         ("members", Arr (List.rev_map (fun m -> Json.Str m) !members));
       ]);
  bundle
