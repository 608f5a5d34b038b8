module E = Experiments
module Json = Renofs_json.Json

let schema_version = "renofs-bench/1"

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)
(* ------------------------------------------------------------------ *)

let int n = Json.Num (float_of_int n)

let value_json = function
  | E.Text s -> Json.Obj [ ("type", Str "text"); ("value", Str s) ]
  | E.Int (v, u) ->
      Obj [ ("type", Str "int"); ("value", int v); ("unit", Str (E.unit_name u)) ]
  | E.Float (v, u, prec) ->
      Obj
        [
          ("type", Str "float");
          ("value", Num v);
          ("unit", Str (E.unit_name u));
          ("prec", int prec);
        ]

let results_json (r : E.results) =
  Json.Obj
    [
      ("id", Str r.E.r_id);
      ("title", Str r.E.r_title);
      ("header", Arr (List.map (fun h -> Json.Str h) r.E.r_header));
      ( "rows",
        Arr (List.map (fun row -> Json.Arr (List.map value_json row)) r.E.r_rows) );
    ]

let document ~scale ~jobs results =
  Json.Obj
    [
      ("schema", Str schema_version);
      ("scale", Str (match scale with E.Quick -> "quick" | E.Full -> "full"));
      ("jobs", int jobs);
      ("experiments", Arr (List.map results_json results));
    ]

let emit ~scale ~jobs results =
  Json.to_string Document (document ~scale ~jobs results) ^ "\n"

let write_file ~scale ~jobs ~path results =
  Json.write_file path (document ~scale ~jobs results)

(* ------------------------------------------------------------------ *)
(* Schema validation                                                  *)
(* ------------------------------------------------------------------ *)

let known_units = [ "ms"; "s"; "per_s"; "percent"; "bytes"; "count" ]

(* What diffing needs of a cell: its number and unit, or its text. *)
type diff_cell = Dnum of float * string | Dtext of string

(* Check a document against the schema, returning per experiment the
   header and typed cells. *)
let read_exn doc =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Json.Bad msg)) fmt in
  let str ctx o name = Json.str ~ctx (Json.member ~ctx name o) in
  let num ctx o name = Json.num ~ctx (Json.member ~ctx name o) in
  let arr ctx o name = Json.arr ~ctx (Json.member ~ctx name o) in
  let top = Json.obj ~ctx:"document" doc in
  let version = str "schema" top "schema" in
  if version <> schema_version then
    fail "schema %S, expected %S" version schema_version;
  (match str "scale" top "scale" with
  | "quick" | "full" -> ()
  | other -> fail "scale %S is not quick|full" other);
  if Json.int ~ctx:"jobs" (Json.member ~ctx:"jobs" "jobs" top) < 1 then
    fail "jobs must be a positive integer";
  let experiments = arr "experiments" top "experiments" in
  if experiments = [] then fail "experiments array is empty";
  List.map
    (fun e ->
      let e = Json.obj ~ctx:"experiment" e in
      let id = str "id" e "id" in
      ignore (str "title" e "title");
      let header =
        List.map (Json.str ~ctx:(id ^ ".header")) (arr (id ^ ".header") e "header")
      in
      let cols = List.length header in
      if cols = 0 then fail "%s: empty header" id;
      let rows = arr (id ^ ".rows") e "rows" in
      if rows = [] then fail "%s: no rows" id;
      let rows =
        List.mapi
          (fun i row ->
            let ctx = Printf.sprintf "%s.rows[%d]" id i in
            let row = Json.arr ~ctx row in
            if List.length row <> cols then
              fail "%s: %d cells for %d header columns" ctx (List.length row) cols;
            List.map
              (fun cell ->
                let cell = Json.obj ~ctx cell in
                let unit_ () =
                  let u = str (ctx ^ ".unit") cell "unit" in
                  if not (List.mem u known_units) then fail "%s: unknown unit %S" ctx u;
                  u
                in
                match str (ctx ^ ".type") cell "type" with
                | "text" -> Dtext (str ctx cell "value")
                | "int" ->
                    let v = Json.int ~ctx:(ctx ^ ".value") (Json.member ~ctx "value" cell) in
                    Dnum (float_of_int v, unit_ ())
                | "float" ->
                    ignore (num (ctx ^ ".prec") cell "prec");
                    Dnum (num ctx cell "value", unit_ ())
                | other -> fail "%s: unknown cell type %S" ctx other)
              row)
          rows
      in
      (id, (header, rows)))
    experiments

let validate s =
  match Json.parse s with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok doc -> ( try Ok (ignore (read_exn doc)) with Json.Bad msg -> Error msg)

let validate_file path =
  match Json.read_file path with
  | Error _ as e -> e
  | Ok content -> validate content

(* ------------------------------------------------------------------ *)
(* Regression diffing                                                 *)
(* ------------------------------------------------------------------ *)

type diff_report = {
  compared : int;
  regressions : string list;
  improvements : string list;
  warnings : string list;
}

(* A cell regresses when a latency (ms/s) grows, or a throughput
   (per_s) shrinks, by more than [tolerance] (a fraction).  Other units
   (percent/bytes/count) describe the workload rather than its cost and
   are not judged; nor are cells whose baseline is 0 (no direction to
   scale).  Cells are matched positionally within matching experiment
   ids; shape mismatches are reported as warnings, not failures, so a
   baseline survives adding a row to an experiment. *)
let diff_docs ~tolerance old_docs new_docs =
  let compared = ref 0 in
  let regressions = ref [] and improvements = ref [] and warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  List.iter
    (fun (id, (old_header, old_rows)) ->
      match List.assoc_opt id new_docs with
      | None -> warn "%s: missing from new file; skipped" id
      | Some (new_header, new_rows) ->
          if old_header <> new_header then
            warn "%s: header changed; skipped" id
          else if List.length old_rows <> List.length new_rows then
            warn "%s: %d rows vs %d; skipped" id (List.length old_rows)
              (List.length new_rows)
          else
            List.iteri
              (fun ri (old_row, new_row) ->
                let row_label =
                  match
                    List.find_opt (function Dtext _ -> true | _ -> false) old_row
                  with
                  | Some (Dtext s) -> s
                  | _ -> Printf.sprintf "row %d" ri
                in
                if List.length old_row <> List.length new_row then
                  warn "%s/%s: row shape changed; skipped" id row_label
                else
                  List.iteri
                    (fun ci (o, n) ->
                      let col =
                        match List.nth_opt old_header ci with
                        | Some h -> h
                        | None -> Printf.sprintf "col %d" ci
                      in
                      match (o, n) with
                      | Dtext a, Dtext b ->
                          if a <> b then
                            warn "%s/%s: %s changed %S -> %S" id row_label col a b
                      | Dnum (ov, ou), Dnum (nv, nu) when ou = nu ->
                          let direction =
                            match ou with
                            | "ms" | "s" -> Some `Lower_better
                            | "per_s" -> Some `Higher_better
                            | _ -> None
                          in
                          (match direction with
                          | Some dir when ov > 0.0 ->
                              incr compared;
                              let ratio = nv /. ov in
                              let line verdict pct =
                                Printf.sprintf
                                  "%s/%s: %s %s %s -> %s %s (%+.1f%%)" id
                                  row_label col verdict (Json.float_str ov)
                                  (Json.float_str nv) ou pct
                              in
                              let pct = (ratio -. 1.0) *. 100.0 in
                              let bad, good =
                                match dir with
                                | `Lower_better ->
                                    ( ratio > 1.0 +. tolerance,
                                      ratio < 1.0 -. tolerance )
                                | `Higher_better ->
                                    ( ratio < 1.0 -. tolerance,
                                      ratio > 1.0 +. tolerance )
                              in
                              if bad then
                                regressions := line "REGRESSED" pct :: !regressions
                              else if good then
                                improvements := line "improved" pct :: !improvements
                          | _ -> ())
                      | Dnum (_, ou), Dnum (_, nu) ->
                          warn "%s/%s: %s unit changed %S -> %S" id row_label col
                            ou nu
                      | _ -> warn "%s/%s: %s cell type changed" id row_label col)
                    (List.combine old_row new_row))
              (List.combine old_rows new_rows))
    old_docs;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id old_docs) then
        warn "%s: not in baseline; skipped" id)
    new_docs;
  {
    compared = !compared;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    warnings = List.rev !warnings;
  }

let diff_files ~tolerance old_path new_path =
  if tolerance < 0.0 then invalid_arg "Bench_json.diff_files: negative tolerance";
  let load path = Json.decode_file path read_exn in
  match load old_path with
  | Error _ as e -> e
  | Ok old_docs -> (
      match load new_path with
      | Error _ as e -> e
      | Ok new_docs -> Ok (diff_docs ~tolerance old_docs new_docs))
