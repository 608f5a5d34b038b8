module Sim = Renofs_engine.Sim
module Stats = Renofs_engine.Stats
module Json = Renofs_json.Json

type kind = Counter | Gauge | Histogram

type series = {
  e_run : string;
  e_name : string;
  e_kind : kind;
  e_unit : string;
  e_labels : (string * string) list;
  e_points : (float * float) list;
}

type source = {
  s_name : string;
  s_unit : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_sample : unit -> float;
  s_points : Stats.Timeseries.t;
}

type run = { r_label : string; mutable r_sources_rev : source list }

type t = {
  m_interval : float;
  m_enabled : bool ref;
  mutable m_runs_rev : run list;
}

let create ?(interval = 0.5) () =
  if interval <= 0.0 then invalid_arg "Metrics.create: nonpositive interval";
  { m_interval = interval; m_enabled = ref true; m_runs_rev = [] }

let interval t = t.m_interval
let set_enabled t b = t.m_enabled := b
let runs t = List.rev t.m_runs_rev

let uniquify t label =
  let taken l = List.exists (fun r -> r.r_label = l) t.m_runs_rev in
  if not (taken label) then label
  else
    let rec go i =
      let cand = Printf.sprintf "%s#%d" label i in
      if taken cand then go (i + 1) else cand
    in
    go 2

let start_run t ~sim ~label =
  let run = { r_label = uniquify t label; r_sources_rev = [] } in
  t.m_runs_rev <- run :: t.m_runs_rev;
  (* The sources list is re-read on every tick, so components that come
     up mid-run (a client mounting) join the next sample. *)
  let rec tick () =
    if !(t.m_enabled) then begin
      let sample () =
        let now = Sim.now sim in
        List.iter
          (fun s ->
            let v = s.s_sample () in
            if Float.is_finite v then Stats.Timeseries.add s.s_points now v)
          (List.rev run.r_sources_rev)
      in
      (* Sampling cost is observer overhead when probed. *)
      match Sim.probe sim with
      | None -> sample ()
      | Some p ->
          let d = p.Renofs_engine.Probe.enter Renofs_engine.Probe.observer in
          (try sample () with e -> p.Renofs_engine.Probe.leave d; raise e);
          p.Renofs_engine.Probe.leave d
    end;
    ignore (Sim.timer_after sim t.m_interval tick)
  in
  ignore (Sim.timer_after sim t.m_interval tick);
  run

let register ?(labels = []) run ~name ~unit_ ~kind sample =
  run.r_sources_rev <-
    {
      s_name = name;
      s_unit = unit_;
      s_kind = kind;
      s_labels = labels;
      s_sample = sample;
      s_points = Stats.Timeseries.create ~name ();
    }
    :: run.r_sources_rev

let register_hist ?(labels = []) run ~name ~unit_ hist =
  let q p () =
    if Stats.Hist.count hist = 0 then nan else Stats.Hist.quantile hist p
  in
  register ~labels run ~name:(name ^ "/p50") ~unit_ ~kind:Histogram (q 0.5);
  register ~labels run ~name:(name ^ "/p95") ~unit_ ~kind:Histogram (q 0.95)

let merge ~into t =
  into.m_runs_rev <- t.m_runs_rev @ into.m_runs_rev;
  t.m_runs_rev <- []

let series t =
  List.concat_map
    (fun run ->
      List.rev_map
        (fun s ->
          {
            e_run = run.r_label;
            e_name = s.s_name;
            e_kind = s.s_kind;
            e_unit = s.s_unit;
            e_labels = s.s_labels;
            e_points = Stats.Timeseries.to_list s.s_points;
          })
        run.r_sources_rev)
    (runs t)

(* ------------------------------------------------------------------ *)
(* renofs-metrics/1 export / import                                   *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let kind_of_name = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "histogram" -> Some Histogram
  | _ -> None

(* Unlabelled series carry no "labels" member at all, so every export
   written before labels existed stays byte-identical. *)
let series_json s =
  Json.Obj
    ([
       ("run", Json.Str s.e_run);
       ("name", Str s.e_name);
       ("kind", Str (kind_name s.e_kind));
       ("unit", Str s.e_unit);
     ]
    @ (match s.e_labels with
      | [] -> []
      | labels ->
          [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)) ])
    @ [
        ( "points",
          Json.Arr (List.map (fun (t, v) -> Json.Arr [ Num t; Num v ]) s.e_points) );
      ])

let export_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let all = series t in
      Json.output_line oc
        (Json.Obj
           [
             ("schema", Str "renofs-metrics/1");
             ("interval", Num t.m_interval);
             ("series", Num (float_of_int (List.length all)));
           ]);
      List.iter (fun s -> Json.output_line oc (series_json s)) all)

let export_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "run,series,kind,unit,time,value\n";
      List.iter
        (fun s ->
          let name =
            match s.e_labels with
            | [] -> s.e_name
            | labels ->
                Printf.sprintf "%s{%s}" s.e_name
                  (String.concat ";"
                     (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
          in
          List.iter
            (fun (time, v) ->
              Printf.fprintf oc "%s,%s,%s,%s,%s,%s\n" s.e_run name
                (kind_name s.e_kind) s.e_unit (Json.float_str time)
                (Json.float_str v))
            s.e_points)
        (series t))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let import_jsonl path =
  match read_lines path with
  | exception Sys_error msg -> Error msg
  | [] -> Error (path ^ ": empty file")
  | header :: rest -> (
      let parse_series lineno line =
        Json.decode_line ~path ~lineno line (fun j ->
            let ctx = "series" in
            let o = Json.obj ~ctx j in
            let field name = Json.str ~ctx (Json.member ~ctx name o) in
            let kind_s = field "kind" in
            match kind_of_name kind_s with
            | None -> raise (Json.Bad (Printf.sprintf "unknown kind %S" kind_s))
            | Some kind ->
                let points =
                  Json.arr ~ctx (Json.member ~ctx "points" o)
                  |> List.map (fun p ->
                         match Json.arr ~ctx p with
                         | [ t; v ] -> (Json.num ~ctx t, Json.num ~ctx v)
                         | _ -> raise (Json.Bad "point is not a [time,value] pair"))
                in
                let labels =
                  match Json.member_opt "labels" o with
                  | None -> []
                  | Some j ->
                      List.map
                        (fun (k, v) -> (k, Json.str ~ctx v))
                        (Json.obj ~ctx j)
                in
                {
                  e_run = field "run";
                  e_name = field "name";
                  e_kind = kind;
                  e_unit = field "unit";
                  e_labels = labels;
                  e_points = points;
                })
      in
      let check_header j =
        let ctx = "header" in
        let o = Json.obj ~ctx j in
        let schema = Json.str ~ctx (Json.member ~ctx "schema" o) in
        if schema <> "renofs-metrics/1" then
          raise (Json.Bad (Printf.sprintf "unsupported schema %S" schema))
      in
      match Json.decode_line ~path ~lineno:1 header check_header with
      | Error _ as e -> e
      | Ok () ->
          let rec go lineno acc = function
            | [] -> Ok (List.rev acc)
            | "" :: rest -> go (lineno + 1) acc rest
            | line :: rest -> (
                match parse_series lineno line with
                | Error _ as e -> e
                | Ok s -> go (lineno + 1) (s :: acc) rest)
          in
          go 2 [] rest)
