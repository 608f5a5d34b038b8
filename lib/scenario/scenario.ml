(* Day-in-the-life scenarios: declarative world + load + faults + SLO,
   compiled onto the deterministic experiment runner. *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Node = Renofs_net.Node
module Topology = Renofs_net.Topology
module Nfs_server = Renofs_core.Nfs_server
module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json
module Fault = Renofs_fault.Fault
module Fleet = Renofs_fleet.Fleet
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec
module Nhfsstone = Renofs_workload.Nhfsstone
module Fileset = Renofs_workload.Fileset

type world = {
  w_servers : int;
  w_clients : int;
  w_tier : Topology.tier;
  w_wan_fraction : float;
  w_seed : int;
}

let default_world =
  {
    w_servers = 2;
    w_clients = 6;
    w_tier = Topology.Backbone 1;
    w_wan_fraction = 0.0;
    w_seed = 0;
  }

type slo = {
  slo_p99_ms : (string * float) list;
  slo_availability : float;
  slo_window : float;
  slo_max_recovery_s : float option;
  slo_integrity : bool;
}

let default_slo =
  {
    slo_p99_ms = [];
    slo_availability = 0.0;
    slo_window = 1.0;
    slo_max_recovery_s = None;
    slo_integrity = true;
  }

type t = {
  sc_name : string;
  sc_description : string;
  sc_world : world;
  sc_load : Nhfsstone.segment list;
  sc_faults : Fault.action list;
  sc_slo : slo;
  sc_run : R.t;
}

(* ------------------------------------------------------------------ *)
(* SLO evaluation                                                      *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  type breach = { b_slo : string; b_detail : string }

  type outcome = {
    o_p99_ms : float;
    o_availability : float;
    o_recovery : float;
    o_breaches : breach list;
  }

  let p99 samples =
    let samples = List.filter (fun v -> not (Float.is_nan v)) samples in
    match List.sort Float.compare samples with
    | [] -> 0.0
    | sorted ->
        let n = List.length sorted in
        let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
        List.nth sorted (max 0 (min (n - 1) rank))

  (* Fixed windows anchored at the first RPC event, by index: bit 1 once
     a send or retransmit falls in it, bit 2 once a reply does. *)
  type windows = {
    width : float;
    mutable t0 : float;  (* nan until the first RPC event *)
    seen : (int, int) Hashtbl.t;
  }

  let windows width = { width; t0 = Float.nan; seen = Hashtbl.create 64 }

  let observe_window w r =
    let bit =
      match r.Trace.ev with
      | Trace.Rpc_send _ | Trace.Rpc_retransmit _ -> 1
      | Trace.Rpc_reply _ -> 2
      | _ -> 0
    in
    if bit > 0 then begin
      if Float.is_nan w.t0 then w.t0 <- r.Trace.time;
      let i = int_of_float ((r.Trace.time -. w.t0) /. w.width) in
      let bits = Option.value ~default:0 (Hashtbl.find_opt w.seen i) in
      Hashtbl.replace w.seen i (bits lor bit)
    end

  let available w =
    let judged, up =
      Hashtbl.fold
        (fun _ bits (judged, up) ->
          if bits land 1 = 0 then (judged, up)
          else (judged + 1, if bits = 3 then up + 1 else up))
        w.seen (0, 0)
    in
    if judged = 0 then 1.0 else float_of_int up /. float_of_int judged

  type t = {
    slo : slo;
    check : Fault.Check.t;
    join : Trace.Report.join;
    classes : (string * float list ref) list;
        (* completed-RPC totals (ms) of ["*"] and each ceiling's class *)
    windows : windows;
  }

  let create slo =
    let classes =
      List.sort_uniq compare ("*" :: List.map fst slo.slo_p99_ms)
      |> List.map (fun cls -> (cls, ref []))
    in
    let on_span sp =
      let name = Trace.proc_name sp.Trace.Report.sp_proc in
      List.iter
        (fun (cls, s) ->
          if cls = "*" || cls = name then
            s := (sp.Trace.Report.sp_total *. 1000.0) :: !s)
        classes
    in
    {
      slo;
      check = Fault.Check.create ();
      join = Trace.Report.join on_span;
      classes;
      windows = windows slo.slo_window;
    }

  let observe t r =
    Fault.Check.observe t.check r;
    Trace.Report.observe t.join r;
    observe_window t.windows r

  let class_name cls = if cls = "*" then "all" else cls

  let samples t cls = !(List.assoc cls t.classes)

  let outcome t ~server_nodes ~read_back =
    let slo = t.slo in
    let breaches = ref [] in
    let breach b_slo b_detail =
      (* One breach per SLO name: a class listed twice is one violated
         SLO, not two rows of noise. *)
      if not (List.exists (fun b -> b.b_slo = b_slo) !breaches) then
        breaches := { b_slo; b_detail } :: !breaches
    in
    List.iter
      (fun (cls, ceiling) ->
        match samples t cls with
        | [] -> ()
        | samples ->
            let q = p99 samples in
            if q > ceiling then
              breach
                ("p99-" ^ class_name cls)
                (Printf.sprintf "p99 %.1f ms > ceiling %.1f ms over %d calls" q
                   ceiling (List.length samples)))
      slo.slo_p99_ms;
    let avail = available t.windows in
    if avail < slo.slo_availability then
      breach "availability"
        (Printf.sprintf "%.1f%% of %.1fs windows available < floor %.1f%%"
           (avail *. 100.0) slo.slo_window (slo.slo_availability *. 100.0));
    let recovery = Fault.Check.recovery t.check ~nodes:server_nodes in
    (match slo.slo_max_recovery_s with
    | Some ceiling when recovery > ceiling ->
        breach "recovery"
          (Printf.sprintf "worst crash-to-service gap %.2f s > ceiling %.2f s"
             recovery ceiling)
    | _ -> ());
    if slo.slo_integrity then
      List.iter
        (fun v ->
          if not v.Fault.Check.v_ok then
            breach ("integrity:" ^ v.Fault.Check.v_name) v.Fault.Check.v_detail)
        (Fault.Check.verdicts t.check ~read_back ~nodes:server_nodes);
    {
      o_p99_ms = p99 (samples t "*");
      o_availability = avail;
      o_recovery = recovery;
      o_breaches = List.rev !breaches;
    }

  let evaluate slo ~server_nodes ~read_back records =
    let t = create slo in
    List.iter (observe t) records;
    outcome t ~server_nodes ~read_back
end

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf (fun msg -> raise (Json.Bad msg)) fmt

let num_field ~ctx fields name default =
  match Json.member_opt name fields with
  | None -> default
  | Some j -> Json.num ~ctx:(ctx ^ "." ^ name) j

let int_field ~ctx fields name default =
  match Json.member_opt name fields with
  | None -> default
  | Some j -> Json.int ~ctx:(ctx ^ "." ^ name) j

let tier_of_string ~ctx s =
  let fail () = bad "%s: bad tier %S (want \"backbone:N\" or \"fat-tree:SxL\")" ctx s in
  match String.split_on_char ':' s with
  | [ "backbone"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Topology.Backbone n
      | _ -> fail ())
  | [ "fat-tree"; sl ] -> (
      match String.split_on_char 'x' sl with
      | [ sp; lv ] -> (
          match (int_of_string_opt sp, int_of_string_opt lv) with
          | Some spines, Some leaves when spines >= 1 && leaves >= 1 ->
              Topology.Fat_tree { spines; leaves }
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()

let world_of_json ~ctx j =
  let fields = Json.obj ~ctx j in
  Json.reject_unknown ~ctx [ "servers"; "clients"; "tier"; "wan_fraction"; "seed" ]
    fields;
  let w =
    {
      w_servers = int_field ~ctx fields "servers" default_world.w_servers;
      w_clients = int_field ~ctx fields "clients" default_world.w_clients;
      w_tier =
        (match Json.member_opt "tier" fields with
        | None -> default_world.w_tier
        | Some j ->
            let c = ctx ^ ".tier" in
            tier_of_string ~ctx:c (Json.str ~ctx:c j));
      w_wan_fraction = num_field ~ctx fields "wan_fraction" 0.0;
      w_seed = int_field ~ctx fields "seed" 0;
    }
  in
  if w.w_servers < 1 || w.w_servers > 90 then
    bad "%s.servers: want 1..90 (got %d)" ctx w.w_servers;
  if w.w_clients < 1 then bad "%s.clients: want at least 1" ctx;
  if w.w_wan_fraction < 0.0 || w.w_wan_fraction > 1.0 then
    bad "%s.wan_fraction: want within [0,1]" ctx;
  w

let segment_of_json ~ctx i j =
  let ctx = Printf.sprintf "%s[%d]" ctx i in
  let fields = Json.obj ~ctx j in
  Json.reject_unknown ~ctx [ "label"; "duration"; "rate"; "rate_end"; "mix" ] fields;
  let duration = num_field ~ctx fields "duration" nan in
  if Float.is_nan duration then bad "%s: missing field duration" ctx;
  if duration <= 0.0 then bad "%s.duration: want > 0" ctx;
  let rate = num_field ~ctx fields "rate" nan in
  if Float.is_nan rate then bad "%s: missing field rate" ctx;
  if rate < 0.0 then bad "%s.rate: want >= 0" ctx;
  let mix_name =
    match Json.member_opt "mix" fields with
    | None -> "default"
    | Some j -> Json.str ~ctx:(ctx ^ ".mix") j
  in
  let mix =
    match Nhfsstone.mix_of_name mix_name with
    | Some m -> m
    | None ->
        bad "%s.mix: unknown mix %S (one of %s)" ctx mix_name
          (String.concat ", " Nhfsstone.mix_names)
  in
  {
    Nhfsstone.sg_label =
      (match Json.member_opt "label" fields with
      | None -> Printf.sprintf "seg%d" i
      | Some j -> Json.str ~ctx:(ctx ^ ".label") j);
    sg_duration = duration;
    sg_rate = rate;
    sg_rate_end =
      (match Json.member_opt "rate_end" fields with
      | None -> None
      | Some j -> Some (Json.num ~ctx:(ctx ^ ".rate_end") j));
    sg_mix = mix;
  }

let slo_of_json ~ctx j =
  let fields = Json.obj ~ctx j in
  Json.reject_unknown ~ctx
    [ "p99_ms"; "availability"; "window"; "max_recovery_s"; "integrity" ]
    fields;
  let s =
    {
      slo_p99_ms =
        (match Json.member_opt "p99_ms" fields with
        | None -> []
        | Some j ->
            let c = ctx ^ ".p99_ms" in
            List.map
              (fun (cls, v) -> (cls, Json.num ~ctx:(c ^ "." ^ cls) v))
              (Json.obj ~ctx:c j));
      slo_availability = num_field ~ctx fields "availability" 0.0;
      slo_window = num_field ~ctx fields "window" default_slo.slo_window;
      slo_max_recovery_s =
        (match Json.member_opt "max_recovery_s" fields with
        | None -> None
        | Some j -> Some (Json.num ~ctx:(ctx ^ ".max_recovery_s") j));
      slo_integrity =
        (match Json.member_opt "integrity" fields with
        | None -> default_slo.slo_integrity
        | Some (Json.Bool b) -> b
        | Some _ -> bad "%s.integrity: expected true or false" ctx);
    }
  in
  if s.slo_availability < 0.0 || s.slo_availability > 1.0 then
    bad "%s.availability: want within [0,1]" ctx;
  if s.slo_window <= 0.0 then bad "%s.window: want > 0" ctx;
  List.iter
    (fun (_, v) -> if v < 0.0 then bad "%s.p99_ms: ceilings must be >= 0" ctx)
    s.slo_p99_ms;
  s

let of_json_exn doc =
  let ctx = "scenario" in
  let fields = Json.obj ~ctx doc in
  Json.reject_unknown ~ctx
    [ "schema"; "name"; "description"; "world"; "load"; "faults"; "slo"; "run" ]
    fields;
  (match Json.member ~ctx "schema" fields with
  | Json.Str "renofs-scenario/1" -> ()
  | Json.Str other ->
      bad "unsupported schema %S (want \"renofs-scenario/1\")" other
  | _ -> bad "%s.schema: expected a string" ctx);
  let load_ctx = ctx ^ ".load" in
  let load =
    List.mapi
      (segment_of_json ~ctx:load_ctx)
      (Json.arr ~ctx:load_ctx (Json.member ~ctx "load" fields))
  in
  if load = [] then bad "%s.load: want at least one segment" ctx;
  {
    sc_name = Json.str ~ctx:(ctx ^ ".name") (Json.member ~ctx "name" fields);
    sc_description =
      (match Json.member_opt "description" fields with
      | None -> ""
      | Some j -> Json.str ~ctx:(ctx ^ ".description") j);
    sc_world =
      (match Json.member_opt "world" fields with
      | None -> default_world
      | Some j -> world_of_json ~ctx:(ctx ^ ".world") j);
    sc_load = load;
    sc_faults =
      (match Json.member_opt "faults" fields with
      | None -> []
      | Some j ->
          List.map Fault.action_of_json (Json.arr ~ctx:(ctx ^ ".faults") j));
    sc_slo =
      (match Json.member_opt "slo" fields with
      | None -> default_slo
      | Some j -> slo_of_json ~ctx:(ctx ^ ".slo") j);
    sc_run =
      (match Json.member_opt "run" fields with
      | None -> R.empty
      | Some j -> R.of_json ~ctx:(ctx ^ ".run") (Json.obj ~ctx:(ctx ^ ".run") j));
  }

let of_json doc = try Ok (of_json_exn doc) with Json.Bad msg -> Error msg

let parse text =
  match Json.parse text with Error _ as e -> e | Ok doc -> of_json doc

let load_file path = Json.decode_file path of_json_exn

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let seg ?rate_end ?(mix = Nhfsstone.default_mix) label duration rate =
  {
    Nhfsstone.sg_label = label;
    sg_duration = duration;
    sg_rate = rate;
    sg_rate_end = rate_end;
    sg_mix = mix;
  }

let diurnal =
  {
    sc_name = "diurnal";
    sc_description =
      "overnight quiet, morning ramp, daytime plateau, evening bulk backup";
    sc_world = default_world;
    sc_load =
      [
        seg "night" 6.0 2.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "morning" 6.0 2.0 ~rate_end:8.0;
        seg "day" 8.0 8.0;
        seg "evening" 6.0 8.0 ~rate_end:2.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "backup" 6.0 4.0 ~mix:Nhfsstone.bulk_mix;
      ];
    sc_faults = [];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 200.0); ("lookup", 150.0) ];
        slo_availability = 0.99;
      };
    sc_run = R.empty;
  }

let flash_crowd =
  {
    sc_name = "flash-crowd";
    sc_description = "8x request spike rising in seconds, then decaying";
    sc_world = default_world;
    sc_load =
      [
        seg "baseline" 6.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "spike" 2.0 3.0 ~rate_end:24.0 ~mix:Nhfsstone.lookup_mix;
        seg "sustained" 6.0 24.0 ~mix:Nhfsstone.lookup_mix;
        seg "decay" 4.0 24.0 ~rate_end:3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "tail" 4.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults = [];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 500.0) ];
        slo_availability = 0.97;
      };
    sc_run = R.empty;
  }

let crash_at_peak =
  {
    sc_name = "crash-at-peak";
    sc_description = "server0 crashes at the daily peak and reboots 3s later";
    sc_world = default_world;
    sc_load =
      [
        seg "warm" 6.0 3.0;
        seg "climb" 4.0 3.0 ~rate_end:9.0;
        seg "peak" 10.0 9.0;
        seg "cool" 6.0 9.0 ~rate_end:3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults =
      [ Fault.Server_crash { at = 12.0; downtime = 3.0; server = "server0" } ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 2000.0) ];
        slo_availability = 0.8;
        slo_max_recovery_s = Some 10.0;
      };
    sc_run = R.empty;
  }

let flapping_wan =
  {
    sc_name = "flapping-wan";
    sc_description = "half the clients on 56K lines that flap during the day";
    sc_world = { default_world with w_wan_fraction = 0.5 };
    sc_load =
      [
        seg "steady" 10.0 3.0 ~mix:Nhfsstone.lookup_mix;
        seg "afternoon" 8.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "winddown" 6.0 3.0 ~rate_end:1.0 ~mix:Nhfsstone.lookup_mix;
      ];
    sc_faults =
      [
        Fault.Link_down { at = 4.0; duration = 1.5; link = "cl1" };
        Fault.Link_down { at = 9.0; duration = 1.5; link = "cl3" };
        Fault.Link_down { at = 14.0; duration = 1.5; link = "cl5" };
        Fault.Link_down { at = 18.0; duration = 1.0; link = "cl1" };
      ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 4000.0) ];
        slo_availability = 0.9;
      };
    sc_run = R.empty;
  }

let background_corruption =
  {
    sc_name = "background-corruption";
    sc_description =
      "2% wire corruption all day; checksums + retransmission absorb it";
    sc_world = default_world;
    sc_load =
      [
        seg "steady" 10.0 5.0;
        seg "bulk" 6.0 4.0 ~mix:Nhfsstone.bulk_mix;
        seg "tail" 4.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults =
      [
        Fault.Corrupt
          { at = 0.5; duration = 18.0; link = "*"; rate = 0.02; seed = 11 };
      ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 2500.0) ];
        slo_availability = 0.95;
      };
    sc_run = R.empty;
  }

let builtins =
  [ diurnal; flash_crowd; crash_at_peak; flapping_wan; background_corruption ]

let builtin_names = List.map (fun sc -> sc.sc_name) builtins
let find_builtin name = List.find_opt (fun sc -> sc.sc_name = name) builtins

(* A file is read once, so a flight bundle keeps the bytes that ran. *)
let resolve name =
  match find_builtin name with
  | Some sc -> Ok (sc, `Builtin name)
  | None when Sys.file_exists name ->
      Result.bind (Json.read_file name) (fun text ->
          Json.decode_text ~path:name text of_json_exn
          |> Result.map (fun sc -> (sc, `File (name, text))))
  | None ->
      Error
        (Printf.sprintf "%s: not a builtin scenario or a file (builtins: %s)"
           name
           (String.concat ", " builtin_names))

(* slo's arguments; no argument means every builtin.  The first that
   resolves to nothing is the error. *)
let resolve_all = function
  | [] -> Ok (List.map (fun sc -> (sc, `Builtin sc.sc_name)) builtins)
  | names ->
      List.fold_right
        (fun name acc ->
          match (resolve name, acc) with
          | Error msg, _ | _, Error msg -> Error msg
          | Ok given, Ok rest -> Ok (given :: rest))
        names (Ok [])

(* ------------------------------------------------------------------ *)
(* The runner cell                                                     *)
(* ------------------------------------------------------------------ *)

let txt s = E.Text s
let sec2 v = E.Float (v, E.Sec, 2)
let count n = E.Int (n, E.Count)
let rate1 v = E.Float (v, E.Per_sec, 1)
let ms1 v = E.Float (v, E.Ms, 1)
let pct1 v = E.Float (v *. 100.0, E.Percent, 1)

(* Small per-shard tree: every client preloads its own copy, so the
   fileset is sized for clients x shards, not one mount. *)
let scenario_fileset =
  Fileset.generate ~dirs:3 ~files_per_dir:4 ~file_size:8192 ~long_names:false

let label sc = "slo/" ^ sc.sc_name

let cell sc =
  let label = label sc in
  {
    E.cell_label = label;
    cell_run =
      (fun ctx ->
        let judge = Slo.create sc.sc_slo in
        let sink = E.verdict_sink ctx (Slo.observe judge) in
        let ctx = { ctx with E.trace = Some sink } in
        let w = sc.sc_world in
        let sim = Sim.create () in
        let params =
          if w.w_seed = 0 then Topology.default_params
          else { Topology.default_params with Topology.seed = w.w_seed }
        in
        let mounted = ref 0 in
        let go = Proc.Ivar.create sim in
        let results = Array.make w.w_clients None in
        let fw =
          E.fleet_world ~ctx ~label ~fileset:scenario_fileset sim
            {
              Topology.g_servers = w.w_servers;
              g_clients = w.w_clients;
              g_tier = w.w_tier;
              g_wan_fraction = w.w_wan_fraction;
              g_params = params;
            }
            (fun i m ->
              incr mounted;
              Proc.Ivar.read go;
              let r =
                Nhfsstone.run_program m scenario_fileset
                  {
                    Nhfsstone.pg_segments = sc.sc_load;
                    pg_children = 1;
                    pg_seed = (w.w_seed * 8191) + 31 + (i * 7919);
                  }
              in
              results.(i) <- Some (r, Sim.now sim))
        in
        let servers = Fleet.servers fw.E.f_fleet in
        (* Provisioning and the mount storm are setup, not the day:
           keep the sink quiet until the load program starts, so the
           SLO windows and the durability ledger cover the scenario
           only.  The world's Run_mark predates the gate. *)
        Trace.set_enabled sink false;
        (* The day starts when every client is mounted: open the trace
           gate, arm the fault timeline (action times are relative to
           load start) and release the clients together. *)
        let t_start = ref 0.0 in
        Proc.spawn sim (fun () ->
            Proc.Ivar.read fw.E.f_ready;
            while !mounted < w.w_clients do
              Proc.sleep sim 0.05
            done;
            Trace.set_enabled sink true;
            t_start := Sim.now sim;
            if sc.sc_faults <> [] then
              Fault.install
                {
                  Fault.sim;
                  nodes = fw.E.f_topo.Topology.all;
                  servers;
                  trace = Some sink;
                }
                {
                  Fault.name = sc.sc_name;
                  description = sc.sc_description;
                  actions = sc.sc_faults;
                };
            Proc.Ivar.fill go ());
        E.advance_until ~label ~window:50.0 sim (fun () ->
            Array.for_all Option.is_some results);
        (* The day's elapsed time is load start to the last client's
           finish — the drive loop overshoots by up to one window. *)
        let elapsed =
          Array.fold_left
            (fun acc r -> Float.max acc (snd (Option.get r) -. !t_start))
            0.0 results
        in
        let ops =
          Array.fold_left
            (fun acc r -> acc + (fst (Option.get r)).Nhfsstone.ops_completed)
            0 results
        in
        let achieved =
          Array.fold_left
            (fun acc r -> acc +. (fst (Option.get r)).Nhfsstone.achieved)
            0.0 results
        in
        let fss =
          List.map
            (fun srv -> (Node.id (Nfs_server.node srv), Nfs_server.fs srv))
            servers
        in
        let read_back ~node ~file ~off ~len =
          Option.bind (List.assoc_opt node fss) (fun fs ->
              E.read_back fs ~file ~off ~len)
        in
        let o =
          Slo.outcome judge ~server_nodes:(List.map fst fss) ~read_back
        in
        let verdict =
          match o.Slo.o_breaches with
          | [] -> "PASS"
          | bs ->
              "FAIL:"
              ^ String.concat "," (List.map (fun b -> b.Slo.b_slo) bs)
        in
        [
          txt sc.sc_name;
          sec2 elapsed;
          count ops;
          rate1 achieved;
          ms1 o.Slo.o_p99_ms;
          pct1 o.Slo.o_availability;
          ms1 (o.Slo.o_recovery *. 1000.0);
          txt verdict;
        ]);
  }

let suite_spec scenarios =
  {
    E.sp_id = "slo";
    sp_title = "Day-in-the-life scenarios: SLO verdicts";
    sp_header =
      [
        "scenario";
        "elapsed(s)";
        "ops";
        "achieved(op/s)";
        "p99(ms)";
        "avail(%)";
        "recovery(ms)";
        "verdict";
      ];
    sp_cells = List.map cell scenarios;
    sp_assemble = (fun outs -> outs);
  }
