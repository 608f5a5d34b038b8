(* Wall-clock performance harness: how fast does the simulator itself
   run?  Everything else in this library gates *simulated* latencies;
   this module measures and gates events-per-second and RPCs-per-second
   of real time over a fixed cell set (the graph5 full sweep — the
   timer-heavy 56K WAN world whose RTO churn exercises the scheduler
   hardest), so engine speedups are earned once and then kept by
   `make perf-gate`.  Each cell's events, RPCs and minor words are
   exact for a given build, so those are gated exactly too. *)

module Sim = Renofs_engine.Sim
module Nfs_server = Renofs_core.Nfs_server
module Json = Renofs_json.Json
module Profile = Renofs_profile.Profile
module E = Experiments

type cell = {
  c_label : string;
  c_wall_s : float;
  c_events : int;
  c_rpcs : int;
  c_minor_words : int;
}

type t = {
  cells : cell list;
  wall_s : float;
  events : int;
  rpcs : int;
  minor_words : int;
  events_per_s : float;
  rpcs_per_s : float;
  p_profile : Profile.snapshot option;
}

(* The cells `nfsbench run graph5 -f` measures, run with no trace or
   metrics sink: the detached fast path. *)
let run_point ?profile (label, point) =
  let w =
    point
      { E.trace = None; faults = None; metrics = None; profile; cell_label = label }
  in
  (Sim.events_processed w.E.sim, Nfs_server.rpcs_served w.E.server)

let run ?(progress = ignore) ?(profile = false) () =
  let points = E.graph5_points E.Full in
  let cells =
    List.map
      (fun ((label, _) as pt) ->
        progress label;
        let t0 = Unix.gettimeofday () in
        let w0 = Gc.minor_words () in
        let events, rpcs = run_point pt in
        let w1 = Gc.minor_words () in
        {
          c_label = label;
          c_wall_s = Unix.gettimeofday () -. t0;
          c_events = events;
          c_rpcs = rpcs;
          c_minor_words = int_of_float (w1 -. w0);
        })
      points
  in
  (* The gate timings above run detached.  Attribution comes from a
     second, probed pass over the same cells — it never pollutes the
     rates the baseline compares. *)
  let p_profile =
    if not profile then None
    else begin
      let p = Profile.create () in
      List.iter
        (fun ((label, _) as pt) ->
          progress (label ^ "+prof");
          Profile.start p;
          ignore (run_point ~profile:p pt);
          Profile.stop p)
        points;
      Some (Profile.snapshot p)
    end
  in
  let wall_s = List.fold_left (fun a c -> a +. c.c_wall_s) 0.0 cells in
  let events = List.fold_left (fun a c -> a + c.c_events) 0 cells in
  let rpcs = List.fold_left (fun a c -> a + c.c_rpcs) 0 cells in
  let minor_words = List.fold_left (fun a c -> a + c.c_minor_words) 0 cells in
  {
    cells;
    wall_s;
    events;
    rpcs;
    minor_words;
    events_per_s = (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
    rpcs_per_s = (if wall_s > 0.0 then float_of_int rpcs /. wall_s else 0.0);
    p_profile;
  }

(* ------------------------------------------------------------------ *)
(* renofs-perf/1 JSON                                                 *)
(* ------------------------------------------------------------------ *)

let to_json r =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    ([
       ("schema", Json.Str "renofs-perf/1");
       ("wall_s", Num r.wall_s);
       ("events", int r.events);
       ("rpcs", int r.rpcs);
       ("minor_words", int r.minor_words);
       ("events_per_s", Num r.events_per_s);
       ("rpcs_per_s", Num r.rpcs_per_s);
       ( "cells",
         Arr
           (List.map
              (fun c ->
                Json.Obj
                  [
                    ("label", Str c.c_label);
                    ("wall_s", Num c.c_wall_s);
                    ("events", int c.c_events);
                    ("rpcs", int c.c_rpcs);
                    ("minor_words", int c.c_minor_words);
                  ])
              r.cells) );
     ]
    @
    match r.p_profile with
    | Some s -> [ ("profile", Profile.to_json s) ]
    | None -> [])

let write_file ~path r = Json.write_file path (to_json r)

let of_json ~ctx j =
  let o = Json.obj ~ctx j in
  (match Json.str ~ctx (Json.member ~ctx "schema" o) with
  | "renofs-perf/1" -> ()
  | s -> raise (Json.Bad (Printf.sprintf "%s: unsupported schema %S" ctx s)));
  let num o name = Json.num ~ctx (Json.member ~ctx name o) in
  let int o name = Json.int ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let cells =
    List.map
      (fun cj ->
        let co = Json.obj ~ctx cj in
        {
          c_label = Json.str ~ctx (Json.member ~ctx "label" co);
          c_wall_s = num co "wall_s";
          c_events = int co "events";
          c_rpcs = int co "rpcs";
          c_minor_words = int co "minor_words";
        })
      (Json.arr ~ctx (Json.member ~ctx "cells" o))
  in
  let p_profile =
    Option.map
      (Profile.of_json ~ctx:(ctx ^ ".profile"))
      (Json.member_opt "profile" o)
  in
  {
    cells;
    wall_s = num o "wall_s";
    events = int o "events";
    rpcs = int o "rpcs";
    minor_words = int o "minor_words";
    events_per_s = num o "events_per_s";
    rpcs_per_s = num o "rpcs_per_s";
    p_profile;
  }

let read_file path = Json.decode_file path (of_json ~ctx:path)

(* The gate: wall-clock throughput may wobble with container noise, so
   only a large drop (default 30%) in either rate counts as a
   regression.  Each cell's event, RPC and minor-word counts are exact
   for a given build and compared exactly: any drift is a regression.
   A change that moves them on purpose rewrites the baseline
   ([make perf-baseline]) and says why. *)
type verdict = {
  regressions : string list;
  notes : string list;
}

let diff ~tolerance ~baseline ~current =
  let regressions = ref [] and notes = ref [] in
  let rate name old_v new_v =
    if old_v > 0.0 then begin
      let change = (new_v -. old_v) /. old_v *. 100.0 in
      if new_v < old_v *. (1.0 -. tolerance) then
        regressions :=
          Printf.sprintf "%s: %.0f -> %.0f (%+.1f%%, beyond -%.0f%%)" name old_v
            new_v change (tolerance *. 100.0)
          :: !regressions
      else
        notes := Printf.sprintf "%s: %.0f -> %.0f (%+.1f%%)" name old_v new_v change :: !notes
    end
  in
  rate "events/s" baseline.events_per_s current.events_per_s;
  rate "rpcs/s" baseline.rpcs_per_s current.rpcs_per_s;
  let exact label name old_n new_n =
    if old_n <> new_n then
      regressions :=
        Printf.sprintf "%s%s %d -> %d (exact; refresh the baseline if meant)"
          label name old_n new_n
        :: !regressions
  in
  (* Per-cell localization: which cell moved?  Cells are matched by
     label.  A single cell's wall clock is far noisier than the
     aggregate, so its beyond-tolerance rate is a note — the aggregate
     rates above remain the rate gate. *)
  List.iter
    (fun bc ->
      match List.find_opt (fun c -> c.c_label = bc.c_label) current.cells with
      | None -> regressions := Printf.sprintf "cell %s: gone" bc.c_label :: !regressions
      | Some cc ->
          let cell = Printf.sprintf "cell %s: " bc.c_label in
          exact cell "events" bc.c_events cc.c_events;
          exact cell "rpcs" bc.c_rpcs cc.c_rpcs;
          exact cell "minor words" bc.c_minor_words cc.c_minor_words;
          let b_rate =
            if bc.c_wall_s > 0.0 then float_of_int bc.c_events /. bc.c_wall_s
            else 0.0
          and c_rate =
            if cc.c_wall_s > 0.0 then float_of_int cc.c_events /. cc.c_wall_s
            else 0.0
          in
          if b_rate > 0.0 && c_rate < b_rate *. (1.0 -. tolerance) then
            notes :=
              Printf.sprintf "cell %s: events/s %.0f -> %.0f (%+.1f%%)"
                bc.c_label b_rate c_rate
                ((c_rate -. b_rate) /. b_rate *. 100.0)
              :: !notes)
    baseline.cells;
  List.iter
    (fun (cc : cell) ->
      if not (List.exists (fun bc -> bc.c_label = cc.c_label) baseline.cells)
      then regressions := Printf.sprintf "cell %s: new" cc.c_label :: !regressions)
    current.cells;
  (* When both sides carry a self-profile, report subsystem-share
     shifts: "events/s fell and the server slot's share doubled" is a
     lead, not just a number that moved. *)
  (match (baseline.p_profile, current.p_profile) with
  | Some bp, Some cp when bp.Profile.p_wall_s > 0.0 && cp.Profile.p_wall_s > 0.0
    ->
      List.iter
        (fun (bs : Profile.slot_stat) ->
          match
            List.find_opt
              (fun (cs : Profile.slot_stat) ->
                cs.Profile.ss_name = bs.Profile.ss_name)
              cp.Profile.p_slots
          with
          | None -> ()
          | Some cs ->
              let b_share = bs.Profile.ss_self_s /. bp.Profile.p_wall_s
              and c_share = cs.Profile.ss_self_s /. cp.Profile.p_wall_s in
              if abs_float (c_share -. b_share) > 0.05 then
                notes :=
                  Printf.sprintf "profile: %s share %.1f%% -> %.1f%%"
                    bs.Profile.ss_name (b_share *. 100.0) (c_share *. 100.0)
                  :: !notes)
        bp.Profile.p_slots
  | _ -> ());
  { regressions = List.rev !regressions; notes = List.rev !notes }
