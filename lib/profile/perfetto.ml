module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json

let rpc_pid = 1
let srv_pid = 2
let prof_pid = 3

type state = {
  mutable events_rev : Json.json list;
  mutable count : int;
  (* run-mark label -> tid under [rpc_pid], in order of appearance *)
  labels : (string, int) Hashtbl.t;
  mutable next_tid : int;
}

let int n = Json.Num (float_of_int n)

(* Timestamps and durations keep the nanosecond rounding of [%.3f]
   microseconds. *)
let usec v = Json.Num (float_of_string (Printf.sprintf "%.3f" v))

let meta st ~pid ?tid ~name value =
  st.events_rev <-
    Json.Obj
      ([ ("ph", Json.Str "M"); ("pid", int pid) ]
      @ Option.fold ~none:[] ~some:(fun t -> [ ("tid", int t) ]) tid
      @ [ ("name", Str name); ("args", Obj [ ("name", Str value) ]) ])
    :: st.events_rev

let event st fields =
  st.events_rev <- Json.Obj fields :: st.events_rev;
  st.count <- st.count + 1

let tid_of_label st label =
  match Hashtbl.find_opt st.labels label with
  | Some tid -> tid
  | None ->
      let tid = st.next_tid in
      st.next_tid <- tid + 1;
      Hashtbl.add st.labels label tid;
      meta st ~pid:rpc_pid ~tid ~name:"thread_name"
        (if label = "" then "(unlabelled)" else label);
      tid

let us t = t *. 1e6

(* Async ids must not collide across labels (xid spaces reset at run
   marks), so fold the label's tid into the id above bit 32. *)
let span_id tid xid = (tid lsl 32) lor (Int32.to_int xid land 0xFFFFFFFF)

let instant st ~pid ~tid ~ts ~cat ~name =
  event st
    [
      ("ph", Str "i"); ("pid", int pid); ("tid", int tid); ("ts", usec ts);
      ("s", Str "t"); ("cat", Str cat); ("name", Str name);
    ]

let slice st ~pid ~tid ~ts ~dur ~cat ~name =
  event st
    [
      ("ph", Str "X"); ("pid", int pid); ("tid", int tid); ("ts", usec ts);
      ("dur", usec dur); ("cat", Str cat); ("name", Str name);
    ]

let export ~path ?profile records =
  let st = { events_rev = []; count = 0; labels = Hashtbl.create 8; next_tid = 1 } in
  meta st ~pid:rpc_pid ~name:"process_name" "rpc spans";
  meta st ~pid:srv_pid ~name:"process_name" "servers";
  (* Completed RPCs as async begin/end pairs, one thread per label. *)
  let spans =
    Trace.Report.join (fun (sp : Trace.Report.span) ->
      let tid = tid_of_label st sp.Trace.Report.sp_label in
      let id = span_id tid sp.Trace.Report.sp_xid in
      let name = Trace.proc_name sp.Trace.Report.sp_proc in
      let t0 = us sp.Trace.Report.sp_start in
      let t1 = us (sp.Trace.Report.sp_start +. sp.Trace.Report.sp_total) in
      let half ph ts =
        event st
          [
            ("ph", Str ph); ("pid", int rpc_pid); ("tid", int tid);
            ("ts", usec ts); ("cat", Str "rpc"); ("id", int id); ("name", Str name);
          ]
      in
      half "b" t0;
      half "e" t1)
  in
  List.iter (Trace.Report.observe spans) records;
  (* Server-side slices and notable instants from the raw records.  The
     current run-mark label keys the rpc-side thread for retransmits. *)
  let cur_label = ref "" in
  let srv_tids = Hashtbl.create 8 in
  let srv_tid node =
    if not (Hashtbl.mem srv_tids node) then begin
      Hashtbl.add srv_tids node ();
      meta st ~pid:srv_pid ~tid:node ~name:"thread_name"
        (Printf.sprintf "node%d" node)
    end;
    node
  in
  List.iter
    (fun (r : Trace.record_) ->
      match r.Trace.ev with
      | Trace.Run_mark { label } -> cur_label := label
      | Trace.Srv_service { proc; service; _ } ->
          slice st ~pid:srv_pid ~tid:(srv_tid r.Trace.node)
            ~ts:(us (r.Trace.time -. service))
            ~dur:(us service) ~cat:"service" ~name:(Trace.proc_name proc)
      | Trace.Srv_queue { proc; wait; _ } ->
          if wait > 0.0 then
            slice st ~pid:srv_pid ~tid:(srv_tid r.Trace.node)
              ~ts:(us (r.Trace.time -. wait))
              ~dur:(us wait) ~cat:"queue"
              ~name:("queue " ^ Trace.proc_name proc)
      | Trace.Rpc_retransmit { proc; retry; _ } ->
          instant st ~pid:rpc_pid
            ~tid:(tid_of_label st !cur_label)
            ~ts:(us r.Trace.time) ~cat:"retransmit"
            ~name:(Printf.sprintf "retransmit %s #%d" (Trace.proc_name proc) retry)
      | Trace.Pkt_drop { link; _ } ->
          instant st ~pid:srv_pid
            ~tid:(srv_tid (max r.Trace.node 0))
            ~ts:(us r.Trace.time) ~cat:"drop" ~name:("drop " ^ link)
      | Trace.Srv_crash ->
          instant st ~pid:srv_pid ~tid:(srv_tid r.Trace.node)
            ~ts:(us r.Trace.time) ~cat:"fault" ~name:"crash"
      | Trace.Srv_reboot ->
          instant st ~pid:srv_pid ~tid:(srv_tid r.Trace.node)
            ~ts:(us r.Trace.time) ~cat:"fault" ~name:"reboot"
      | _ -> ())
    records;
  (* Profiler summary: each subsystem's accumulated self-time as one
     slice, laid end to end from t=0 — a proportions bar, not a
     timeline. *)
  (match profile with
  | None -> ()
  | Some s ->
      meta st ~pid:prof_pid ~name:"process_name" "profiler";
      meta st ~pid:prof_pid ~tid:1 ~name:"thread_name" "self-time";
      let cursor = ref 0.0 in
      List.iter
        (fun (ss : Profile.slot_stat) ->
          if ss.Profile.ss_self_s > 0.0 then begin
            slice st ~pid:prof_pid ~tid:1 ~ts:!cursor
              ~dur:(us ss.Profile.ss_self_s)
              ~cat:"profile" ~name:ss.Profile.ss_name;
            cursor := !cursor +. us ss.Profile.ss_self_s
          end)
        s.Profile.p_slots);
  Json.write_file path
    (Obj
       [
         ("displayTimeUnit", Str "ms");
         ("traceEvents", Arr (List.rev st.events_rev));
       ]);
  st.count
