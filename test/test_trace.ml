open Renofs_trace
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Net = Renofs_net
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module E = Renofs_workload.Experiments

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                        *)
(* ------------------------------------------------------------------ *)

let cwnd_at i =
  match i.Trace.ev with
  | Trace.Cwnd_update { cwnd } -> cwnd
  | _ -> Alcotest.fail "expected Cwnd_update"

let test_ring_basic () =
  let tr = Trace.create ~capacity:64 () in
  for i = 0 to 4 do
    Trace.record tr ~time:(float_of_int i) ~node:1
      (Trace.Cwnd_update { cwnd = float_of_int i })
  done;
  Alcotest.(check int) "length" 5 (Trace.length tr);
  Alcotest.(check int) "total" 5 (Trace.total tr);
  Alcotest.(check int) "dropped" 0 (Trace.dropped tr);
  Alcotest.(check (list (float 1e-9)))
    "order" [ 0.0; 1.0; 2.0; 3.0; 4.0 ]
    (List.map cwnd_at (Trace.to_list tr))

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:8 () in
  for i = 0 to 19 do
    Trace.record tr ~time:(float_of_int i) ~node:1
      (Trace.Cwnd_update { cwnd = float_of_int i })
  done;
  Alcotest.(check int) "length capped" 8 (Trace.length tr);
  Alcotest.(check int) "total counts all" 20 (Trace.total tr);
  Alcotest.(check int) "dropped" 12 (Trace.dropped tr);
  (* Survivors are the newest 8, oldest first. *)
  Alcotest.(check (list (float 1e-9)))
    "survivors" [ 12.0; 13.0; 14.0; 15.0; 16.0; 17.0; 18.0; 19.0 ]
    (List.map cwnd_at (Trace.to_list tr))

let test_enabled_gate () =
  let tr = Trace.create ~capacity:8 () in
  Trace.record tr ~time:0.0 ~node:0 (Trace.Cwnd_update { cwnd = 1.0 });
  Trace.set_enabled tr false;
  Trace.record tr ~time:1.0 ~node:0 (Trace.Cwnd_update { cwnd = 2.0 });
  Alcotest.(check bool) "reports disabled" false (Trace.enabled tr);
  Trace.set_enabled tr true;
  Trace.record tr ~time:2.0 ~node:0 (Trace.Cwnd_update { cwnd = 3.0 });
  Alcotest.(check int) "gated record not counted" 2 (Trace.total tr);
  Alcotest.(check (list (float 1e-9)))
    "gated record absent" [ 1.0; 3.0 ]
    (List.map cwnd_at (Trace.to_list tr))

(* ------------------------------------------------------------------ *)
(* Span joining                                                       *)
(* ------------------------------------------------------------------ *)

let mk time ev = { Trace.time; node = 0; ev }

let test_xid_join () =
  let records =
    [
      mk 0.0 (Trace.Run_mark { label = "runA" });
      mk 1.0 (Trace.Rpc_send { xid = 1l; proc = 4 });
      mk 1.1 (Trace.Rpc_send { xid = 2l; proc = 6 });
      mk 1.05 (Trace.Srv_queue { xid = 1l; proc = 4; wait = 0.01 });
      mk 1.06 (Trace.Srv_service { xid = 1l; proc = 4; service = 0.002 });
      mk 1.08 (Trace.Rpc_reply { xid = 1l; proc = 4; rtt = 0.08 });
      mk 1.3 (Trace.Rpc_retransmit { xid = 2l; proc = 6; retry = 1; rto = 0.2 });
      mk 1.35 (Trace.Srv_queue { xid = 2l; proc = 6; wait = 0.005 });
      mk 1.36 (Trace.Srv_service { xid = 2l; proc = 6; service = 0.01 });
      mk 1.5 (Trace.Rpc_reply { xid = 2l; proc = 6; rtt = 0.2 });
      (* Unanswered send, cleared at the next mark. *)
      mk 2.0 (Trace.Rpc_send { xid = 3l; proc = 4 });
      mk 0.0 (Trace.Run_mark { label = "runB" });
      (* xids restart per run: xid 1 again, in a new segment. *)
      mk 0.5 (Trace.Rpc_send { xid = 1l; proc = 1 });
      mk 0.6 (Trace.Rpc_reply { xid = 1l; proc = 1; rtt = 0.1 });
    ]
  in
  match Trace.Report.spans records with
  | [ s1; s2; s3 ] ->
      let feq = Alcotest.(check (float 1e-9)) in
      Alcotest.(check string) "label A" "runA" s1.Trace.Report.sp_label;
      Alcotest.(check int) "proc" 4 s1.Trace.Report.sp_proc;
      feq "no-retransmit span has no rtx wait" 0.0 s1.Trace.Report.sp_rtx_wait;
      feq "srv wait" 0.01 s1.Trace.Report.sp_srv_wait;
      feq "srv service" 0.002 s1.Trace.Report.sp_srv_service;
      feq "total" 0.08 s1.Trace.Report.sp_total;
      feq "wire = total - components" 0.068 (Trace.Report.wire_time s1);
      Alcotest.(check int) "retrans counted" 1 s2.Trace.Report.sp_retrans;
      feq "rtx wait = last rtx - first send" 0.2 s2.Trace.Report.sp_rtx_wait;
      feq "total spans the reply" 0.4 s2.Trace.Report.sp_total;
      Alcotest.(check string) "label B" "runB" s3.Trace.Report.sp_label;
      feq "reused xid joins within its segment only" 0.1 s3.Trace.Report.sp_total
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_rtx_wait_cap () =
  (* A retransmission record landing after the reply (possible in a
     hand-edited or merged trace) must not produce wait > total. *)
  let records =
    [
      mk 1.0 (Trace.Rpc_send { xid = 1l; proc = 4 });
      mk 1.4 (Trace.Rpc_retransmit { xid = 1l; proc = 4; retry = 1; rto = 0.4 });
      mk 1.5 (Trace.Rpc_reply { xid = 1l; proc = 4; rtt = 0.1 });
    ]
  in
  match Trace.Report.spans records with
  | [ s ] ->
      Alcotest.(check (float 1e-9)) "wait within total" 0.4 s.Trace.Report.sp_rtx_wait;
      Alcotest.(check bool) "wire nonnegative" true (Trace.Report.wire_time s >= 0.0)
  | _ -> Alcotest.fail "expected one span"

let test_incomplete_accounting () =
  let tr = Trace.create () in
  Trace.mark tr ~time:0.0 "x";
  Trace.record tr ~time:1.0 ~node:0 (Trace.Rpc_send { xid = 7l; proc = 4 });
  Trace.record tr ~time:2.0 ~node:0 (Trace.Rpc_send { xid = 8l; proc = 4 });
  Trace.record tr ~time:2.5 ~node:0 (Trace.Rpc_reply { xid = 8l; proc = 4; rtt = 0.5 });
  let r = Trace.Report.build tr in
  Alcotest.(check int) "complete" 1 r.Trace.Report.complete;
  Alcotest.(check int) "incomplete" 1 r.Trace.Report.incomplete;
  Alcotest.(check int) "events" 4 r.Trace.Report.events

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let every_event =
  [
    mk 0.0 (Trace.Run_mark { label = "a \"quoted\" label\n" });
    mk 1.25 (Trace.Rpc_send { xid = 17l; proc = 4 });
    mk 1.5 (Trace.Rpc_retransmit { xid = 17l; proc = 4; retry = 2; rto = 0.4375 });
    mk 1.625 (Trace.Rpc_reply { xid = 17l; proc = 4; rtt = 0.375 });
    mk 2.0 (Trace.Pkt_enqueue { link = "eth0->r1"; bytes = 1500; qlen = 3 });
    mk 2.1 (Trace.Pkt_drop { link = "serial56k"; bytes = 576; reason = Trace.Queue_full });
    mk 2.2 (Trace.Pkt_drop { link = "ring"; bytes = 576; reason = Trace.Link_error });
    mk 2.3 (Trace.Pkt_drop { link = "udp:2049"; bytes = 8192; reason = Trace.Sock_overflow });
    mk 2.4 (Trace.Pkt_deliver { link = "eth0->r1"; bytes = 1500 });
    mk 3.0 (Trace.Frag_lost { src = 2; ip_id = 99 });
    mk 4.0 (Trace.Srv_queue { xid = 17l; proc = 6; wait = 0.0123 });
    mk 4.5 (Trace.Srv_service { xid = 17l; proc = 6; service = 0.00456 });
    mk 5.0 (Trace.Cwnd_update { cwnd = 3.75 });
    mk 5.5 (Trace.Rto_update { rto = 0.2 });
    mk 6.0 (Trace.Cache_hit { cache = "drc" });
    mk 6.5 (Trace.Cache_miss { cache = "drc" });
  ]

let test_jsonl_line_roundtrip () =
  List.iter
    (fun r ->
      let line = Trace.line_of_record r in
      let back = Trace.record_of_line line in
      if back <> r then Alcotest.failf "did not round-trip: %s" line)
    every_event

let test_jsonl_float_precision () =
  (* Times that need full precision must survive the text round trip. *)
  List.iter
    (fun time ->
      let r = mk time (Trace.Rto_update { rto = time }) in
      let back = Trace.record_of_line (Trace.line_of_record r) in
      Alcotest.(check (float 0.0)) "exact" time back.Trace.time)
    [ 0.1 +. 0.2; 1.0 /. 3.0; 123456.789012345; 1e-9; 0.0 ]

let test_jsonl_file_roundtrip () =
  let tr = Trace.create () in
  List.iter (fun r -> Trace.record tr ~time:r.Trace.time ~node:r.Trace.node r.Trace.ev)
    every_event;
  let path = Filename.temp_file "renofs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_jsonl tr path;
      let back = Trace.import_jsonl path in
      Alcotest.(check int) "count" (Trace.length tr) (List.length back);
      if back <> Trace.to_list tr then Alcotest.fail "file round trip changed records")

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      match Trace.record_of_line line with
      | _ -> Alcotest.failf "accepted %S" line
      | exception Failure _ -> ())
    [ ""; "{}"; "{\"t\":1.0}"; "{\"t\":1.0,\"node\":0,\"ev\":\"nope\"}" ]

(* ------------------------------------------------------------------ *)
(* A live traced run                                                  *)
(* ------------------------------------------------------------------ *)

let quiet =
  { Net.Topology.default_params with cross_traffic = false; link_loss = 0.0 }

let traced_world () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim { Net.Topology.default_spec with Net.Topology.params = quiet } in
  let server_udp = Udp.install topo.Net.Topology.server in
  let server_tcp = Tcp.install topo.Net.Topology.server in
  let server =
    Nfs_server.create topo.Net.Topology.server ~udp:server_udp ~tcp:server_tcp ()
  in
  Nfs_server.start server;
  let tr = Trace.create () in
  List.iter (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr }) topo.Net.Topology.all;
  Trace.mark tr ~time:(Sim.now sim) "live";
  let client_udp = Udp.install topo.Net.Topology.client in
  let client_tcp = Tcp.install topo.Net.Topology.client in
  (sim, topo, server, client_udp, client_tcp, tr)

let run_traced body =
  let sim, topo, server, udp, tcp, tr = traced_world () in
  let done_ = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp ~tcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      in
      body m;
      done_ := true);
  Sim.run ~until:3600.0 sim;
  Alcotest.(check bool) "workload finished" true !done_;
  tr

let count_ev p tr =
  List.fold_left (fun acc r -> if p r.Trace.ev then acc + 1 else acc) 0
    (Trace.to_list tr)

let test_live_trace () =
  let tr =
    run_traced (fun m ->
        let fd = Nfs_client.create m "traced.txt" in
        Nfs_client.write m fd ~off:0 (Bytes.make 20000 'x');
        Nfs_client.close m fd;
        let fd2 = Nfs_client.open_ m "traced.txt" in
        ignore (Nfs_client.read m fd2 ~off:0 ~len:20000);
        ignore (Nfs_client.stat m "traced.txt"))
  in
  (* Times never go backwards within a segment (one world here). *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone sim time" true
          (a.Trace.time <= b.Trace.time);
        monotone rest
    | _ -> ()
  in
  monotone (Trace.to_list tr);
  let sends = count_ev (function Trace.Rpc_send _ -> true | _ -> false) tr in
  let replies = count_ev (function Trace.Rpc_reply _ -> true | _ -> false) tr in
  let services = count_ev (function Trace.Srv_service _ -> true | _ -> false) tr in
  let queues = count_ev (function Trace.Srv_queue _ -> true | _ -> false) tr in
  let misses = count_ev (function Trace.Cache_miss _ -> true | _ -> false) tr in
  Alcotest.(check bool) "some RPCs traced" true (sends > 5);
  Alcotest.(check bool) "replies do not exceed sends" true (replies <= sends);
  Alcotest.(check bool) "server work observed" true (services > 0 && queues > 0);
  (* create/write are non-idempotent, so the DRC is consulted. *)
  Alcotest.(check bool) "DRC misses observed" true (misses > 0);
  let report = Trace.Report.build tr in
  Alcotest.(check int) "all replies joined" replies report.Trace.Report.complete;
  List.iter
    (fun sp ->
      Alcotest.(check bool) "wire time nonnegative" true
        (Trace.Report.wire_time sp >= 0.0);
      Alcotest.(check string) "segment label" "live" sp.Trace.Report.sp_label)
    (Trace.Report.spans (Trace.to_list tr));
  (* Exported JSONL is line-per-record, parseable, and complete. *)
  let path = Filename.temp_file "renofs_live" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_jsonl tr path;
      let back = Trace.import_jsonl path in
      Alcotest.(check int) "every event exported" (Trace.length tr)
        (List.length back);
      if back <> Trace.to_list tr then Alcotest.fail "export/import drift")

let test_untraced_run_records_nothing () =
  let sim, topo, server, udp, tcp, tr = traced_world () in
  (* Detach: the same world must record nothing once the sink is gone. *)
  List.iter (fun n -> Net.Node.attach n Net.Node.detached) topo.Net.Topology.all;
  let before = Trace.total tr in
  let done_ = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp ~tcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      in
      ignore (Nfs_client.stat m ".");
      done_ := true);
  Sim.run ~until:3600.0 sim;
  Alcotest.(check bool) "workload finished" true !done_;
  Alcotest.(check int) "no events after detach" before (Trace.total tr)

let test_experiment_with_trace () =
  (* The nfsbench --trace path: run a real experiment under a sink and
     round-trip the whole event stream through JSONL. *)
  let tr = Trace.create () in
  let table =
    E.render (E.run_spec ~jobs:1 ~trace:tr ((List.assoc "table5" E.specs) E.Quick))
  in
  Alcotest.(check bool) "experiment produced rows" true (List.length table.E.rows > 0);
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  let report = Trace.Report.build tr in
  Alcotest.(check bool) "spans joined" true (report.Trace.Report.complete > 0);
  let path = Filename.temp_file "renofs_exp" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_jsonl tr path;
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> close_in ic);
      (* one line per held event, plus the schema metadata header *)
      Alcotest.(check int) "one line per held event" (Trace.length tr + 1) !lines;
      Alcotest.(check int) "all lines parse, header skipped"
        (Trace.length tr)
        (List.length (Trace.import_jsonl path)))

(* Trace JSONL files carry these digests, so their values are pinned. *)
let test_digest_known_answers () =
  Alcotest.(check int) "empty input is the unfolded basis" 0x811c9dc5
    (Trace.digest Bytes.empty);
  Alcotest.(check int) "\"a\"" 604776748 (Trace.digest (Bytes.of_string "a"));
  Alcotest.(check int) "8 KiB pattern" 1028914629
    (Trace.digest (Bytes.init 8192 (fun i -> Char.chr (i land 0xff))))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "enable gate" `Quick test_enabled_gate;
        ] );
      ( "report",
        [
          Alcotest.test_case "xid join" `Quick test_xid_join;
          Alcotest.test_case "rtx wait cap" `Quick test_rtx_wait_cap;
          Alcotest.test_case "incomplete accounting" `Quick test_incomplete_accounting;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "line roundtrip" `Quick test_jsonl_line_roundtrip;
          Alcotest.test_case "float precision" `Quick test_jsonl_float_precision;
          Alcotest.test_case "file roundtrip" `Quick test_jsonl_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "digest known answers" `Quick test_digest_known_answers;
        ] );
      ( "live",
        [
          Alcotest.test_case "traced run" `Quick test_live_trace;
          Alcotest.test_case "detached run" `Quick test_untraced_run_records_nothing;
          Alcotest.test_case "experiment with_trace" `Quick test_experiment_with_trace;
        ] );
    ]
