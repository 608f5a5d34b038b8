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
(* Slot encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* Every constructor, with each field drawn from its whole range: ints
   across OCaml's int range, int32 xids, floats by bit pattern (NaN
   payloads, infinities, -0.0, subnormals) and strings of any bytes.  A
   small pool of strings recurs, so interning sees repeats, physically
   equal ones included. *)
let gen_event =
  let open QCheck.Gen in
  let i =
    frequency [ (4, int); (1, oneofl [ min_int; max_int; 0; -1; 1 ]) ]
  in
  let x =
    frequency
      [ (4, int32); (1, oneofl [ Int32.min_int; Int32.max_int; 0l; -1l ]) ]
  in
  let f =
    map Int64.float_of_bits
      (frequency
         [
           (4, int64);
           ( 1,
             oneofl
               [
                 Int64.bits_of_float Float.nan; 0x7FF0000000000001L;
                 0xFFF8000000000042L; Int64.bits_of_float Float.infinity;
                 Int64.bits_of_float Float.neg_infinity; Int64.min_int; 0L;
                 1L; 0x000FFFFFFFFFFFFFL; 0x8000000000000001L;
               ] );
         ])
  in
  let s =
    frequency
      [
        (2, oneofl [ ""; "cl0->bb0"; "drc"; "write" ]);
        (3, string_size ~gen:char (int_bound 12));
      ]
  in
  let reason =
    oneofl
      Trace.
        [
          Queue_full; Link_error; Sock_overflow; Link_down; Bad_checksum;
          Garbled;
        ]
  in
  oneof
    [
      (let+ xid = x and+ proc = i in Trace.Rpc_send { xid; proc });
      (let+ xid = x and+ proc = i and+ retry = i and+ rto = f in
       Trace.Rpc_retransmit { xid; proc; retry; rto });
      (let+ xid = x and+ proc = i and+ rtt = f in
       Trace.Rpc_reply { xid; proc; rtt });
      (let+ link = s and+ bytes = i and+ qlen = i in
       Trace.Pkt_enqueue { link; bytes; qlen });
      (let+ link = s and+ bytes = i and+ reason = reason in
       Trace.Pkt_drop { link; bytes; reason });
      (let+ link = s and+ bytes = i in Trace.Pkt_deliver { link; bytes });
      (let+ link = s and+ bytes = i and+ op = s in
       Trace.Pkt_mangle { link; bytes; op });
      (let+ src = i and+ ip_id = i in Trace.Frag_lost { src; ip_id });
      (let+ xid = x and+ proc = i and+ wait = f in
       Trace.Srv_queue { xid; proc; wait });
      (let+ xid = x and+ proc = i and+ service = f in
       Trace.Srv_service { xid; proc; service });
      map (fun cwnd -> Trace.Cwnd_update { cwnd }) f;
      map (fun rto -> Trace.Rto_update { rto }) f;
      map (fun cache -> Trace.Cache_hit { cache }) s;
      map (fun cache -> Trace.Cache_miss { cache }) s;
      map (fun label -> Trace.Run_mark { label }) s;
      return Trace.Srv_crash;
      return Trace.Srv_reboot;
      (let+ file = i and+ off = i and+ len = i and+ digest = i and+ mtime = f in
       Trace.Write_committed { file; off; len; digest; mtime });
      (let+ file = i and+ mode = s and+ holder = i and+ duration = f in
       Trace.Lease_grant { file; mode; holder; duration });
      (let+ file = i and+ holder = i and+ mtime = f in
       Trace.Cached_read { file; holder; mtime });
      (let+ op = s and+ soft = bool in Trace.Wl_error { op; soft });
      map (fun action -> Trace.Fault_inject { action }) s;
      (let+ file = i and+ off = i and+ len = i and+ digest = i and+ verf = i in
       Trace.Write_unstable { file; off; len; digest; verf });
      (let+ file = i and+ off = i and+ count = i and+ verf = i in
       Trace.Commit_ok { file; off; count; verf });
      (let+ file = i and+ expected = i and+ got = i in
       Trace.Verf_mismatch { file; expected; got });
    ]
  >>= fun ev ->
  let+ time = f and+ node = i in
  { Trace.time; node; ev }

(* Lengths below, at and past each ring capacity in [round_trip_caps]. *)
let gen_records =
  let open QCheck.Gen in
  list_size
    (frequency
       [
         (1, int_bound 20);
         (1, int_range 4_090 4_200);
         (1, int_range 9_990 10_300);
       ])
    gen_event

let round_trip_caps = [ 1; 7; 4_095; 4_096; 4_097; 10_000 ]

(* Marshal writes every float as its bits, so equal bytes mean equal
   records field for field, floats compared by bits. *)
let same_records a b =
  List.length a = List.length b
  && List.for_all2
       (fun r s ->
         Marshal.to_string r [ Marshal.No_sharing ]
         = Marshal.to_string s [ Marshal.No_sharing ])
       a b

let newest n l =
  let skip = List.length l - n in
  List.filteri (fun i _ -> i >= skip) l

let filled cap records =
  let tr = Trace.create ~capacity:cap () in
  List.iter
    (fun r -> Trace.record tr ~time:r.Trace.time ~node:r.Trace.node r.Trace.ev)
    records;
  tr

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The export built from a list: the header, then one line per record. *)
let reference_export ~total records =
  let held = List.length records in
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       (Renofs_json.Json.to_string Compact
          (Obj
             [
               ("schema", Str "renofs-trace/1");
               ("held", Num (float_of_int held));
               ("total", Num (float_of_int total));
               ("overwritten", Num (float_of_int (total - held)));
             ])
       :: List.map Trace.line_of_record records))

let prop_round_trip =
  QCheck.Test.make ~name:"records round-trip through the slots" ~count:25
    (QCheck.make
       ~print:(fun rs -> Printf.sprintf "%d records" (List.length rs))
       gen_records)
    (fun records ->
      let n = List.length records in
      let path = Filename.temp_file "renofs_slots" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.for_all
            (fun cap ->
              let tr = filled cap records in
              let held = min n cap in
              let kept = newest held records in
              let last = held / 3 in
              Trace.export_jsonl ~last tr path;
              let into = filled 4_097 (newest 3 records) in
              Trace.merge ~into tr;
              same_records (Trace.to_list tr) kept
              && Trace.length tr = held
              && Trace.total tr = n
              && Trace.dropped tr = n - held
              && read_file path
                 = reference_export ~total:n (newest last (Trace.to_list tr))
              && same_records (Trace.to_list into)
                   (newest 4_097 (newest 3 records @ kept))
              && Trace.total into = min n 3 + n)
            round_trip_caps))

(* Recording copies the event into its slot and keeps nothing: once
   every chunk exists, a record allocates nothing, so no minor
   collection runs and nothing is promoted.  The mix is lan-write's. *)
let test_record_allocation () =
  let cap = 8_192 in
  let tr = Trace.create ~capacity:cap () in
  let evs =
    [|
      Trace.Pkt_enqueue { link = "cl3->bb0"; bytes = 8_328; qlen = 2 };
      Trace.Pkt_deliver { link = "bb0->srv1"; bytes = 8_328 };
      Trace.Rpc_send { xid = 4_242l; proc = 8 };
      Trace.Srv_service { xid = 4_242l; proc = 8; service = 0.0021 };
    |]
  in
  let time = 12.5 in
  for k = 0 to cap - 1 do
    Trace.record tr ~time ~node:3 evs.(k land 3)
  done;
  Gc.minor ();
  let n = 200_000 in
  (* [Gc.minor_words] counts the minor heap in use; [Gc.quick_stat]'s
     minor count may lag until the next minor collection. *)
  let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
  for k = 0 to n - 1 do
    Trace.record tr ~time ~node:3 evs.(k land 3)
  done;
  let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
  let per = (m1 -. m0) /. float_of_int n in
  if per >= 0.1 then Alcotest.failf "%.3f minor words per record" per;
  Alcotest.(check (float 0.0)) "nothing promoted" 0.0 (p1 -. p0)

(* A sink allocates chunks as it fills, none up front. *)
let test_create_allocation () =
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let a0 = allocated () in
  let tr = Trace.create ~capacity:(1 lsl 21) () in
  let words = allocated () -. a0 in
  if words >= 1024.0 then Alcotest.failf "create allocated %.0f words" words;
  Alcotest.(check int) "empty" 0 (Trace.length tr)

(* A merged ring that wrapped leaves its overwrite count behind: the
   destination counts the lost records as dropped, and its export
   header says so. *)
let test_merge_keeps_overwrites () =
  let src = Trace.create ~capacity:8 () in
  for i = 0 to 19 do
    Trace.record src ~time:(float_of_int i) ~node:1
      (Trace.Cwnd_update { cwnd = float_of_int i })
  done;
  let into = Trace.create () in
  Trace.merge ~into src;
  Alcotest.(check int) "total" 20 (Trace.total into);
  Alcotest.(check int) "dropped" 12 (Trace.dropped into);
  Alcotest.(check (list (float 1e-9)))
    "survivors merged" [ 12.0; 13.0; 14.0; 15.0; 16.0; 17.0; 18.0; 19.0 ]
    (List.map cwnd_at (Trace.to_list into));
  let path = Filename.temp_file "renofs_merge" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_jsonl into path;
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string)
        "export header"
        {|{"schema":"renofs-trace/1","held":8,"total":20,"overwritten":12}|}
        header);
  (* A disabled destination takes neither the records nor the count. *)
  let off = Trace.create () in
  Trace.set_enabled off false;
  Trace.merge ~into:off src;
  Alcotest.(check int) "gated merge" 0 (Trace.total off)

(* The hook sees exactly the records offered while the sink is enabled,
   whether or not a ring keeps them; a sink without a ring counts every
   record as dropped. *)
let test_hook_and_ringless_sink () =
  let seen = ref [] in
  let hooked cap =
    let tr = Trace.create ~capacity:cap () in
    Trace.set_hook tr (Some (fun r -> seen := cwnd_at r :: !seen));
    tr
  in
  let feed tr =
    seen := [];
    for i = 0 to 9 do
      Trace.set_enabled tr (i mod 3 <> 1);
      Trace.record tr ~time:(float_of_int i) ~node:1
        (Trace.Cwnd_update { cwnd = float_of_int i })
    done;
    Trace.set_enabled tr true;
    List.rev !seen
  in
  let enabled = [ 0.0; 2.0; 3.0; 5.0; 6.0; 8.0; 9.0 ] in
  let ringed = hooked 2 in
  Alcotest.(check (list (float 1e-9))) "hook on a ring" enabled (feed ringed);
  Alcotest.(check int) "ring keeps 2" 2 (Trace.length ringed);
  let ringless = hooked 0 in
  Alcotest.(check (list (float 1e-9))) "hook without a ring" enabled
    (feed ringless);
  Alcotest.(check int) "capacity" 0 (Trace.capacity ringless);
  Alcotest.(check int) "total" 7 (Trace.total ringless);
  Alcotest.(check int) "all dropped" 7 (Trace.dropped ringless);
  Alcotest.(check int) "nothing held" 0 (List.length (Trace.to_list ringless));
  Trace.set_hook ringless None;
  Alcotest.(check (list (float 1e-9))) "detached" [] (feed ringless);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Trace.create: negative capacity") (fun () ->
      ignore (Trace.create ~capacity:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Span joining                                                       *)
(* ------------------------------------------------------------------ *)

let mk time ev = { Trace.time; node = 0; ev }

(* The spans one join over [records] completes, in order. *)
let spans records =
  let out = ref [] in
  let j = Trace.Report.join (fun sp -> out := sp :: !out) in
  List.iter (Trace.Report.observe j) records;
  List.rev !out

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
  match spans records with
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
  match spans records with
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
    { (mk 7.0 Trace.Srv_crash) with Trace.node = -1 };
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
    [
      "";
      "{}";
      "{\"t\":1.0}";
      "{\"t\":1.0,\"node\":0,\"ev\":\"nope\"}";
      "{\"t\":1.0,\"node\":1.5,\"ev\":\"srv_crash\"}";
    ]

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
    (spans (Trace.to_list tr));
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
          Alcotest.test_case "record allocates nothing" `Quick
            test_record_allocation;
          Alcotest.test_case "create allocates no ring" `Quick
            test_create_allocation;
          Alcotest.test_case "merge keeps overwrites" `Quick
            test_merge_keeps_overwrites;
          Alcotest.test_case "hook and ringless sink" `Quick
            test_hook_and_ringless_sink;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_round_trip ] );
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
