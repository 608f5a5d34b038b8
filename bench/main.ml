(* The benchmark harness.

   Two parts:

   1. Regenerate every table and figure from the paper and print it —
      the rows/series a reader would compare against the original.
      Scale defaults to Quick; set RENOFS_BENCH_SCALE=full for the long
      sweeps recorded in EXPERIMENTS.md.  RENOFS_BENCH_JOBS=N runs the
      experiment cells across N domains (default: recommended domain
      count); the output is identical either way.

   2. A Bechamel suite with one Test.make per paper artifact (how much
      wall time one Quick regeneration costs) plus microbenchmarks of
      the substrate hot paths (XDR encode, checksum, data digest,
      fragmentation, event loop, file-content fill, buffer-cache
      eviction, trace recording and decoding).  The per-byte kernels
      run over 8192 bytes, so ns/byte is the printed ns/run over 8192;
      the content fill runs over 16384.  sim-10k-events runs 10,000
      events per run and sim-mixed-2k one, so their ns per event are
      ns/run over 10,000 and ns/run.  trace-record records one event
      per run and trace-to-list-64k decodes 65,536, so their ns per
      record are ns/run and ns/run over 65,536.

     dune exec bench/main.exe
     dune exec bench/main.exe -- micro    # the microbenchmarks alone *)

open Bechamel
open Toolkit
module E = Renofs_workload.Experiments
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Packet = Renofs_net.Packet
module Sim = Renofs_engine.Sim
module Cpu = Renofs_engine.Cpu
module Rng = Renofs_engine.Rng
module Trace = Renofs_trace.Trace
module Fileset = Renofs_workload.Fileset
module Bcache = Renofs_vfs.Bcache

let scale =
  match Sys.getenv_opt "RENOFS_BENCH_SCALE" with
  | Some ("full" | "FULL") -> E.Full
  | _ -> E.Quick

let jobs =
  match Option.bind (Sys.getenv_opt "RENOFS_BENCH_JOBS") int_of_string_opt with
  | Some j when j >= 1 ->
      let recommended = Renofs_workload.Sweep.default_jobs () in
      if j > recommended then
        Format.eprintf
          "bench: RENOFS_BENCH_JOBS=%d exceeds this machine's %d recommended \
           domains; running oversubscribed@."
          j recommended;
      j
  | _ -> Renofs_workload.Sweep.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate every artifact                                   *)
(* ------------------------------------------------------------------ *)

let regenerate () =
  Format.printf "=== Regenerating all paper artifacts (%s scale, %d jobs) ===@.@."
    (match scale with E.Quick -> "quick" | E.Full -> "full")
    jobs;
  let t0 = Unix.gettimeofday () in
  (* One pooled sweep across every experiment's cells, so domains stay
     busy even while the short experiments drain. *)
  let results = E.run_specs ~jobs (List.map (fun (_, mk) -> mk scale) E.specs) in
  List.iter
    (fun r ->
      let table = E.render r in
      E.print_table Format.std_formatter table;
      match Renofs_workload.Ascii_plot.render_table table with
      | Some chart
        when String.length table.E.id >= 5 && String.sub table.E.id 0 5 = "graph"
        ->
          Format.printf "%s@." chart
      | _ -> ())
    results;
  Format.printf "(all %d artifacts regenerated in %.1fs wall)@.@."
    (List.length results)
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel                                                    *)
(* ------------------------------------------------------------------ *)

let experiment_tests =
  (* One Test.make per table/figure: cost of a serial Quick regeneration. *)
  List.map
    (fun (id, mk) ->
      Test.make ~name:id
        (Staged.stage (fun () ->
             ignore (E.render (E.run_spec ~jobs:1 (mk E.Quick))))))
    E.specs

(* lan-write's trace mix, each event built fresh as the hooks build it:
   a packet enqueued and delivered on one of four links (each link holds
   its name as one string), an RPC sent, and its service time. *)
let links = Array.init 4 (Printf.sprintf "cl%d->bb0")

let trace_mix tr k =
  let time = float_of_int k *. 1e-4 and xid = Int32.of_int (k lsr 2) in
  let link = links.((k lsr 2) land 3) in
  Trace.record tr ~time ~node:3
    (match k land 3 with
    | 0 -> Pkt_enqueue { link; bytes = 8_328; qlen = k land 7 }
    | 1 -> Pkt_deliver { link; bytes = 8_328 }
    | 2 -> Rpc_send { xid; proc = 8 }
    | _ -> Srv_service { xid; proc = 8; service = 0.0021 })

let micro_tests =
  let payload = Bytes.create 8192 in
  [
    Test.make ~name:"mbuf-chain-8K"
      (Staged.stage (fun () -> ignore (Mbuf.of_bytes payload)));
    Test.make ~name:"checksum-8K"
      (let chain = Mbuf.of_bytes payload in
       Staged.stage (fun () -> ignore (Mbuf.checksum chain)));
    Test.make ~name:"checksum-8K-pooled-split"
      (* Pooled storage, a small mbuf ahead of the clusters, and a cut at
         an odd offset rejoined: the straddling cluster becomes two views
         that end and start at odd offsets, so the odd byte carries
         across an mbuf boundary and the wide loads run unaligned. *)
      (let pool = Mbuf.Pool.create () in
       Mbuf.release ~pool (Mbuf.of_bytes ~pool payload);
       let chain = Mbuf.of_bytes ~pool (Bytes.sub payload 0 40) in
       Mbuf.append_chain chain (Mbuf.of_bytes ~pool (Bytes.sub payload 40 8152));
       let front, back = Mbuf.split chain 4097 in
       Mbuf.append_chain front back;
       Staged.stage (fun () -> ignore (Mbuf.checksum front)));
    Test.make ~name:"digest-8K"
      (Staged.stage (fun () -> ignore (Trace.digest payload)));
    Test.make ~name:"xdr-encode-write-rpc"
      (Staged.stage (fun () ->
           let enc = Xdr.Enc.create () in
           Xdr.Enc.int enc 8192;
           Xdr.Enc.string enc "somefile";
           Xdr.Enc.opaque enc payload;
           ignore (Xdr.Enc.chain enc)));
    Test.make ~name:"fragment-8K-ethernet"
      (Staged.stage (fun () ->
           let p =
             Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1
               ~dst_port:2049 ~ip_id:1 (Mbuf.of_bytes payload)
           in
           ignore (Packet.fragment p ~mtu:1500)));
    Test.make ~name:"fileset-content-16K"
      (Staged.stage (fun () ->
           ignore (Fileset.content ~path:"d00/nhfsstone_long_file_name_00_00_xxxxx" ~size:16384)));
    Test.make ~name:"bcache-insert-full-256"
      (* The cache starts full and every run inserts a new block, so each
         run pays one eviction. *)
      (let sim = Sim.create () in
       let bc =
         Bcache.create sim (Cpu.create sim ~mips:1.0) ~blocks:256
           ~search:Bcache.Vnode_chained ()
       in
       for blk = 0 to 255 do
         Bcache.insert bc ~ino:0 ~blk
       done;
       let ino = ref 0 in
       Staged.stage (fun () ->
           incr ino;
           Bcache.insert bc ~ino:!ino ~blk:0));
    Test.make ~name:"sim-10k-events"
      (Staged.stage (fun () ->
           let sim = Sim.create () in
           for i = 1 to 10_000 do
             Sim.at sim (float_of_int i) ignore
           done;
           Sim.run sim));
    Test.make ~name:"sim-mixed-2k"
      (* A fleet's queue: 2,000 far timers 50 ms-5 s ahead that re-arm
         when they fire, 16 packet-hop chains 10 us-1 ms ahead, and one
         hop in four cancelling and re-arming a far timer, as an RPC
         reply does its retransmit timer.  Unlike sim-10k-events the
         times are not increasing.  One run pops one event, so ns/run is
         ns per event. *)
      (let sim = Sim.create () and rng = Rng.create 11 in
       let unarmed = Sim.timer_after sim 0.0 ignore in
       Sim.cancel unarmed;
       let far = Array.make 2000 unarmed in
       let rec arm k =
         far.(k) <- Sim.timer_after sim (Rng.uniform rng 0.05 5.0) (fun () -> arm k)
       in
       let rec hop () =
         if Rng.int rng 4 = 0 then begin
           let k = Rng.int rng (Array.length far) in
           Sim.cancel far.(k);
           arm k
         end;
         Sim.after sim (Rng.uniform rng 10e-6 1e-3) hop
       in
       Array.iteri (fun k _ -> arm k) far;
       for _ = 1 to 16 do
         Sim.after sim (Rng.uniform rng 10e-6 1e-3) hop
       done;
       Staged.stage (fun () -> ignore (Sim.step sim)));
    Test.make ~name:"trace-record"
      (* The ring is big enough that each record outlives a minor
         collection, as lan-write's does. *)
      (let tr = Trace.create ~capacity:(1 lsl 18) () and k = ref 0 in
       Staged.stage (fun () ->
           incr k;
           trace_mix tr !k));
    Test.make ~name:"trace-to-list-64k"
      (let tr = Trace.create ~capacity:65_536 () in
       for k = 1 to 65_536 do
         trace_mix tr k
       done;
       Staged.stage (fun () -> ignore (Trace.to_list tr)));
  ]

let run_bechamel tests =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"renofs" tests)
  in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, result) ->
      let short =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "  %-28s %14.0f ns/run@." short est
      | _ -> Format.printf "  %-28s (no estimate)@." short)
    rows

let () =
  let micro_only = Array.length Sys.argv > 1 && Sys.argv.(1) = "micro" in
  if not micro_only then begin
    regenerate ();
    Format.printf "=== Bechamel: per-artifact regeneration cost ===@.";
    run_bechamel experiment_tests;
    Format.printf "@."
  end;
  Format.printf "=== Bechamel: substrate microbenchmarks ===@.";
  run_bechamel micro_tests
