open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Stats = Renofs_engine.Stats
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Trace = Renofs_trace.Trace
module Fileset = Renofs_workload.Fileset
module P = Nfs_proto

let quiet =
  { Net.Topology.default_params with cross_traffic = false; link_loss = 0.0 }

type world = {
  sim : Sim.t;
  topo : Net.Topology.t;
  server : Nfs_server.t;
  client_udp : Udp.stack;
  client_tcp : Tcp.stack;
}

let make_world ?(params = quiet) ?(profile = Nfs_server.reno_profile)
    ?(shape = Net.Topology.Lan) () =
  let sim = Sim.create () in
  let topo =
    Net.Topology.build sim { Net.Topology.shape; clients = 1; params }
  in
  let server_udp = Udp.install topo.Net.Topology.server in
  let server_tcp = Tcp.install topo.Net.Topology.server in
  let server =
    Nfs_server.create topo.Net.Topology.server ~profile ~udp:server_udp
      ~tcp:server_tcp ()
  in
  Nfs_server.start server;
  let client_udp = Udp.install topo.Net.Topology.client in
  let client_tcp = Tcp.install topo.Net.Topology.client in
  { sim; topo; server; client_udp; client_tcp }

let run_client w body =
  let result = ref None in
  Proc.spawn w.sim (fun () -> result := Some (body ()));
  Sim.run ~until:3600.0 w.sim;
  match !result with Some r -> r | None -> Alcotest.fail "client never finished"

let mount_in w opts =
  Nfs_client.mount ~udp:w.client_udp ~tcp:w.client_tcp
    ~server:(Net.Topology.server_id w.topo)
    ~root:(Nfs_server.root_fhandle w.server)
    opts

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 13) mod 256))

(* ------------------------------------------------------------------ *)
(* Basic file operations                                              *)
(* ------------------------------------------------------------------ *)

let test_create_write_read_roundtrip () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "hello.txt" in
      let body = pattern 20000 in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let fd2 = Nfs_client.open_ m "hello.txt" in
      let back = Nfs_client.read m fd2 ~off:0 ~len:30000 in
      Alcotest.(check int) "length" 20000 (Bytes.length back);
      Alcotest.(check bytes) "content" body back;
      let a = Nfs_client.stat m "hello.txt" in
      Alcotest.(check int) "size" 20000 a.P.size)

let test_server_sees_data () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "server-visible");
      Nfs_client.close m fd;
      (* Check the backing store directly. *)
      let fs = Nfs_server.fs w.server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "f" in
      let data = Renofs_vfs.Fs.read fs v ~off:0 ~len:100 in
      Alcotest.(check string) "on server" "server-visible" (Bytes.to_string data))

let test_directories_and_paths () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "a";
      Nfs_client.mkdir m "a/b";
      let fd = Nfs_client.create m "a/b/deep.txt" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "deep");
      Nfs_client.close m fd;
      let names = Nfs_client.readdir m "a/b" in
      Alcotest.(check (list string)) "listing" [ "deep.txt" ] names;
      Alcotest.(check string) "read back" "deep"
        (Bytes.to_string
           (Nfs_client.read m (Nfs_client.open_ m "a/b/deep.txt") ~off:0 ~len:10)))

let test_unlink_rmdir () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "d";
      let fd = Nfs_client.create m "d/f" in
      Nfs_client.close m fd;
      Nfs_client.unlink m "d/f";
      (match Nfs_client.stat m "d/f" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "unlinked file still visible");
      Nfs_client.rmdir m "d";
      match Nfs_client.readdir m "d" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | exception Nfs_client.Nfs_error P.NFSERR_STALE -> ()
      | _ -> Alcotest.fail "removed dir still listable")

let test_rename_link_symlink () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "old" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "move me");
      Nfs_client.close m fd;
      Nfs_client.rename m "old" "new";
      Alcotest.(check string) "renamed" "move me"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "new") ~off:0 ~len:10));
      Nfs_client.link m ~existing:"new" "alias";
      Alcotest.(check int) "nlink" 2 (Nfs_client.stat m "alias").P.nlink;
      Nfs_client.symlink m "ln" ~target:"new";
      Alcotest.(check string) "readlink" "new" (Nfs_client.readlink m "ln"))

let test_statfs () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let s = Nfs_client.statfs m in
      Alcotest.(check int) "tsize" 8192 s.P.tsize;
      Alcotest.(check bool) "free sane" true (s.P.blocks_free > 0))

let test_open_missing_file () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      match Nfs_client.open_ m "nope" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "expected NOENT")

let test_sparse_write () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "sparse" in
      Nfs_client.write m fd ~off:20000 (Bytes.of_string "tail");
      Nfs_client.close m fd;
      let fd2 = Nfs_client.open_ m "sparse" in
      let back = Nfs_client.read m fd2 ~off:19998 ~len:6 in
      Alcotest.(check string) "hole boundary" "\000\000tail" (Bytes.to_string back))

(* ------------------------------------------------------------------ *)
(* RPC counting and cache semantics                                   *)
(* ------------------------------------------------------------------ *)

let count m proc =
  Option.value ~default:0
    (List.assoc_opt proc (Client_transport.calls_by_proc (Nfs_client.transport m)))

let test_attr_cache_suppresses_getattr () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.close m fd;
      let before = count m "getattr" in
      for _ = 1 to 10 do
        ignore (Nfs_client.stat m "f")
      done;
      (* All ten stats inside the 5 s window: at most one fresh getattr. *)
      Alcotest.(check bool) "getattr suppressed" true (count m "getattr" - before <= 1))

let test_name_cache_halves_lookups () =
  let lookups opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let fd = Nfs_client.create m "target" in
        Nfs_client.close m fd;
        for _ = 1 to 20 do
          ignore (Nfs_client.stat m "target")
        done;
        count m "lookup")
  in
  let reno = lookups Nfs_client.reno_mount in
  let ultrix = lookups Nfs_client.ultrix_mount in
  Alcotest.(check bool) "reno needs few lookups" true (reno <= 2);
  Alcotest.(check bool) "ultrix looks up repeatedly" true (ultrix >= 10)

let test_unlink_probes_name_cache_once () =
  (* One stat of a cached name is one hit; an unlink of a name nobody
     has open is one miss, so the gauge reads 50%, not 33%. *)
  let w = make_world () in
  let sink = Renofs_metrics.Metrics.create ~interval:1.0 () in
  let run = Renofs_metrics.Metrics.start_run sink ~sim:w.sim ~label:"unlink" in
  Net.Node.attach w.topo.Net.Topology.client { Net.Node.detached with metrics = Some run };
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.close m (Nfs_client.create m "cached");
      ignore (Nfs_client.stat m "cached");
      let fs = Nfs_server.fs w.server in
      ignore (Renofs_vfs.Fs.create_file fs ~dir:(Renofs_vfs.Fs.root fs) "uncached" ~mode:0o644 ());
      Nfs_client.unlink m "uncached");
  let gauge =
    List.find
      (fun s -> s.Renofs_metrics.Metrics.e_name = "client.cli.namecache.hit_ratio")
      (Renofs_metrics.Metrics.series sink)
  in
  let _, last = List.hd (List.rev gauge.Renofs_metrics.Metrics.e_points) in
  Alcotest.(check string) "hit ratio" "50.00" (Printf.sprintf "%.2f" last)

let test_close_pushes () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "partial");
      (* Delayed policy, partial block: nothing pushed yet. *)
      Alcotest.(check int) "no writes yet" 0 (count m "write");
      Nfs_client.close m fd;
      Alcotest.(check int) "write pushed at close" 1 (count m "write");
      Alcotest.(check int) "nothing dirty" 0 (Nfs_client.dirty_blocks m))

let test_nopush_defers_writes () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_nopush_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "partial");
      Nfs_client.close m fd;
      Alcotest.(check int) "close pushed nothing" 0 (count m "write");
      Alcotest.(check int) "still dirty" 1 (Nfs_client.dirty_blocks m);
      Nfs_client.flush_all m;
      Alcotest.(check int) "flushed eventually" 1 (count m "write"))

let test_noconsist_discards_on_unlink () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.noconsist_mount in
      let fd = Nfs_client.create m "temp" in
      Nfs_client.write m fd ~off:0 (pattern 50000);
      Nfs_client.close m fd;
      Nfs_client.unlink m "temp";
      (* The data never went to the server. *)
      Alcotest.(check int) "no write RPCs" 0 (count m "write"))

let test_reno_rereads_after_own_write () =
  (* The +50% read RPCs of Table 3: Reno invalidates its cache after its
     own writes; the Ultrix profile trusts them. *)
  let reads opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let fd = Nfs_client.create m "f" in
        Nfs_client.write m fd ~off:0 (pattern 8192);
        Nfs_client.close m fd;
        let fd = Nfs_client.open_ m "f" in
        ignore (Nfs_client.read m fd ~off:0 ~len:8192);
        Nfs_client.close m fd;
        count m "read")
  in
  let reno = reads Nfs_client.reno_mount in
  let ultrix = reads Nfs_client.ultrix_mount in
  Alcotest.(check bool) "reno re-reads" true (reno >= 1);
  Alcotest.(check int) "ultrix serves from cache" 0 ultrix

let test_write_policies_rpc_behavior () =
  let writes_before_close policy =
    let w = make_world () in
    run_client w (fun () ->
        let m =
          mount_in w { Nfs_client.reno_mount with Nfs_client.write_policy = policy }
        in
        let fd = Nfs_client.create m "f" in
        (* Two full blocks plus a partial one. *)
        Nfs_client.write m fd ~off:0 (pattern (2 * 8192));
        Nfs_client.write m fd ~off:(2 * 8192) (pattern 100);
        let before_close = count m "write" in
        Nfs_client.close m fd;
        (before_close, count m "write"))
  in
  let wt_before, wt_after = writes_before_close Nfs_client.Write_through in
  Alcotest.(check int) "write-through: all pushed inline" 3 wt_before;
  Alcotest.(check int) "write-through: close adds none" 3 wt_after;
  let d_before, d_after = writes_before_close Nfs_client.Delayed in
  Alcotest.(check int) "delayed: full blocks async" 2 d_before;
  Alcotest.(check int) "delayed: partial at close" 3 d_after

let test_dirty_region_no_preread () =
  (* Writing a few bytes into a fresh block must not read the block. *)
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:100 (Bytes.of_string "mid-block");
      Alcotest.(check int) "no preread" 0 (count m "read");
      Nfs_client.close m fd)

let test_fetched_block_merges_write () =
  (* Local writes and fetched blocks merge in the cache, in either
     order: block 0 is fetched whole, then written in part, then read
     from the cache; block 1 is written in part, then fetched.  The
     bytes an earlier read returned stay as they were. *)
  let w = make_world () in
  run_client w (fun () ->
      let writer = mount_in w Nfs_client.reno_mount in
      let body = pattern 16384 in
      let fd = Nfs_client.create writer "merge" in
      Nfs_client.write writer fd ~off:0 body;
      Nfs_client.close writer fd;
      let m = mount_in w { Nfs_client.noconsist_mount with Nfs_client.read_ahead = 0 } in
      let fd = Nfs_client.open_ m "merge" in
      let merged = Bytes.copy body in
      let first = Nfs_client.read m fd ~off:0 ~len:8192 in
      Alcotest.(check int) "block 0 fetched" 1 (count m "read");
      Nfs_client.write m fd ~off:1000 (Bytes.make 100 'Z');
      Bytes.fill merged 1000 100 'Z';
      let second = Nfs_client.read m fd ~off:0 ~len:8192 in
      Alcotest.(check int) "block 0 served from the cache" 1 (count m "read");
      Alcotest.(check bytes) "fetch, then write" (Bytes.sub merged 0 8192) second;
      Alcotest.(check bytes) "first result unchanged" (Bytes.sub body 0 8192) first;
      Nfs_client.write m fd ~off:9000 (Bytes.make 100 'Y');
      Bytes.fill merged 9000 100 'Y';
      let third = Nfs_client.read m fd ~off:8192 ~len:8192 in
      Alcotest.(check int) "block 1 fetched" 2 (count m "read");
      Alcotest.(check bytes) "write, then fetch" (Bytes.sub merged 8192 8192) third)

let test_gap_after_fetched_eof () =
  (* A block fetched short (the file ends inside it), then written past
     that end: the gap between reads as zeros. *)
  let w = make_world () in
  run_client w (fun () ->
      let writer = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create writer "short" in
      Nfs_client.write writer fd ~off:0 (pattern 100);
      Nfs_client.close writer fd;
      let m = mount_in w { Nfs_client.noconsist_mount with Nfs_client.read_ahead = 0 } in
      let fd = Nfs_client.open_ m "short" in
      (* Hand the allocator freed 8 KiB blocks full of ones, so a block
         buffer that is not cleared past EOF shows. *)
      for _ = 1 to 64 do
        ignore (Sys.opaque_identity (Bytes.make 8192 '\255'))
      done;
      Gc.full_major ();
      ignore (Nfs_client.read m fd ~off:0 ~len:8192);
      Nfs_client.write m fd ~off:200 (Bytes.make 100 'Q');
      let expect = Bytes.make 300 '\000' in
      Bytes.blit (pattern 100) 0 expect 0 100;
      Bytes.fill expect 200 100 'Q';
      Alcotest.(check bytes) "gap reads as zeros" expect
        (Nfs_client.read m fd ~off:0 ~len:8192))

(* A read of one whole aligned block returns the cached block itself; a
   later write copies the block before changing it. *)
let test_whole_block_read_lends () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern 16384);
      Nfs_client.close m fd;
      let fd = Nfs_client.open_ m "f" in
      let first = Nfs_client.read m fd ~off:0 ~len:8192 in
      let again = Nfs_client.read m fd ~off:0 ~len:8192 in
      Alcotest.(check bool) "one cached block" true (first == again);
      Nfs_client.write m fd ~off:0 (Bytes.make 100 'W');
      Alcotest.(check bytes) "first result unchanged" (pattern 8192) first;
      let written = Bytes.cat (Bytes.make 100 'W') (Bytes.sub (pattern 8192) 100 8092) in
      Alcotest.(check bytes) "a new read sees the write" written
        (Nfs_client.read m fd ~off:0 ~len:8192);
      Nfs_client.close m fd;
      (* 32 KiB blocks: an 8 KiB read is part of one, and a copy. *)
      let v3 = mount_in w Nfs_client.v3_mount in
      let fd = Nfs_client.open_ v3 "f" in
      let first = Nfs_client.read v3 fd ~off:0 ~len:8192 in
      let again = Nfs_client.read v3 fd ~off:0 ~len:8192 in
      Alcotest.(check bytes) "v3 reads the write" written first;
      Alcotest.(check bool) "v3 copies" false (first == again))

let test_fsync () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_nopush_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "x");
      Nfs_client.fsync m fd;
      Alcotest.(check int) "pushed" 1 (count m "write");
      Alcotest.(check int) "clean" 0 (Nfs_client.dirty_blocks m))

let test_readahead_prefetches () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w { Nfs_client.reno_mount with Nfs_client.read_ahead = 2 } in
      let fd = Nfs_client.create m "big" in
      Nfs_client.write m fd ~off:0 (pattern (8 * 8192));
      Nfs_client.close m fd;
      let fd = Nfs_client.open_ m "big" in
      (* Sequential read: every block must be correct despite read-ahead. *)
      let whole = Buffer.create (8 * 8192) in
      for blk = 0 to 7 do
        Buffer.add_bytes whole (Nfs_client.read m fd ~off:(blk * 8192) ~len:8192)
      done;
      Alcotest.(check bytes) "sequential content" (pattern (8 * 8192))
        (Buffer.to_bytes whole))

let test_readdirlook_prefetch () =
  let rpcs use_it =
    let w = make_world () in
    run_client w (fun () ->
        (* Populate through one mount; list through a second, cold one,
           so the creator's caches don't mask the effect. *)
        let writer = mount_in w Nfs_client.reno_mount in
        Nfs_client.mkdir writer "dir";
        for i = 0 to 9 do
          Nfs_client.close writer (Nfs_client.create writer (Printf.sprintf "dir/f%d" i))
        done;
        let m =
          mount_in w { Nfs_client.reno_mount with Nfs_client.use_readdirlook = use_it }
        in
        (* ls -l pattern: readdir then stat every entry. *)
        let names = Nfs_client.readdir m "dir" in
        List.iter (fun n -> ignore (Nfs_client.stat m ("dir/" ^ n))) names;
        count m "lookup" + count m "getattr")
  in
  let classic = rpcs false and bulk = rpcs true in
  Alcotest.(check bool) "bulk lookup saves RPCs" true (bulk < classic / 2)

(* ------------------------------------------------------------------ *)
(* Transports end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let transport_roundtrip opts shape params =
  let w = make_world ~params ~shape () in
  run_client w (fun () ->
      let m = mount_in w opts in
      let fd = Nfs_client.create m "file" in
      let body = pattern 30000 in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let back = Nfs_client.read m (Nfs_client.open_ m "file") ~off:0 ~len:30000 in
      Alcotest.(check bytes) "content across transport" body back;
      m)

let test_tcp_transport_roundtrip () =
  ignore (transport_roundtrip Nfs_client.reno_tcp_mount Net.Topology.Lan quiet)

let test_dynamic_transport_roundtrip () =
  ignore (transport_roundtrip Nfs_client.reno_dynamic_mount Net.Topology.Lan quiet)

let test_transports_survive_lossy_wan () =
  let lossy = { quiet with Net.Topology.link_loss = 0.02 } in
  List.iter
    (fun opts ->
      let m = transport_roundtrip opts Net.Topology.Campus lossy in
      ignore (Client_transport.summary (Nfs_client.transport m)))
    [
      Nfs_client.reno_mount;
      Nfs_client.reno_dynamic_mount;
      Nfs_client.reno_tcp_mount;
    ]

let test_dynamic_window_reacts_to_loss () =
  let lossy = { quiet with Net.Topology.link_loss = 0.05 } in
  let w = make_world ~params:lossy ~shape:Net.Topology.Campus () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_dynamic_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (16 * 8192));
      Nfs_client.close m fd;
      for _ = 1 to 6 do
        ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:(16 * 8192))
      done;
      let x = Nfs_client.transport m in
      Alcotest.(check bool) "retransmissions happened" true
        (Client_transport.retransmits x > 0);
      Alcotest.(check bool) "window stayed bounded" true
        (Client_transport.congestion_window x <= 12.0))

let test_duplicate_cache_protects_nonidempotent () =
  (* An absurdly low timeo forces retransmission of every RPC; the
     duplicate request cache must absorb the repeats of non-idempotent
     calls without re-executing them. *)
  let w = make_world () in
  run_client w (fun () ->
      let m =
        mount_in w { Nfs_client.reno_mount with Nfs_client.timeo = 0.003 }
      in
      for i = 0 to 4 do
        let fd = Nfs_client.create m (Printf.sprintf "f%d" i) in
        Nfs_client.write m fd ~off:0 (Bytes.of_string "data");
        Nfs_client.close m fd;
        Nfs_client.unlink m (Printf.sprintf "f%d" i)
      done;
      Alcotest.(check bool) "client retransmitted" true
        (Client_transport.retransmits (Nfs_client.transport m) > 0);
      Alcotest.(check bool) "server dropped duplicates" true
        (Nfs_server.duplicates_dropped w.server > 0))

let test_rtt_stats_populated () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_dynamic_mount in
      Client_transport.enable_read_trace (Nfs_client.transport m);
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (4 * 8192));
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:(4 * 8192));
      let x = Nfs_client.transport m in
      Alcotest.(check bool) "read calls counted" true
        (List.mem_assoc "read" (Client_transport.calls_by_proc x));
      Alcotest.(check bool) "trace recorded" true
        (List.length (Client_transport.read_rtt_trace x) > 0);
      let s = Client_transport.summary x in
      Alcotest.(check bool) "mean rtt positive" true (s.Client_transport.mean_rtt > 0.0))

let test_symlink_following () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "real";
      let fd = Nfs_client.create m "real/data.txt" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "through the link");
      Nfs_client.close m fd;
      (* A directory symlink in the middle of a path. *)
      Nfs_client.symlink m "alias" ~target:"real";
      Alcotest.(check string) "walk through dir link" "through the link"
        (Bytes.to_string
           (Nfs_client.read m (Nfs_client.open_ m "alias/data.txt") ~off:0 ~len:100));
      (* A file symlink as the final component: open follows it. *)
      Nfs_client.symlink m "shortcut" ~target:"real/data.txt";
      Alcotest.(check string) "open follows final link" "through the link"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "shortcut") ~off:0 ~len:100));
      (* readlink reads the link itself, not the target. *)
      Alcotest.(check string) "readlink literal" "real/data.txt"
        (Nfs_client.readlink m "shortcut");
      (* Absolute targets resolve from the mount root. *)
      Nfs_client.symlink m "real/abs" ~target:"/real/data.txt";
      Alcotest.(check string) "absolute target" "through the link"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "real/abs") ~off:0 ~len:100)))

let test_symlink_loop_detected () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.symlink m "a" ~target:"b";
      Nfs_client.symlink m "b" ~target:"a";
      match Nfs_client.open_ m "a" with
      | exception Nfs_client.Nfs_error P.NFSERR_IO -> ()
      | _ -> Alcotest.fail "symlink loop not detected")

let test_silly_rename () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "doomed" in
      Nfs_client.write m fd ~off:0 (Bytes.make 20000 's');
      Nfs_client.close m fd;
      (* Re-open, then unlink while the descriptor is live. *)
      let fd = Nfs_client.open_ m "doomed" in
      Nfs_client.unlink m "doomed";
      (match Nfs_client.stat m "doomed" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "name still visible after unlink");
      (* The open descriptor still reads everything — including blocks
         that were never cached, which a naive client would lose to
         ESTALE on the stateless server. *)
      let back = Nfs_client.read m fd ~off:16384 ~len:100 in
      Alcotest.(check bytes) "tail readable after unlink" (Bytes.make 100 's') back;
      (* The server-side evidence: a .nfs file exists while open... *)
      let names = Nfs_client.readdir m "/" in
      Alcotest.(check bool) "silly name present" true
        (List.exists (fun n -> String.length n > 4 && String.sub n 0 4 = ".nfs") names);
      (* ...and disappears at the last close. *)
      Nfs_client.close m fd;
      let names = Nfs_client.readdir m "/" in
      Alcotest.(check bool) "silly name removed" false
        (List.exists (fun n -> String.length n > 4 && String.sub n 0 4 = ".nfs") names))

let test_server_service_times () =
  (* nfsstat-style service times, from the server's Srv_service trace
     records: the in-server execution time, excluding network and
     queueing. *)
  let w = make_world () in
  let tr = Trace.create () in
  List.iter
    (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr })
    w.topo.Net.Topology.all;
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (2 * 8192));
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:8192));
  let times = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.Trace.ev with
      | Trace.Srv_service { proc; service; _ } ->
          let w =
            match Hashtbl.find_opt times (P.proc_name proc) with
            | Some w -> w
            | None ->
                let w = Stats.Welford.create () in
                Hashtbl.replace times (P.proc_name proc) w;
                w
          in
          Stats.Welford.add w service
      | _ -> ())
    (Trace.to_list tr);
  Alcotest.(check bool) "several procs recorded" true (Hashtbl.length times >= 3);
  Hashtbl.iter
    (fun name w ->
      let mean = Stats.Welford.mean w in
      Alcotest.(check bool) (name ^ " mean sane") true (mean >= 0.0 && mean < 1.0))
    times;
  (* A synchronous write (disk) must cost more service time than a
     getattr. *)
  let mean_of n =
    match Hashtbl.find_opt times n with Some w -> Stats.Welford.mean w | None -> 0.0
  in
  Alcotest.(check bool) "write dearer than getattr" true
    (mean_of "write" > mean_of "getattr")

let test_ultrix_server_slower_lookups () =
  (* Graph 8's mechanism: the reference-port server burns more CPU per
     lookup (global buffer search + RPC layering). *)
  let busy profile =
    let w = make_world ~profile () in
    run_client w (fun () ->
        let m = mount_in w Nfs_client.ultrix_mount in
        for i = 0 to 49 do
          Nfs_client.close m (Nfs_client.create m (Printf.sprintf "f%02d" i))
        done;
        for _ = 1 to 3 do
          for i = 0 to 49 do
            ignore (Nfs_client.stat m (Printf.sprintf "f%02d" i))
          done
        done);
    Renofs_engine.Cpu.busy_time (Net.Node.cpu w.topo.Net.Topology.server)
  in
  let reno = busy Nfs_server.reno_profile in
  let ultrix = busy Nfs_server.reference_port_profile in
  Alcotest.(check bool) "reference port costs more" true (ultrix > reno *. 1.2)

(* One row per server profile, naming each decision the profile makes:
   Srv_service records for one CREATE sent twice with one xid (the
   duplicate cache), server CPU for 10 NULLs (the XDR layer's toll on
   every RPC), server CPU for 10 LOOKUPs (buffer search and name cache
   on top), and whether the server's fs keeps a name cache. *)
let server_profile_row profile =
  let sim = Sim.create () in
  let topo =
    Net.Topology.build sim
      { Net.Topology.shape = Net.Topology.Lan; clients = 1; params = quiet }
  in
  let tr = Trace.create () in
  List.iter
    (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr })
    topo.Net.Topology.all;
  let server =
    Nfs_server.create topo.Net.Topology.server ~profile
      ~udp:(Udp.install topo.Net.Topology.server) ()
  in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let cpu = Net.Node.cpu topo.Net.Topology.server in
  let busy_ms = ref [] in
  Proc.spawn sim (fun () ->
      Fileset.preload_server server
        (Fileset.generate ~dirs:10 ~files_per_dir:20 ~file_size:8192
           ~long_names:false);
      let sock = Udp.bind_ephemeral cudp in
      let send xid call =
        let enc =
          Rpc_msg.encode_call
            {
              Rpc_msg.xid;
              prog = P.program;
              vers = P.version;
              proc = P.proc_of_call call;
              cred = Rpc_msg.Auth_unix { stamp = 0; machine = "t"; uid = 0; gid = 0 };
            }
        in
        P.encode_call enc call;
        Udp.sendto sock ~dst:(Net.Topology.server_id topo) ~dst_port:P.port
          (Xdr.Enc.chain enc)
      in
      let root = Nfs_server.root_fhandle server in
      let create =
        P.Create
          {
            P.where = { P.dir = root; name = "dup" };
            attributes =
              {
                P.s_mode = 0o644;
                s_uid = 0;
                s_gid = 0;
                s_size = 0;
                s_atime = None;
                s_mtime = None;
              };
          }
      in
      send 4242l create;
      Proc.sleep sim 0.5;
      send 4242l create;
      Proc.sleep sim 1.0;
      let fs = Nfs_server.fs server in
      let d03 = Renofs_vfs.Fs.ino (Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "d03") in
      let measure gap calls =
        let b0 = Renofs_engine.Cpu.busy_time cpu in
        List.iteri
          (fun i call ->
            send (Int32.of_int (100 + i)) call;
            Proc.sleep sim gap)
          calls;
        busy_ms := (Renofs_engine.Cpu.busy_time cpu -. b0) *. 1e3 :: !busy_ms
      in
      measure 0.2 (List.init 10 (fun _ -> P.Null));
      measure 0.5
        (List.init 10 (fun i ->
             P.Lookup { P.dir = d03; name = Printf.sprintf "f03_%02d" (i + 1) })));
  Sim.run ~until:600.0 sim;
  let services =
    List.length
      (List.filter
         (fun r ->
           match r.Trace.ev with
           | Trace.Srv_service { xid = 4242l; _ } -> true
           | _ -> false)
         (Trace.to_list tr))
  in
  match List.rev !busy_ms with
  | [ null_ms; lookup_ms ] ->
      Printf.sprintf "%d / %.2f ms / %.2f ms / %s" services null_ms lookup_ms
        (if Renofs_vfs.Fs.namecache (Nfs_server.fs server) = None then "no"
         else "yes")
  | _ -> "probes never finished"

let test_server_profile_rows () =
  let row (name, profile) = name ^ ": " ^ server_profile_row profile in
  Alcotest.(check (list string))
    "double-CREATE services / 10 NULLs' CPU / 10 LOOKUPs' CPU / name cache"
    [
      "reno: 1 / 20.95 ms / 26.55 ms / yes";
      "reno-nonc: 1 / 20.95 ms / 28.37 ms / no";
      "reference port: 2 / 40.95 ms / 76.51 ms / no";
    ]
    (List.map row
       [
         ("reno", Nfs_server.reno_profile);
         ("reno-nonc", Nfs_server.Reno_no_name_cache);
         ("reference port", Nfs_server.reference_port_profile);
       ])

(* ------------------------------------------------------------------ *)
(* Hand-written responders                                            *)
(* ------------------------------------------------------------------ *)

(* A world whose server node runs no NFS server, only a UDP socket on
   the NFS port: [answer] maps each decoded call to the RPC reply status
   and, for an accepted call, the NFS reply. *)
let raw_world answer =
  let sim = Sim.create () in
  let topo =
    Net.Topology.build sim
      { Net.Topology.shape = Net.Topology.Lan; clients = 1; params = quiet }
  in
  let sock = Udp.bind (Udp.install topo.Net.Topology.server) ~port:P.port in
  Proc.spawn sim (fun () ->
      let rec loop () =
        let dg = Udp.recv sock in
        let hdr, dec = Rpc_msg.decode_call dg.Udp.payload in
        let status, body = answer (P.decode_call ~proc:hdr.Rpc_msg.proc dec) in
        let enc = Rpc_msg.encode_reply ~xid:hdr.Rpc_msg.xid status in
        Option.iter (P.encode_reply enc) body;
        Udp.sendto sock ~dst:dg.Udp.src ~dst_port:dg.Udp.src_port (Xdr.Enc.chain enc);
        loop ()
      in
      loop ());
  (sim, Net.Topology.server_id topo, Udp.install topo.Net.Topology.client)

(* The message [Client_transport.call] raises when every call is
   answered with [status]. *)
let rejection status =
  let sim, server, cudp = raw_world (fun _ -> (status, None)) in
  let got = ref "no answer" in
  Proc.spawn sim (fun () ->
      let x = Client_transport.create_udp_fixed cudp ~server () in
      got :=
        match Client_transport.call x P.Null with
        | _ -> "call completed"
        | exception Client_transport.Rpc_error m -> m);
  Sim.run ~until:60.0 sim;
  !got

let test_rpc_denied () =
  Alcotest.(check string) "auth error" "rpc denied"
    (rejection (Rpc_msg.Denied Rpc_msg.Auth_error))

let test_rpc_prog_unavail () =
  Alcotest.(check string) "prog unavail" "rpc accepted with error"
    (rejection (Rpc_msg.Accepted Rpc_msg.Prog_unavail))

let test_oversized_read_reply () =
  (* A server answering READ with more bytes than asked for: the client
     must fail the read with EIO, not blit past its block. *)
  let now = P.time_of_float 1.0 in
  let attr ftype =
    {
      P.ftype;
      mode = 0o755;
      nlink = 1;
      uid = 100;
      gid = 100;
      size = 8192;
      blocksize = 8192;
      rdev = 0;
      blocks = 16;
      fsid = 1;
      fileid = 7;
      atime = now;
      mtime = now;
      ctime = now;
    }
  in
  let root = 1 in
  let sim, server, cudp =
    raw_world (fun call ->
        let reply =
          match call with
          | P.Getattr fh when fh = root -> P.Rattr (Ok (attr P.NFDIR))
          | P.Lookup _ -> P.Rdirop (Ok (7, attr P.NFREG))
          | P.Read { P.count; _ } ->
              P.Rread (Ok (attr P.NFREG, Bytes.make (count + 512) 'x'))
          | _ -> P.Rattr (Ok (attr P.NFREG))
        in
        (Rpc_msg.Accepted Rpc_msg.Success, Some reply))
  in
  let got = ref "no answer" in
  Proc.spawn sim (fun () ->
      let m = Nfs_client.mount ~udp:cudp ~server ~root Nfs_client.reno_mount in
      let fd = Nfs_client.open_ m "f" in
      got :=
        match Nfs_client.read m fd ~off:0 ~len:8192 with
        | _ -> "read returned data"
        | exception Nfs_client.Nfs_error P.NFSERR_IO -> "EIO");
  Sim.run ~until:60.0 sim;
  Alcotest.(check string) "read fails with EIO" "EIO" !got

(* Property: arbitrary write/read offset sequences through the full
   stack match a flat-array model. *)
let prop_nfs_io_model =
  QCheck.Test.make ~name:"nfs io matches flat-array model" ~count:25
    QCheck.(
      list_of_size Gen.(int_range 1 12)
        (pair (int_range 0 40000) (int_range 1 5000)))
    (fun ops ->
      let w = make_world () in
      run_client w (fun () ->
          let m = mount_in w Nfs_client.reno_mount in
          let fd = Nfs_client.create m "model" in
          let model = Bytes.make 50000 '\000' in
          let model_len = ref 0 in
          List.iteri
            (fun i (off, len) ->
              let data = Bytes.make len (Char.chr (97 + (i mod 26))) in
              Nfs_client.write m fd ~off data;
              Bytes.blit data 0 model off len;
              if off + len > !model_len then model_len := off + len)
            ops;
          Nfs_client.close m fd;
          let fd2 = Nfs_client.open_ m "model" in
          let actual = Nfs_client.read m fd2 ~off:0 ~len:!model_len in
          Bytes.equal actual (Bytes.sub model 0 !model_len)))

(* ------------------------------------------------------------------ *)
(* Lending: one buffer shared by server chunks and client blocks      *)
(* ------------------------------------------------------------------ *)

module Fs = Renofs_vfs.Fs

(* A v3 mount reads 32 KiB blocks, which the server copies out of its
   8 KiB chunks; with 8 KiB blocks its READs adopt the server's chunk as
   a reno mount's do, and its WRITE3s lend whole blocks the same way. *)
let v3_8k_mount = { Nfs_client.v3_mount with Nfs_client.bsize = 8192 }

let lending_mounts =
  [ ("reno", Nfs_client.reno_mount); ("v3", Nfs_client.v3_mount); ("v3 8K blocks", v3_8k_mount) ]

(* The mounts whose READ adopts the server's own chunk. *)
let chunk_sharing_mounts =
  List.filter (fun (name, _) -> name <> "v3") lending_mounts

let size_of opts = opts.Nfs_client.bsize

(* One whole block of [pattern], written straight into the server's
   file system. *)
let server_file w ~size =
  let fs = Nfs_server.fs w.server in
  let v = Fs.create_file fs ~dir:(Fs.root fs) "lent" ~mode:0o666 () in
  Fs.write fs v ~off:0 (pattern size);
  v

(* The server's stable bytes, read in two parts so that the read itself
   lends (and marks) no chunk. *)
let stable_bytes w v ~size =
  let fs = Nfs_server.fs w.server in
  let half = size / 2 in
  Bytes.cat (Fs.read fs v ~off:0 ~len:half) (Fs.read fs v ~off:half ~len:(size - half))

(* What a new client reads: the server's view, buffered v3 data and all. *)
let fresh_read w opts ~size =
  let o = mount_in w opts in
  Nfs_client.read o (Nfs_client.open_ o "lent") ~off:0 ~len:size

let w_prefixed b = Bytes.cat (Bytes.make 100 'W') (Bytes.sub b 100 (Bytes.length b - 100))

(* A client that adopted a READ reply as its block, then writes: the
   server's file changes only by the pushes, not by the client's writes
   into storage it shares with the server.  The client reads part of
   the block, so only the fetch marks the block lent ([read] of a whole
   block marks it too). *)
let test_lent_client_write (name, opts) () =
  let w = make_world () in
  let size = size_of opts in
  run_client w (fun () ->
      let v = server_file w ~size in
      let a = mount_in w opts in
      let fd = Nfs_client.open_ a "lent" in
      ignore (Nfs_client.read a fd ~off:0 ~len:100);
      let q = Bytes.make size 'Q' in
      (* A whole block: pushed at once, lent to the WRITE. *)
      Nfs_client.write a fd ~off:0 q;
      Alcotest.(check bytes) (name ^ ": stable bytes before the push") (pattern size)
        (stable_bytes w v ~size);
      Proc.sleep w.sim 2.0;
      Alcotest.(check bytes) (name ^ ": the push arrived") q (fresh_read w opts ~size);
      (* Part of a block: delayed until close. *)
      Nfs_client.write a fd ~off:0 (Bytes.make 100 'W');
      Alcotest.(check bytes) (name ^ ": served before the second push") q (fresh_read w opts ~size);
      Nfs_client.close a fd;
      Alcotest.(check bytes) (name ^ ": served after close") (w_prefixed q)
        (fresh_read w opts ~size))

(* A client holding the server's chunk keeps its bytes while another
   client writes the file, until its attribute cache expires. *)
let test_lent_other_writer (name, opts) () =
  let w = make_world () in
  let size = size_of opts in
  run_client w (fun () ->
      ignore (server_file w ~size);
      let a = mount_in w opts in
      let fa = Nfs_client.open_ a "lent" in
      let first = Nfs_client.read a fa ~off:0 ~len:size in
      let b = mount_in w opts in
      let fb = Nfs_client.open_ b "lent" in
      Nfs_client.write b fb ~off:0 (Bytes.make 100 'W');
      Nfs_client.close b fb;
      Alcotest.(check bytes) (name ^ ": the first read's bytes") (pattern size) first;
      Alcotest.(check bytes) (name ^ ": cached until revalidation") (pattern size)
        (Nfs_client.read a fa ~off:0 ~len:size);
      (* Past the 5 s attribute-cache lifetime. *)
      Proc.sleep w.sim 6.0;
      Alcotest.(check bytes) (name ^ ": revalidated") (w_prefixed (pattern size))
        (Nfs_client.read a fa ~off:0 ~len:size);
      (* A whole block the first client pushes becomes the server's
         chunk: the other client's write to it leaves what the first
         client read of that block alone too. *)
      let q = Bytes.make size 'Q' in
      Nfs_client.write a fa ~off:0 q;
      let pushed = Nfs_client.read a fa ~off:0 ~len:size in
      Nfs_client.fsync a fa;
      let fb = Nfs_client.open_ b "lent" in
      Nfs_client.write b fb ~off:0 (Bytes.make 100 'W');
      Nfs_client.close b fb;
      Alcotest.(check bytes) (name ^ ": the pushed block's read") q pushed;
      Proc.sleep w.sim 6.0;
      Alcotest.(check bytes) (name ^ ": the pushed block, revalidated") (w_prefixed q)
        (Nfs_client.read a fa ~off:0 ~len:size))

(* A block rewritten while its WRITE waits for a retransmission: the
   server receives what the block held when it was pushed, then the
   rewrite. *)
let test_lent_rewrite_in_flight (name, opts) () =
  let w = make_world () in
  let size = size_of opts in
  let tr = Trace.create () in
  Net.Node.attach w.topo.Net.Topology.server { Net.Node.detached with trace = Some tr };
  let q1 = Bytes.make size '1' and q2 = Bytes.make size '2' in
  run_client w (fun () ->
      ignore (server_file w ~size);
      let a = mount_in w opts in
      let fd = Nfs_client.open_ a "lent" in
      ignore (Nfs_client.read a fd ~off:0 ~len:size);
      (* Down, so the WRITE is lost and waits for its retransmission. *)
      Nfs_server.crash w.server;
      Nfs_client.write a fd ~off:0 q1;
      Proc.sleep w.sim 0.5;
      Nfs_client.write a fd ~off:0 q2;
      Nfs_server.reboot w.server;
      Nfs_client.close a fd);
  let received =
    List.filter_map
      (fun r ->
        match r.Trace.ev with
        | Trace.Write_committed { digest; _ } when not opts.Nfs_client.v3 -> Some digest
        | Trace.Write_unstable { digest; _ } -> Some digest
        | _ -> None)
      (Trace.to_list tr)
  in
  Alcotest.(check (list int)) (name ^ ": the pushed bytes, then the rewrite")
    [ Trace.digest q1; Trace.digest q2 ] received

(* Packets carrying lent data are corrupted on the wire: the damage
   lands on a copy, never on the sender's block or the server's chunk. *)
let test_lent_data_corrupted (name, opts) () =
  let w = make_world () in
  let size = size_of opts in
  List.iter
    (fun n ->
      List.iter (fun l -> Net.Link.set_mangle l ~seed:11 Net.Link.Corrupt 0.1) (Net.Node.links n))
    w.topo.Net.Topology.all;
  run_client w (fun () ->
      let v = server_file w ~size in
      let o = mount_in w opts and a = mount_in w opts in
      let fo = Nfs_client.open_ o "lent" and fa = Nfs_client.open_ a "lent" in
      let seen = Nfs_client.read o fo ~off:0 ~len:size in
      ignore (Nfs_client.read a fa ~off:0 ~len:100);
      let q = Bytes.make size 'Q' in
      Nfs_client.write a fa ~off:0 q;
      Nfs_client.fsync a fa;
      Nfs_client.write a fa ~off:0 (Bytes.make 100 'W');
      Alcotest.(check bytes) (name ^ ": the other client's block") (pattern size) seen;
      Alcotest.(check bytes) (name ^ ": the server's chunk") q (stable_bytes w v ~size);
      Alcotest.(check bytes) (name ^ ": the sender's block") (w_prefixed q)
        (Nfs_client.read a fa ~off:0 ~len:size));
  let mangled =
    List.fold_left
      (fun acc n ->
        List.fold_left (fun acc l -> acc + (Net.Link.stats l).Net.Link.mangled) acc (Net.Node.links n))
      0 w.topo.Net.Topology.all
  in
  Alcotest.(check bool) (name ^ ": packets were corrupted") true (mangled > 0);
  Alcotest.(check bool) (name ^ ": and dropped by the checksum") true
    (Udp.checksum_drops w.client_udp + Udp.checksum_drops (Nfs_server.udp_stack w.server) > 0)

(* The memory gate: 200 reno clients on one server each read the one
   whole block of the same preloaded 8 KiB file, and each cached block
   is the server's chunk, not a copy. *)
let test_cached_reads_share_chunk () =
  let clients = 200 in
  let sim = Sim.create () in
  let topo = Net.Topology.build sim { Net.Topology.shape = Net.Topology.Star; clients; params = quiet } in
  let server =
    Nfs_server.create topo.Net.Topology.server ~udp:(Udp.install topo.Net.Topology.server) ()
  in
  Nfs_server.start server;
  let fileset = Fileset.generate ~dirs:1 ~files_per_dir:1 ~file_size:8192 ~long_names:false in
  let path = List.hd fileset.Fileset.files in
  let in_process f =
    let result = ref None in
    Proc.spawn sim (fun () -> result := Some (f ()));
    Sim.run ~until:(Sim.now sim +. 600.0) sim;
    match !result with Some r -> r | None -> Alcotest.fail "process never finished"
  in
  in_process (fun () -> Fileset.preload_server server fileset);
  let opened =
    in_process (fun () ->
        List.map
          (fun node ->
            let m =
              Nfs_client.mount ~udp:(Udp.install node) ~server:(Net.Topology.server_id topo)
                ~root:(Nfs_server.root_fhandle server) Nfs_client.reno_mount
            in
            (m, Nfs_client.open_ m path))
          topo.Net.Topology.clients)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  let blocks =
    in_process (fun () -> List.map (fun (m, fd) -> Nfs_client.read m fd ~off:0 ~len:8192) opened)
  in
  let after = live_words () in
  ignore (Sys.opaque_identity (opened, blocks));
  Alcotest.(check bytes) "the preloaded bytes" (Fileset.content ~path ~size:8192) (List.hd blocks);
  let per_client_kib =
    float_of_int ((after - before) * (Sys.word_size / 8)) /. float_of_int clients /. 1024.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "under 4 KiB live per client (%.2f KiB)" per_client_kib)
    true (per_client_kib < 4.0)

let () =
  Alcotest.run "nfs"
    [
      ( "fileops",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read_roundtrip;
          Alcotest.test_case "server sees data" `Quick test_server_sees_data;
          Alcotest.test_case "directories" `Quick test_directories_and_paths;
          Alcotest.test_case "unlink/rmdir" `Quick test_unlink_rmdir;
          Alcotest.test_case "rename/link/symlink" `Quick test_rename_link_symlink;
          Alcotest.test_case "statfs" `Quick test_statfs;
          Alcotest.test_case "open missing" `Quick test_open_missing_file;
          Alcotest.test_case "sparse write" `Quick test_sparse_write;
        ] );
      ( "caching",
        [
          Alcotest.test_case "attr cache" `Quick test_attr_cache_suppresses_getattr;
          Alcotest.test_case "name cache vs ultrix" `Quick test_name_cache_halves_lookups;
          Alcotest.test_case "push on close" `Quick test_close_pushes;
          Alcotest.test_case "unlink probes the name cache once" `Quick
            test_unlink_probes_name_cache_once;
          Alcotest.test_case "nopush defers" `Quick test_nopush_defers_writes;
          Alcotest.test_case "noconsist discard on unlink" `Quick
            test_noconsist_discards_on_unlink;
          Alcotest.test_case "reno re-reads after write" `Quick
            test_reno_rereads_after_own_write;
          Alcotest.test_case "write policies" `Quick test_write_policies_rpc_behavior;
          Alcotest.test_case "dirty region no preread" `Quick test_dirty_region_no_preread;
          Alcotest.test_case "fetched block merges a write" `Quick
            test_fetched_block_merges_write;
          Alcotest.test_case "gap after fetched eof" `Quick test_gap_after_fetched_eof;
          Alcotest.test_case "whole-block read lends" `Quick test_whole_block_read_lends;
          Alcotest.test_case "fsync" `Quick test_fsync;
          Alcotest.test_case "readahead" `Quick test_readahead_prefetches;
          Alcotest.test_case "readdirlook prefetch" `Quick test_readdirlook_prefetch;
        ] );
      ( "transport",
        [
          Alcotest.test_case "tcp mount" `Quick test_tcp_transport_roundtrip;
          Alcotest.test_case "dynamic mount" `Quick test_dynamic_transport_roundtrip;
          Alcotest.test_case "lossy wan all transports" `Quick
            test_transports_survive_lossy_wan;
          Alcotest.test_case "dynamic window reacts" `Quick test_dynamic_window_reacts_to_loss;
          Alcotest.test_case "duplicate cache" `Quick
            test_duplicate_cache_protects_nonidempotent;
          Alcotest.test_case "rtt stats" `Quick test_rtt_stats_populated;
          Alcotest.test_case "reference-port server dearer" `Quick
            test_ultrix_server_slower_lookups;
          Alcotest.test_case "service times" `Quick test_server_service_times;
          Alcotest.test_case "one row per server profile" `Quick
            test_server_profile_rows;
          Alcotest.test_case "rpc denied" `Quick test_rpc_denied;
          Alcotest.test_case "prog unavail" `Quick test_rpc_prog_unavail;
          Alcotest.test_case "oversized read reply is EIO" `Quick test_oversized_read_reply;
        ] );
      ( "unix-semantics",
        [
          Alcotest.test_case "symlink following" `Quick test_symlink_following;
          Alcotest.test_case "symlink loop" `Quick test_symlink_loop_detected;
          Alcotest.test_case "silly rename" `Quick test_silly_rename;
        ] );
      ( "lending",
        List.concat
          [
            List.map
              (fun (name, _ as m) ->
                Alcotest.test_case ("client write leaves the server's file, " ^ name) `Quick
                  (test_lent_client_write m))
              lending_mounts;
            List.map
              (fun (name, _ as m) ->
                Alcotest.test_case ("another client's write leaves the cache, " ^ name) `Quick
                  (test_lent_other_writer m))
              chunk_sharing_mounts;
            List.map
              (fun (name, _ as m) ->
                Alcotest.test_case ("rewrite during retransmission, " ^ name) `Quick
                  (test_lent_rewrite_in_flight m))
              lending_mounts;
            List.map
              (fun (name, _ as m) ->
                Alcotest.test_case ("corruption leaves lent data intact, " ^ name) `Quick
                  (test_lent_data_corrupted m))
              chunk_sharing_mounts;
            [
              Alcotest.test_case "cached reads share the server's chunk" `Quick
                test_cached_reads_share_chunk;
            ];
          ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_nfs_io_model ]);
    ]
