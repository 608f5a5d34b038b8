(* Tests for the NQNFS-style lease consistency protocol — the paper's
   Future Directions extension: close/open consistency kept, push-on-
   close eliminated. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module P = Nfs_proto

type world = {
  sim : Sim.t;
  topo : Net.Topology.t;
  server : Nfs_server.t;
  client_udp : Udp.stack;
  client_tcp : Tcp.stack;
}

let make_world () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  {
    sim;
    topo;
    server;
    client_udp = Udp.install topo.Net.Topology.client;
    client_tcp = Tcp.install topo.Net.Topology.client;
  }

let run_client w body =
  let result = ref None in
  Proc.spawn w.sim (fun () -> result := Some (body ()));
  Sim.run ~until:36_000.0 w.sim;
  match !result with Some r -> r | None -> Alcotest.fail "client never finished"

let mount_in w opts =
  Nfs_client.mount ~udp:w.client_udp ~tcp:w.client_tcp
    ~server:(Net.Topology.server_id w.topo)
    ~root:(Nfs_server.root_fhandle w.server)
    opts

let count m proc =
  Option.value ~default:0
    (List.assoc_opt proc (Client_transport.calls_by_proc (Nfs_client.transport m)))

(* ------------------------------------------------------------------ *)
(* Single-client behaviour                                            *)
(* ------------------------------------------------------------------ *)

let test_close_does_not_push () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.lease_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.make 20000 'x');
      Nfs_client.close m fd;
      Alcotest.(check int) "no writes at close under a write lease" 0 (count m "write");
      Alcotest.(check bool) "lease RPC issued" true (count m "getlease" >= 1);
      (* The data is not lost: a flush pushes it. *)
      Nfs_client.flush_all m;
      Alcotest.(check bool) "flushed on demand" true (count m "write" >= 3))

let test_leased_reads_skip_getattr () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.lease_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.make 8192 'y');
      Nfs_client.close m fd;
      let fd = Nfs_client.open_ m "f" in
      let g0 = count m "getattr" and r0 = count m "read" in
      for _ = 1 to 20 do
        ignore (Nfs_client.read m fd ~off:0 ~len:8192)
      done;
      (* All twenty reads served from cache under the lease: no getattr
         revalidation, no re-reads even though this client wrote the
         file (contrast with the Reno mtime rule). *)
      Alcotest.(check int) "no getattrs" g0 (count m "getattr");
      Alcotest.(check int) "no read RPCs" r0 (count m "read"))

let test_reno_style_invalidation_avoided () =
  (* The +50% read RPC cost of Reno's own-write invalidation disappears
     under a write lease. *)
  let reads opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let fd = Nfs_client.create m "f" in
        Nfs_client.write m fd ~off:0 (Bytes.make 8192 'z');
        Nfs_client.close m fd;
        let fd = Nfs_client.open_ m "f" in
        ignore (Nfs_client.read m fd ~off:0 ~len:8192);
        count m "read")
  in
  Alcotest.(check bool) "reno re-reads" true (reads Nfs_client.reno_mount >= 1);
  Alcotest.(check int) "leases do not" 0 (reads Nfs_client.lease_mount)

let test_lease_renewal_keeps_dirty_data_safe () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.lease_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "delayed");
      Nfs_client.close m fd;
      (* Well past several lease durations: renewals must have kept the
         lease alive and the data either safely delayed or flushed by
         the 30 s syncer — never silently dropped. *)
      Proc.sleep w.sim 40.0;
      Nfs_client.flush_all m;
      let fs = Nfs_server.fs w.server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "f" in
      Alcotest.(check string) "data reached the server" "delayed"
        (Bytes.to_string (Renofs_vfs.Fs.read fs v ~off:0 ~len:10)))

(* ------------------------------------------------------------------ *)
(* Cross-client consistency                                           *)
(* ------------------------------------------------------------------ *)

let test_reader_forces_writer_flush () =
  (* The whole point: no push-on-close, yet a reader that opens after
     the writer's close still sees the data — the contested lease makes
     the writer vacate and flush. *)
  let w = make_world () in
  run_client w (fun () ->
      let writer = mount_in w Nfs_client.lease_mount in
      let reader = mount_in w Nfs_client.lease_mount in
      let fd = Nfs_client.create writer "shared" in
      Nfs_client.write writer fd ~off:0 (Bytes.of_string "lease-consistent");
      Nfs_client.close writer fd;
      Alcotest.(check int) "writer pushed nothing at close" 0 (count writer "write");
      (* Reader comes along: its lease request contests the writer's. *)
      let fdr = Nfs_client.open_ reader "shared" in
      let data = Nfs_client.read reader fdr ~off:0 ~len:100 in
      Alcotest.(check string) "reader sees the writer's data" "lease-consistent"
        (Bytes.to_string data);
      Alcotest.(check bool) "writer flushed when contested" true
        (count writer "write" >= 1))

let test_two_readers_share () =
  let w = make_world () in
  run_client w (fun () ->
      (* The file is made by a classic mount so no write lease exists. *)
      let writer = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create writer "f" in
      Nfs_client.write writer fd ~off:0 (Bytes.of_string "shared read");
      Nfs_client.close writer fd;
      let a = mount_in w Nfs_client.lease_mount in
      let b = mount_in w Nfs_client.lease_mount in
      (* Read leases are compatible: neither client waits a lease term. *)
      let t0 = Sim.now w.sim in
      let da = Nfs_client.read a (Nfs_client.open_ a "f") ~off:0 ~len:20 in
      let db = Nfs_client.read b (Nfs_client.open_ b "f") ~off:0 ~len:20 in
      Alcotest.(check string) "a" "shared read" (Bytes.to_string da);
      Alcotest.(check string) "b" "shared read" (Bytes.to_string db);
      Alcotest.(check bool) "no lease-term stall" true (Sim.now w.sim -. t0 < 3.0);
      Alcotest.(check bool) "both hold leases" true
        (count a "getlease" >= 1 && count b "getlease" >= 1))

let test_alternating_writers () =
  (* Two clients take turns appending; leases serialise them and nothing
     is lost. *)
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.lease_mount in
      let b = mount_in w Nfs_client.lease_mount in
      let fd = Nfs_client.create a "turns" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "AAAA");
      Nfs_client.close a fd;
      let fdb = Nfs_client.open_ b "turns" in
      Nfs_client.write b fdb ~off:4 (Bytes.of_string "BBBB");
      Nfs_client.close b fdb;
      let fda = Nfs_client.open_ a "turns" in
      Nfs_client.write a fda ~off:8 (Bytes.of_string "CCCC");
      Nfs_client.close a fda;
      Nfs_client.flush_all a;
      Nfs_client.flush_all b;
      Proc.sleep w.sim 8.0;
      let c = mount_in w Nfs_client.reno_mount in
      let data = Nfs_client.read c (Nfs_client.open_ c "turns") ~off:0 ~len:20 in
      Alcotest.(check string) "all three rounds" "AAAABBBBCCCC" (Bytes.to_string data))

let test_lease_and_plain_mounts_coexist () =
  (* A lease mount and a classic Reno mount against the same server:
     the classic client's consistency still works (it never asks for
     leases; staleness stays bounded by the lease term + attr window). *)
  let w = make_world () in
  run_client w (fun () ->
      let lm = mount_in w Nfs_client.lease_mount in
      let rm = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create lm "mixed" in
      Nfs_client.write lm fd ~off:0 (Bytes.of_string "from-lease-client");
      Nfs_client.close lm fd;
      (* Give the lease world time to settle, then force the flush path
         the classic client depends on. *)
      Nfs_client.fsync lm fd;
      Proc.sleep w.sim 6.0;
      let data = Nfs_client.read rm (Nfs_client.open_ rm "mixed") ~off:0 ~len:100 in
      Alcotest.(check string) "classic client reads it" "from-lease-client"
        (Bytes.to_string data))

(* ------------------------------------------------------------------ *)
(* Crash recovery: the grace period                                   *)
(* ------------------------------------------------------------------ *)

let test_second_crash_restarts_grace () =
  (* The lease table dies with the kernel, so a rebooted server refuses
     grants until every pre-crash lease must have expired.  A second
     crash *during* that grace period has to restart it: the new boot's
     table is just as empty as the first's.  Timeline (lease term 6 s,
     grace 1.5x = 9 s):

       t=10  crash #1   t=11  reboot #1  -> grace until 20
       t=15  crash #2 mid-grace
       t=16  reboot #2  -> grace restarted, until 25
       t=21  past where the first window ended, inside the restarted
             one: still vacated
       t=26  past the restarted window: granted again *)
  let w = make_world () in
  run_client w (fun () ->
      let x =
        Client_transport.create_udp_fixed w.client_udp
          ~server:(Net.Topology.server_id w.topo)
          ()
      in
      let root = Nfs_server.root_fhandle w.server in
      let ask () =
        match
          Client_transport.call x
            (P.Getlease
               {
                 P.lease_file = root;
                 lease_mode = P.Lease_read;
                 lease_duration = 6;
               })
        with
        | P.Rlease (Ok (Some _)) -> `Granted
        | P.Rlease (Ok None) -> `Vacated
        | _ -> Alcotest.fail "unexpected getlease reply"
      in
      Alcotest.(check bool) "granted on a healthy server" true
        (ask () = `Granted);
      Proc.sleep w.sim 10.0;
      Nfs_server.crash w.server;
      Proc.sleep w.sim 1.0;
      Nfs_server.reboot w.server;
      Proc.sleep w.sim 4.0;
      (* Second crash strikes mid-grace. *)
      Nfs_server.crash w.server;
      Proc.sleep w.sim 1.0;
      Nfs_server.reboot w.server;
      Proc.sleep w.sim 5.0;
      Alcotest.(check bool) "restarted grace still refuses at t=21" true
        (ask () = `Vacated);
      Proc.sleep w.sim 5.5;
      Alcotest.(check bool) "grants again once the restarted window ends"
        true
        (ask () = `Granted))

(* ------------------------------------------------------------------ *)
(* RPC economy: the paper's prediction                                *)
(* ------------------------------------------------------------------ *)

let test_lease_write_savings_on_andrew () =
  (* "A cache consistency protocol would reduce the number of write RPCs
     by at least half" is the paper's conclusion (comparing against the
     asynchronous policy); against our Reno baseline the temporaries and
     merged rewrites must show a clear saving, approaching noconsist. *)
  let writes opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let cfg =
          {
            Renofs_workload.Andrew.default_config with
            Renofs_workload.Andrew.source_files = 10;
            header_files = 5;
            compile_instructions_per_byte = 50.0;
          }
        in
        let r = Renofs_workload.Andrew.run m ~config:cfg () in
        List.assoc "write" r.Renofs_workload.Andrew.rpc_counts)
  in
  let reno = writes Nfs_client.reno_mount in
  let leased = writes Nfs_client.lease_mount in
  let noconsist = writes Nfs_client.noconsist_mount in
  Alcotest.(check bool) "leases cut write RPCs" true (leased < reno);
  Alcotest.(check bool) "leases within 25% of the unsafe bound" true
    (leased <= noconsist * 5 / 4)

let () =
  Alcotest.run "leases"
    [
      ( "single-client",
        [
          Alcotest.test_case "close does not push" `Quick test_close_does_not_push;
          Alcotest.test_case "leased reads skip getattr" `Quick test_leased_reads_skip_getattr;
          Alcotest.test_case "no own-write invalidation" `Quick
            test_reno_style_invalidation_avoided;
          Alcotest.test_case "renewal keeps data safe" `Quick
            test_lease_renewal_keeps_dirty_data_safe;
        ] );
      ( "cross-client",
        [
          Alcotest.test_case "reader forces writer flush" `Quick
            test_reader_forces_writer_flush;
          Alcotest.test_case "two readers share" `Quick test_two_readers_share;
          Alcotest.test_case "alternating writers" `Quick test_alternating_writers;
          Alcotest.test_case "coexists with plain mounts" `Quick
            test_lease_and_plain_mounts_coexist;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "second crash restarts grace" `Quick
            test_second_crash_restarts_grace;
        ] );
      ( "economy",
        [
          Alcotest.test_case "write savings on MAB" `Quick test_lease_write_savings_on_andrew;
        ] );
    ]
