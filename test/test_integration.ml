(* Cross-client integration tests: the consistency semantics of
   Section 1 and Section 5 observed end-to-end through two independent
   mounts of one server. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
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

(* ------------------------------------------------------------------ *)
(* Close/open consistency                                             *)
(* ------------------------------------------------------------------ *)

let test_close_open_consistency () =
  (* "a client opening file X for reading after another client that was
     writing to file X does a close, is guaranteed to see those
     changes" (Section 1). *)
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create a "shared" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "version-1");
      Nfs_client.close a fd;
      (* B opens after A's close: must see version-1. *)
      let fdb = Nfs_client.open_ b "shared" in
      Alcotest.(check string) "b sees v1" "version-1"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:100));
      Nfs_client.close b fdb;
      (* A rewrites and closes again. *)
      let fd = Nfs_client.open_ a "shared" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "version-2");
      Nfs_client.close a fd;
      (* B must not serve its stale cache on a fresh open once its
         cached attributes have expired. *)
      Proc.sleep w.sim 6.0;
      let fdb = Nfs_client.open_ b "shared" in
      Alcotest.(check string) "b sees v2 after close" "version-2"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:100)))

let test_staleness_bounded_by_attr_timeout () =
  (* "cached data will be consistent with that of the server to within a
     few seconds" — within the window, stale data is permitted; after
     it, the change must be visible. *)
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create a "f" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "old");
      Nfs_client.close a fd;
      let fdb = Nfs_client.open_ b "f" in
      ignore (Nfs_client.read b fdb ~off:0 ~len:10);
      (* A updates behind B's back. *)
      let fda = Nfs_client.open_ a "f" in
      Nfs_client.write a fda ~off:0 (Bytes.of_string "new");
      Nfs_client.close a fda;
      (* Past the attribute timeout B revalidates and must see it. *)
      Proc.sleep w.sim 6.0;
      Alcotest.(check string) "b sees update within seconds" "new"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:10)))

let test_noconsist_never_revalidates () =
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.noconsist_mount in
      let fd = Nfs_client.create a "f" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "old");
      Nfs_client.close a fd;
      let fdb = Nfs_client.open_ b "f" in
      Alcotest.(check string) "b reads old" "old"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:10));
      let fda = Nfs_client.open_ a "f" in
      Nfs_client.write a fda ~off:0 (Bytes.of_string "new");
      Nfs_client.close a fda;
      Proc.sleep w.sim 20.0;
      (* The experimental mount flag disables the consistency checks:
         B keeps serving its cache indefinitely. *)
      Alcotest.(check string) "b still serves stale cache" "old"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:10)))

(* Each named mount's consistency rule, pinned by five probes with the
   write policy held at [Delayed] so that only the rule varies:
   - bytes of a 100-byte partial write on the server when [close]
     returns (the push on close);
   - READ RPCs to reread that file after [open_] (whether the mount's
     own writes invalidate its cache);
   - write RPCs issued by a [read] of the mount's own dirty 100-byte
     block (the push before read);
   - write RPCs for one full block within 1 s, before close (whether
     full blocks are delayed);
   - whether any GETLEASE went out. *)
let rule_probes w tag opts =
  let m = mount_in w { opts with Nfs_client.write_policy = Nfs_client.Delayed } in
  let count procs =
    let calls = Client_transport.calls_by_proc (Nfs_client.transport m) in
    List.fold_left
      (fun n p -> n + Option.value ~default:0 (List.assoc_opt p calls))
      0 procs
  in
  let during procs f =
    let before = count procs in
    f ();
    count procs - before
  in
  let writes = [ "write"; "write3" ] in
  let closed = tag ^ "-closed" in
  let fd = Nfs_client.create m closed in
  Nfs_client.write m fd ~off:0 (Bytes.make 100 'c');
  Nfs_client.close m fd;
  let fs = Nfs_server.fs w.server in
  let vnode = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) closed in
  let on_server = Bytes.length (Renofs_vfs.Fs.read fs vnode ~off:0 ~len:100) in
  let rereads =
    during [ "read" ] (fun () ->
        let fd = Nfs_client.open_ m closed in
        ignore (Nfs_client.read m fd ~off:0 ~len:100);
        Nfs_client.close m fd)
  in
  let fd = Nfs_client.create m (tag ^ "-dirty") in
  Nfs_client.write m fd ~off:0 (Bytes.make 100 'd');
  let pushed_by_read = during writes (fun () -> ignore (Nfs_client.read m fd ~off:0 ~len:100)) in
  Nfs_client.close m fd;
  let fd = Nfs_client.create m (tag ^ "-full") in
  let block = Nfs_client.current_transfer_size m in
  let early =
    during writes (fun () ->
        Nfs_client.write m fd ~off:0 (Bytes.make block 'f');
        Proc.sleep w.sim 1.0)
  in
  Nfs_client.close m fd;
  (on_server, rereads, pushed_by_read, early, count [ "getlease" ] > 0)

(* One row of the table, naming each decision beside its probe. *)
let rule_row (on_server, rereads, pushed_by_read, early, leased) =
  Printf.sprintf
    "push on close %d B | own writes invalidate %d READ | push before read %d | \
     full block early %d | leases %b"
    on_server rereads pushed_by_read early leased

let test_rule_table () =
  let w = make_world () in
  let rows =
    [
      ("reno", Nfs_client.reno_mount, (100, 1, 1, 1, false));
      ("reno_nopush", Nfs_client.reno_nopush_mount, (0, 1, 1, 1, false));
      ("ultrix", Nfs_client.ultrix_mount, (100, 0, 0, 1, false));
      ("noconsist", Nfs_client.noconsist_mount, (0, 0, 0, 0, false));
      ("lease", Nfs_client.lease_mount, (0, 0, 0, 0, true));
      ("v3", Nfs_client.v3_mount, (100, 1, 1, 1, false));
    ]
  in
  run_client w (fun () ->
      List.iter
        (fun (tag, opts, expected) ->
          Alcotest.(check string) tag (rule_row expected) (rule_row (rule_probes w tag opts)))
        rows)

let test_disjoint_writers_merge () =
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.reno_mount in
      let fda = Nfs_client.create a "merged" in
      Nfs_client.write a fda ~off:0 (Bytes.of_string "AAAA");
      Nfs_client.close a fda;
      let fdb = Nfs_client.open_ b "merged" in
      Nfs_client.write b fdb ~off:4 (Bytes.of_string "BBBB");
      Nfs_client.close b fdb;
      Proc.sleep w.sim 6.0;
      let c = mount_in w Nfs_client.reno_mount in
      let fdc = Nfs_client.open_ c "merged" in
      Alcotest.(check string) "both writes visible" "AAAABBBB"
        (Bytes.to_string (Nfs_client.read c fdc ~off:0 ~len:20)))

let test_stale_handle_after_remove () =
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create a "doomed" in
      Nfs_client.write a fd ~off:0 (Bytes.make 20000 'x');
      Nfs_client.close a fd;
      let fdb = Nfs_client.open_ b "doomed" in
      ignore (Nfs_client.read b fdb ~off:0 ~len:10);
      Nfs_client.unlink a "doomed";
      (* B's handle is now dead on the stateless server; uncached reads
         must surface ESTALE. *)
      Proc.sleep w.sim 6.0;
      match Nfs_client.read b fdb ~off:16384 ~len:100 with
      | exception Nfs_client.Nfs_error P.NFSERR_STALE -> ()
      | _ -> Alcotest.fail "expected NFSERR_STALE")

let test_rename_visible_across_clients () =
  let w = make_world () in
  run_client w (fun () ->
      let a = mount_in w Nfs_client.reno_mount in
      let b = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create a "from" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "payload");
      Nfs_client.close a fd;
      ignore (Nfs_client.stat b "from");
      Nfs_client.rename a "from" "to";
      Proc.sleep w.sim 6.0;
      (* B's cached name for "from" must be revalidated away. *)
      (match Nfs_client.stat b "from" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "stale name served after rename");
      Alcotest.(check string) "new name readable" "payload"
        (Bytes.to_string (Nfs_client.read b (Nfs_client.open_ b "to") ~off:0 ~len:10)))

let test_mixed_transports_share_server () =
  let w = make_world () in
  run_client w (fun () ->
      let udp_mount = mount_in w Nfs_client.reno_mount in
      let tcp_mount = mount_in w Nfs_client.reno_tcp_mount in
      let fd = Nfs_client.create udp_mount "cross" in
      Nfs_client.write udp_mount fd ~off:0 (Bytes.of_string "via-udp");
      Nfs_client.close udp_mount fd;
      let fd2 = Nfs_client.open_ tcp_mount "cross" in
      Alcotest.(check string) "tcp mount reads udp mount's data" "via-udp"
        (Bytes.to_string (Nfs_client.read tcp_mount fd2 ~off:0 ~len:10)))

let test_many_concurrent_clients () =
  (* Stress: several mounts hammering one server stay coherent. *)
  let w = make_world () in
  let total = 6 in
  let finished = ref 0 in
  for i = 0 to total - 1 do
    Proc.spawn w.sim (fun () ->
        let m =
          mount_in w
            (if i mod 2 = 0 then Nfs_client.reno_mount else Nfs_client.reno_tcp_mount)
        in
        let name = Printf.sprintf "c%d" i in
        Nfs_client.mkdir m name;
        for j = 0 to 9 do
          let f = Printf.sprintf "%s/f%d" name j in
          let fd = Nfs_client.create m f in
          Nfs_client.write m fd ~off:0 (Bytes.make (1000 * (j + 1)) (Char.chr (65 + i)));
          Nfs_client.close m fd
        done;
        for j = 0 to 9 do
          let f = Printf.sprintf "%s/f%d" name j in
          let fd = Nfs_client.open_ m f in
          let data = Nfs_client.read m fd ~off:0 ~len:20000 in
          Alcotest.(check int) "size" (1000 * (j + 1)) (Bytes.length data);
          Bytes.iter
            (fun c -> if c <> Char.chr (65 + i) then Alcotest.fail "cross-client corruption")
            data
        done;
        incr finished)
  done;
  Sim.run ~until:36_000.0 w.sim;
  Alcotest.(check int) "all clients finished" total !finished;
  (* The server saw work from everyone. *)
  Alcotest.(check bool) "server busy" true (Nfs_server.rpcs_served w.server > 100)

let test_server_counters_match_client_counters () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.make 20000 'z');
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:20000);
      ignore (Nfs_client.readdir m "/");
      (* Every client-issued RPC must have been served exactly once
         (clean LAN: no retransmissions, no duplicates). *)
      let client_total =
        List.fold_left ( + ) 0
          (List.map snd
             (Client_transport.calls_by_proc (Nfs_client.transport m)))
      in
      Alcotest.(check int) "rpc conservation" client_total
        (Nfs_server.rpcs_served w.server))

let test_cpu_accounting_conservation () =
  (* Sanity for the measurement harness: both hosts accumulate busy
     time, and neither exceeds wall time. *)
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      for i = 0 to 9 do
        let fd = Nfs_client.create m (Printf.sprintf "f%d" i) in
        Nfs_client.write m fd ~off:0 (Bytes.make 8192 'c');
        Nfs_client.close m fd
      done);
  let elapsed = Sim.now w.sim in
  List.iter
    (fun node ->
      let busy = Cpu.busy_time (Net.Node.cpu node) in
      Alcotest.(check bool) "busy positive" true (busy > 0.0);
      Alcotest.(check bool) "busy bounded by elapsed" true (busy <= elapsed))
    [ w.topo.Net.Topology.client; w.topo.Net.Topology.server ]

(* Model-based property: random single-writer-per-file operations from
   two clients, with barriers long enough for the consistency window,
   must leave both clients agreeing with a flat model of the files. *)
let prop_two_client_model =
  QCheck.Test.make ~name:"two clients converge on the model" ~count:12
    QCheck.(list_of_size Gen.(int_range 4 12) (pair (int_bound 1) (int_bound 9999)))
    (fun ops ->
      let w = make_world () in
      run_client w (fun () ->
          let a = mount_in w Nfs_client.reno_mount in
          let b = mount_in w Nfs_client.reno_mount in
          let client i = if i = 0 then a else b in
          let model = Hashtbl.create 8 in
          List.iteri
            (fun i (who, seed) ->
              let m = client who in
              (* Each op writes a whole small file and closes: the
                 close/open consistency unit. *)
              let name = Printf.sprintf "mf%d" (seed mod 4) in
              let size = 100 + (seed mod 900) in
              let byte = Char.chr (65 + (i mod 26)) in
              let fd = Nfs_client.create m name in
              Nfs_client.write m fd ~off:0 (Bytes.make size byte);
              Nfs_client.close m fd;
              Hashtbl.replace model name (size, byte);
              (* Let every attribute window expire before the next
                 client touches anything. *)
              Proc.sleep w.sim 6.0)
            ops;
          (* Both clients must now read back exactly the model. *)
          Hashtbl.fold
            (fun name (size, byte) acc ->
              acc
              && List.for_all
                   (fun m ->
                     let fd = Nfs_client.open_ m name in
                     let data = Nfs_client.read m fd ~off:0 ~len:(size * 2) in
                     Nfs_client.close m fd;
                     Bytes.equal data (Bytes.make size byte))
                   [ a; b ])
            model true))

let () =
  Alcotest.run "integration"
    [
      ( "consistency",
        [
          Alcotest.test_case "close/open" `Quick test_close_open_consistency;
          Alcotest.test_case "staleness bounded" `Quick test_staleness_bounded_by_attr_timeout;
          Alcotest.test_case "noconsist stays stale" `Quick test_noconsist_never_revalidates;
          Alcotest.test_case "one row per mount's rule" `Quick test_rule_table;
          Alcotest.test_case "disjoint writers merge" `Quick test_disjoint_writers_merge;
          Alcotest.test_case "stale handle" `Quick test_stale_handle_after_remove;
          Alcotest.test_case "rename across clients" `Quick test_rename_visible_across_clients;
        ] );
      ( "coexistence",
        [
          Alcotest.test_case "mixed transports" `Quick test_mixed_transports_share_server;
          Alcotest.test_case "many clients" `Quick test_many_concurrent_clients;
          Alcotest.test_case "rpc conservation" `Quick test_server_counters_match_client_counters;
          Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting_conservation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_two_client_model ]);
    ]
