(* The MOUNT protocol and daemon: path-to-handle resolution and the
   full mount(8) sequence from the client. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Xdr = Renofs_xdr.Xdr
module MP = Mount_proto

let make_world () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  Mountd.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  (sim, topo, server, cudp, ctcp)

let run sim body =
  let result = ref None in
  Proc.spawn sim (fun () -> result := Some (body ()));
  Sim.run ~until:3600.0 sim;
  match !result with Some r -> r | None -> Alcotest.fail "never finished"

(* Protocol roundtrips. *)

let roundtrip_call call =
  let enc = Xdr.Enc.create () in
  MP.encode_call enc call;
  MP.decode_call ~proc:(MP.proc_of_call call) (Xdr.Dec.create (Xdr.Enc.chain enc))

let roundtrip_reply ~proc reply =
  let enc = Xdr.Enc.create () in
  MP.encode_reply enc reply;
  MP.decode_reply ~proc (Xdr.Dec.create (Xdr.Enc.chain enc))

let test_proto_roundtrips () =
  List.iter
    (fun call -> Alcotest.(check bool) "call" true (roundtrip_call call = call))
    [ MP.Mnt_null; MP.Mnt "/export/home" ];
  List.iter
    (fun (proc, reply) ->
      Alcotest.(check bool) "reply" true (roundtrip_reply ~proc reply = reply))
    [
      (0, MP.Rmnt_null);
      (1, MP.Rmnt (MP.Mnt_ok 42));
      (1, MP.Rmnt (MP.Mnt_error 2));
    ];
  (* DUMP, UMNT, UMNTALL and EXPORT are not served: no client sends
     them. *)
  List.iter
    (fun proc ->
      match MP.decode_call ~proc (Xdr.Dec.create (Xdr.Enc.chain (Xdr.Enc.create ()))) with
      | _ -> Alcotest.failf "MOUNT procedure %d decoded" proc
      | exception Xdr.Decode_error _ -> ())
    [ 2; 3; 4; 5 ]

(* The daemon end-to-end. *)

let test_mount_root_by_path () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let m =
        Nfs_client.mount_path ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo) ~path:"/" Nfs_client.reno_mount
      in
      let fd = Nfs_client.create m "via-mountd" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "resolved");
      Nfs_client.close m fd;
      let fs = Nfs_server.fs server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "via-mountd" in
      Alcotest.(check string) "data via path mount" "resolved"
        (Bytes.to_string (Renofs_vfs.Fs.read fs v ~off:0 ~len:10)))

let test_mount_subdirectory () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      (* Make /export/home on the server, then mount just that. *)
      let fs = Nfs_server.fs server in
      let export = Renofs_vfs.Fs.mkdir fs ~dir:(Renofs_vfs.Fs.root fs) "export" ~mode:0o755 () in
      let _home =
        Renofs_vfs.Fs.mkdir fs ~dir:export "home" ~mode:0o755 ~uid:100 ~gid:100 ()
      in
      let m =
        Nfs_client.mount_path ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo) ~path:"/export/home"
          Nfs_client.reno_mount
      in
      let fd = Nfs_client.create m "inside" in
      Nfs_client.close m fd;
      (* The file must exist under /export/home, not the root. *)
      let home = Renofs_vfs.Fs.lookup fs export "home" in
      Alcotest.(check bool) "created under the mounted subtree" true
        (Renofs_vfs.Fs.ino (Renofs_vfs.Fs.lookup fs home "inside") > 0))

let test_mount_missing_path_denied () =
  let sim, topo, _server, cudp, ctcp = make_world () in
  run sim (fun () ->
      match
        Nfs_client.mount_path ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo) ~path:"/no/such/dir"
          Nfs_client.reno_mount
      with
      | _ -> Alcotest.fail "mount of missing path succeeded"
      | exception Nfs_client.Mount_failed msg ->
          Alcotest.(check bool) "errno surfaced" true
            (String.length msg > 0))

let test_two_mounts_from_one_client () =
  (* mountd keeps no record of who mounted what: a client mounting the
     same path twice, over UDP and over TCP, gets the same handle. *)
  let sim, topo, _server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let mount opts =
        Nfs_client.mount_path ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo) ~path:"/" opts
      in
      let m1 = mount Nfs_client.reno_mount in
      let m2 = mount Nfs_client.reno_tcp_mount in
      let fd = Nfs_client.create m1 "seen-twice" in
      Nfs_client.write m1 fd ~off:0 (Bytes.of_string "one root");
      Nfs_client.close m1 fd;
      Alcotest.(check string) "second mount sees the first's file" "one root"
        (Bytes.to_string
           (Nfs_client.read m2 (Nfs_client.open_ m2 "seen-twice") ~off:0 ~len:8)))

let test_mountd_no_daemon () =
  (* Without a mount daemon the path mount must fail in bounded time. *)
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let sudp = Udp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  run sim (fun () ->
      match
        Nfs_client.mount_path ~udp:cudp ~server:(Net.Topology.server_id topo)
          ~path:"/" Nfs_client.reno_mount
      with
      | _ -> Alcotest.fail "mounted without a daemon"
      | exception Nfs_client.Mount_failed _ -> ())

let () =
  Alcotest.run "mountd"
    [
      ("protocol", [ Alcotest.test_case "roundtrips" `Quick test_proto_roundtrips ]);
      ( "daemon",
        [
          Alcotest.test_case "mount root by path" `Quick test_mount_root_by_path;
          Alcotest.test_case "mount subdirectory" `Quick test_mount_subdirectory;
          Alcotest.test_case "missing path denied" `Quick test_mount_missing_path_denied;
          Alcotest.test_case "two mounts from one client" `Quick
            test_two_mounts_from_one_client;
          Alcotest.test_case "no daemon: bounded failure" `Quick test_mountd_no_daemon;
        ] );
    ]
