(* AUTH_UNIX permission enforcement on the server: the classic Unix
   mode-bit matrix applied to each NFS procedure. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module P = Nfs_proto

let make_world () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  (sim, topo, server, cudp, ctcp)

let run sim body =
  let result = ref None in
  Proc.spawn sim (fun () -> result := Some (body ()));
  Sim.run ~until:3600.0 sim;
  match !result with Some r -> r | None -> Alcotest.fail "never finished"

let mount_as (topo, server, cudp, ctcp) ~uid ~gid =
  Nfs_client.mount ~udp:cudp ~tcp:ctcp
    ~server:(Net.Topology.server_id topo)
    ~root:(Nfs_server.root_fhandle server)
    { Nfs_client.reno_mount with Nfs_client.uid; gid }

let expect_acces f =
  match f () with
  | exception Nfs_client.Nfs_error P.NFSERR_ACCES -> ()
  | exception Nfs_client.Nfs_error st ->
      Alcotest.failf "wrong error %d" (Obj.magic st : int)
  | _ -> Alcotest.fail "expected EACCES"

let test_owner_can_other_cannot_write () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let alice = mount_as w ~uid:100 ~gid:10 in
      let bob = mount_as w ~uid:200 ~gid:20 in
      (* Alice creates a 0644 file: she can write, Bob cannot. *)
      let fd = Nfs_client.create alice "alice.txt" in
      Nfs_client.write alice fd ~off:0 (Bytes.of_string "mine");
      Nfs_client.close alice fd;
      let fdb = Nfs_client.open_ bob "alice.txt" in
      Alcotest.(check string) "bob can read 0644" "mine"
        (Bytes.to_string (Nfs_client.read bob fdb ~off:0 ~len:10));
      expect_acces (fun () ->
          Nfs_client.write bob fdb ~off:0 (Bytes.of_string "hijack");
          (* write-through the denial *)
          Nfs_client.fsync bob fdb))

let test_mode_0600_hides_from_others () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let alice = mount_as w ~uid:100 ~gid:10 in
      let bob = mount_as w ~uid:200 ~gid:20 in
      (* Create via the server FS directly with a private mode. *)
      let fs = Nfs_server.fs server in
      let v =
        Fs.create_file fs ~dir:(Fs.root fs) "secret" ~mode:0o600 ~uid:100 ~gid:10 ()
      in
      Fs.write fs v ~off:0 (Bytes.of_string "classified");
      (* Owner reads fine. *)
      let fda = Nfs_client.open_ alice "secret" in
      Alcotest.(check string) "owner reads" "classified"
        (Bytes.to_string (Nfs_client.read alice fda ~off:0 ~len:20));
      (* Other is denied. *)
      expect_acces (fun () ->
          let fdb = Nfs_client.open_ bob "secret" in
          ignore (Nfs_client.read bob fdb ~off:0 ~len:20)))

let test_group_read () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let groupmate = mount_as w ~uid:300 ~gid:10 in
      let outsider = mount_as w ~uid:400 ~gid:40 in
      let fs = Nfs_server.fs server in
      let v =
        Fs.create_file fs ~dir:(Fs.root fs) "team" ~mode:0o640 ~uid:100 ~gid:10 ()
      in
      Fs.write fs v ~off:0 (Bytes.of_string "team data");
      let fd = Nfs_client.open_ groupmate "team" in
      Alcotest.(check string) "group member reads 0640" "team data"
        (Bytes.to_string (Nfs_client.read groupmate fd ~off:0 ~len:20));
      expect_acces (fun () ->
          let fd = Nfs_client.open_ outsider "team" in
          ignore (Nfs_client.read outsider fd ~off:0 ~len:20)))

let test_root_bypasses () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let root_mount = mount_as w ~uid:0 ~gid:0 in
      let fs = Nfs_server.fs server in
      let v =
        Fs.create_file fs ~dir:(Fs.root fs) "locked" ~mode:0o000 ~uid:500 ~gid:50 ()
      in
      Fs.write fs v ~off:0 (Bytes.of_string "root sees all");
      let fd = Nfs_client.open_ root_mount "locked" in
      Alcotest.(check string) "uid 0 reads mode 000" "root sees all"
        (Bytes.to_string (Nfs_client.read root_mount fd ~off:0 ~len:20)))

let test_unwritable_directory () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let bob = mount_as w ~uid:200 ~gid:20 in
      let fs = Nfs_server.fs server in
      let _ = Fs.mkdir fs ~dir:(Fs.root fs) "readonly" ~mode:0o755 ~uid:100 ~gid:10 () in
      expect_acces (fun () -> ignore (Nfs_client.create bob "readonly/new"));
      expect_acces (fun () -> Nfs_client.mkdir bob "readonly/sub"))

let test_unsearchable_directory_blocks_lookup () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let bob = mount_as w ~uid:200 ~gid:20 in
      let fs = Nfs_server.fs server in
      let d = Fs.mkdir fs ~dir:(Fs.root fs) "noexec" ~mode:0o600 ~uid:100 ~gid:10 () in
      let _ = Fs.create_file fs ~dir:d "inner" ~mode:0o644 ~uid:100 ~gid:10 () in
      expect_acces (fun () -> ignore (Nfs_client.stat bob "noexec/inner")))

(* A 0700 directory is listed to its owner only, by READDIR and by
   READDIRLOOK, which would also hand out each entry's attributes. *)
let test_unreadable_directory_is_not_listed () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let bob = mount_as w ~uid:200 ~gid:20 in
      let fs = Nfs_server.fs server in
      let d = Fs.mkdir fs ~dir:(Fs.root fs) "private" ~mode:0o700 ~uid:100 ~gid:10 () in
      let _ = Fs.create_file fs ~dir:d "secret-name" ~mode:0o644 ~uid:100 ~gid:10 () in
      let x = Nfs_client.transport bob in
      let listing = { P.rd_dir = Fs.ino d; cookie = 0; rd_count = 4096 } in
      (match Client_transport.call x (P.Readdir listing) with
      | P.Rreaddir (Error P.NFSERR_ACCES) -> ()
      | _ -> Alcotest.fail "READDIR listed a 0700 directory");
      match Client_transport.call x (P.Readdirlook listing) with
      | P.Rreaddirlook (Error P.NFSERR_ACCES) -> ()
      | _ -> Alcotest.fail "READDIRLOOK listed a 0700 directory")

let test_setattr_owner_only () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let alice = mount_as w ~uid:100 ~gid:10 in
      let fd = Nfs_client.create alice "own" in
      Nfs_client.write alice fd ~off:0 (Bytes.of_string "0123456789");
      Nfs_client.close alice fd;
      (* A foreign uid cannot truncate: drive Setattr through the raw
         transport of a bob mount. *)
      let bob = mount_as w ~uid:200 ~gid:20 in
      let a = Nfs_client.stat bob "own" in
      let x = Nfs_client.transport bob in
      (match
         Client_transport.call x
           (P.Setattr
              (a.P.fileid, { P.sattr_none with P.s_size = 0 }))
       with
      | P.Rattr (Error P.NFSERR_ACCES) -> ()
      | _ -> Alcotest.fail "foreign setattr allowed");
      (* The owner can. *)
      let xa = Nfs_client.transport alice in
      match
        Client_transport.call xa
          (P.Setattr (a.P.fileid, { P.sattr_none with P.s_size = 4 }))
      with
      | P.Rattr (Ok got) -> Alcotest.(check int) "truncated" 4 got.P.size
      | _ -> Alcotest.fail "owner setattr denied")

let () =
  Alcotest.run "access"
    [
      ( "permissions",
        [
          Alcotest.test_case "owner vs other write" `Quick test_owner_can_other_cannot_write;
          Alcotest.test_case "0600 private" `Quick test_mode_0600_hides_from_others;
          Alcotest.test_case "group read" `Quick test_group_read;
          Alcotest.test_case "root bypass" `Quick test_root_bypasses;
          Alcotest.test_case "unwritable dir" `Quick test_unwritable_directory;
          Alcotest.test_case "unsearchable dir" `Quick
            test_unsearchable_directory_blocks_lookup;
          Alcotest.test_case "unreadable dir" `Quick test_unreadable_directory_is_not_listed;
          Alcotest.test_case "setattr owner only" `Quick test_setattr_owner_only;
        ] );
    ]
