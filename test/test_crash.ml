(* Statelessness under fire: "The stateless server concept was used so
   that crash recovery is trivial" (paper, Section 1).  These tests
   crash the server mid-workload and verify that clients recover by
   retransmission alone — and that the lease extension's grace period
   keeps its promises across reboots. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Trace = Renofs_trace.Trace
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
  Sim.run ~until:36_000.0 sim;
  match !result with Some r -> r | None -> Alcotest.fail "never finished"

let mount_in (topo, server, cudp, ctcp) opts =
  Nfs_client.mount ~udp:cudp ~tcp:ctcp
    ~server:(Net.Topology.server_id topo)
    ~root:(Nfs_server.root_fhandle server)
    opts

let test_hard_mount_rides_through_crash () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "before" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "pre-crash");
      Nfs_client.close m fd;
      (* Crash in the background while the client keeps working. *)
      Proc.spawn sim (fun () -> Nfs_server.crash_and_reboot server ~downtime:5.0);
      Proc.sleep sim 0.1;
      Alcotest.(check bool) "server is down" false (Nfs_server.is_up server);
      (* The hard mount blocks and retransmits until the reboot. *)
      let t0 = Sim.now sim in
      let fd2 = Nfs_client.create m "during" in
      Nfs_client.write m fd2 ~off:0 (Bytes.of_string "post-crash");
      Nfs_client.close m fd2;
      Alcotest.(check bool) "operation stalled across downtime" true
        (Sim.now sim -. t0 >= 4.0);
      (* Synchronously-written data from before the crash survives. *)
      let back = Nfs_client.read m (Nfs_client.open_ m "before") ~off:0 ~len:100 in
      Alcotest.(check string) "stable storage survived" "pre-crash"
        (Bytes.to_string back);
      Alcotest.(check bool) "client retransmitted" true
        (Client_transport.retransmits (Nfs_client.transport m) > 0))

let test_soft_mount_errors_during_crash () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let m =
        mount_in w { Nfs_client.reno_mount with Nfs_client.soft = true; retrans = 2 }
      in
      let fd = Nfs_client.create m "f" in
      Nfs_client.close m fd;
      Proc.spawn sim (fun () -> Nfs_server.crash_and_reboot server ~downtime:60.0);
      Proc.sleep sim 0.1;
      match Nfs_client.create m "g" with
      | _ -> Alcotest.fail "soft mount succeeded against a dead server"
      | exception Nfs_client.Nfs_error P.NFSERR_IO -> ())

let test_dup_cache_loss_is_harmless_for_idempotent () =
  (* After a reboot the duplicate cache is empty; retransmitted
     idempotent calls simply re-execute.  (This is also why the paper
     worries about the non-idempotent ones on a "heavily loaded
     server".) *)
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "idem" in
      Nfs_client.write m fd ~off:0 (Bytes.make 8192 'i');
      Nfs_client.close m fd;
      Proc.spawn sim (fun () -> Nfs_server.crash_and_reboot server ~downtime:3.0);
      Proc.sleep sim 0.1;
      (* Reads spanning the crash re-execute cleanly after reboot. *)
      let back = Nfs_client.read m (Nfs_client.open_ m "idem") ~off:0 ~len:8192 in
      Alcotest.(check bytes) "read re-executed" (Bytes.make 8192 'i') back)

let test_lease_grace_period () =
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let a = mount_in w Nfs_client.lease_mount in
      (* A acquires a write lease and leaves delayed data behind it. *)
      let fd = Nfs_client.create a "leased" in
      Nfs_client.write a fd ~off:0 (Bytes.of_string "v1");
      Nfs_client.close a fd;
      (* Server reboots: the lease table is gone, but A's write lease
         may still be live in A's memory. *)
      Nfs_server.crash_and_reboot server ~downtime:0.5;
      (* During the grace period every lease request is refused. *)
      let b = mount_in w Nfs_client.lease_mount in
      let probe = Nfs_client.stat b "leased" in
      (match
         Client_transport.call (Nfs_client.transport b)
           (P.Getlease
              { P.lease_file = probe.P.fileid; lease_mode = P.Lease_read;
                lease_duration = 6 })
       with
      | P.Rlease (Ok None) -> ()
      | _ -> Alcotest.fail "lease granted during the grace period");
      (* A's next renewal is refused too, forcing its delayed write
         back to the server within a couple of seconds; B must also wait
         out its own attribute-cache window (staleness within the attr
         timeout is NFS-legal). *)
      Proc.sleep sim 6.0;
      let fdb = Nfs_client.open_ b "leased" in
      Alcotest.(check string) "coherent after writer flush" "v1"
        (Bytes.to_string (Nfs_client.read b fdb ~off:0 ~len:10));
      (* After the grace period leases are granted again. *)
      Proc.sleep sim 8.0;
      match
        Client_transport.call (Nfs_client.transport b)
          (P.Getlease
             { P.lease_file = probe.P.fileid; lease_mode = P.Lease_read;
               lease_duration = 6 })
      with
      | P.Rlease (Ok (Some _)) -> ()
      | _ -> Alcotest.fail "lease still refused after the grace period")

let test_tcp_mount_survives_if_connection_lives () =
  (* The reboot resets every TCP connection; the NFS-over-TCP client
     must reconnect and replay its unanswered requests ("it maintains
     the connection", paper Section 2). *)
  let sim, topo, server, cudp, ctcp = make_world () in
  run sim (fun () ->
      let w = (topo, server, cudp, ctcp) in
      let m = mount_in w Nfs_client.reno_tcp_mount in
      let fd = Nfs_client.create m "tcp-pre" in
      Nfs_client.close m fd;
      Proc.spawn sim (fun () -> Nfs_server.crash_and_reboot server ~downtime:2.0);
      Proc.sleep sim 0.1;
      let fd2 = Nfs_client.create m "tcp-post" in
      Nfs_client.close m fd2;
      Alcotest.(check bool) "created after reboot" true
        ((Nfs_client.stat m "tcp-post").P.size >= 0))

let test_request_in_service_dies_with_the_server () =
  (* A crash 5 ms after the first WRITE reaches the server's socket
     queue catches requests inside the nfsds.  They die with the
     machine: no service is recorded while the server is down, no reply
     is sent, and the first service after the crash waits for the
     reboot 2 s later. *)
  let sim = Sim.create () in
  let quiet =
    { Net.Topology.default_params with cross_traffic = false; link_loss = 0.0 }
  in
  let topo =
    Net.Topology.build sim
      { Net.Topology.shape = Net.Topology.Lan; clients = 1; params = quiet }
  in
  let tr = Trace.create () in
  List.iter
    (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr })
    topo.Net.Topology.all;
  let sudp = Udp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  let armed = ref true in
  Trace.set_hook tr
    (Some
       (fun r ->
         match r.Trace.ev with
         | Trace.Srv_queue { proc = 8; _ } when !armed ->
             armed := false;
             Sim.at sim (r.Trace.time +. 0.005) (fun () ->
                 Nfs_server.crash server);
             Sim.at sim (r.Trace.time +. 2.005) (fun () ->
                 Nfs_server.reboot server)
         | _ -> ()));
  run sim (fun () ->
      let m = mount_in (topo, server, cudp, ctcp) Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.make (8 * 8192) 'c');
      Nfs_client.close m fd);
  let records = Trace.to_list tr in
  let down = ref false and served_while_down = ref 0 in
  let check = Renofs_fault.Fault.Check.create () in
  List.iter
    (fun r ->
      Renofs_fault.Fault.Check.observe check r;
      match r.Trace.ev with
      | Trace.Srv_crash -> down := true
      | Trace.Srv_reboot -> down := false
      | Trace.Srv_service _ when !down -> incr served_while_down
      | _ -> ())
    records;
  Alcotest.(check bool) "the crash caught a write" false !armed;
  Alcotest.(check int) "no service while down" 0 !served_while_down;
  Alcotest.(check bool) "recovery waits for the reboot" true
    (Renofs_fault.Fault.Check.recovery check >= 2.0)

let () =
  Alcotest.run "crash"
    [
      ( "statelessness",
        [
          Alcotest.test_case "hard mount rides through" `Quick
            test_hard_mount_rides_through_crash;
          Alcotest.test_case "soft mount errors" `Quick test_soft_mount_errors_during_crash;
          Alcotest.test_case "idempotent replay" `Quick
            test_dup_cache_loss_is_harmless_for_idempotent;
          Alcotest.test_case "lease grace period" `Quick test_lease_grace_period;
          Alcotest.test_case "tcp mount survives" `Quick
            test_tcp_mount_survives_if_connection_lives;
          Alcotest.test_case "request in service dies with the server" `Quick
            test_request_in_service_dies_with_the_server;
        ] );
    ]
