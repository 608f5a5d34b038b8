(* Statelessness in action: crash the server in the middle of a
   workload and watch the client ride through on retransmission alone —
   "the stateless server concept was used so that crash recovery is
   trivial" (paper, Section 1).  Act two plays the same crash against
   the v3 UNSTABLE+COMMIT profile, where recovery is *not* free: the
   server legally drops unacknowledged-durable data, and the client's
   write verifier check has to notice and rewrite.

     dune exec examples/crash_recovery.exe *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Node = Renofs_net.Node
module Topology = Renofs_net.Topology
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Trace = Renofs_trace.Trace
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport

let () =
  let sim = Sim.create () in
  let topo = Topology.build sim Topology.default_spec in
  let sudp = Udp.install topo.Topology.server in
  let stcp = Tcp.install topo.Topology.server in
  let server = Nfs_server.create topo.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Topology.client in
  let ctcp = Tcp.install topo.Topology.client in

  (* The client hammers away, oblivious to what is coming. *)
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp ~server:(Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      in
      for i = 1 to 20 do
        let name = Printf.sprintf "f%02d" i in
        let t0 = Sim.now sim in
        let fd = Nfs_client.create m name in
        Nfs_client.write m fd ~off:0 (Bytes.make 4096 'd');
        Nfs_client.close m fd;
        let dt = Sim.now sim -. t0 in
        Printf.printf "t=%6.2fs  created %s%s\n" (Sim.now sim) name
          (if dt > 1.0 then Printf.sprintf "   <- stalled %.1fs across the crash" dt
           else "")
      done;
      (* Everything written before, during and after the outage is on
         stable storage. *)
      let survived = Nfs_client.readdir m "/" in
      Printf.printf "\nafter recovery the server holds %d files; client retransmitted %d times\n"
        (List.length survived)
        (Client_transport.retransmits (Nfs_client.transport m)));

  (* Meanwhile: the server dies at t=2s for 6 seconds, losing its buffer
     cache, name cache, duplicate-request cache and lease table.  The
     synchronously-written filesystem is its only memory — and the only
     one it needs. *)
  Proc.spawn sim (fun () ->
      Proc.sleep sim 2.0;
      Printf.printf "t=%6.2fs  *** server crash ***\n" (Sim.now sim);
      Nfs_server.crash_and_reboot server ~downtime:6.0;
      Printf.printf "t=%6.2fs  *** server back up (volatile state gone) ***\n"
        (Sim.now sim));

  Sim.run ~until:120.0 sim;
  print_endline "\n(no client-side error handling was involved: the RPC layer's";
  print_endline " timeout/retransmit discipline is the entire recovery protocol)";

  (* -------------------------------------------------------------- *)
  (* Act two: the same crash under the v3 async-write protocol.      *)
  (* UNSTABLE writes live only in the server's buffer cache until a  *)
  (* COMMIT; a crash between the two drops them, legally.  The per-  *)
  (* boot write verifier is how the client finds out.                *)
  (* -------------------------------------------------------------- *)
  print_endline "\n=== act two: v3 UNSTABLE writes across the same crash ===\n";
  let sim = Sim.create () in
  let topo = Topology.build sim Topology.default_spec in
  let tr = Trace.create () in
  List.iter
    (fun n -> Node.attach n { Node.detached with Node.trace = Some tr })
    topo.Topology.all;
  let sudp = Udp.install topo.Topology.server in
  let stcp = Tcp.install topo.Topology.server in
  let server = Nfs_server.create topo.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Topology.client in
  let ctcp = Tcp.install topo.Topology.client in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp ~server:(Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.v3_mount
      in
      let fd = Nfs_client.create m "ledger" in
      (* A full 32K block goes out asynchronously as UNSTABLE. *)
      Nfs_client.write m fd ~off:0
        (Bytes.make Nfs_client.v3_mount.Nfs_client.bsize 'v');
      Proc.sleep sim 2.0;
      Printf.printf
        "t=%6.2fs  wrote 32K UNSTABLE; server buffers %d volatile bytes under verifier %d\n"
        (Sim.now sim)
        (Nfs_server.unstable_bytes server)
        (Nfs_server.write_verf server);
      Printf.printf "t=%6.2fs  *** server crash: the buffered data is gone ***\n"
        (Sim.now sim);
      Nfs_server.crash_and_reboot server ~downtime:3.0;
      Printf.printf "t=%6.2fs  *** server back up, new verifier %d ***\n"
        (Sim.now sim)
        (Nfs_server.write_verf server);
      (* fsync = flush + COMMIT.  The COMMIT reply's verifier no longer
         matches the one the UNSTABLE ack carried, so the client
         rewrites the lost ranges before fsync is allowed to return. *)
      Nfs_client.fsync m fd;
      Nfs_client.close m fd;
      let mismatches =
        List.length
          (List.filter
             (fun r ->
               match r.Trace.ev with Trace.Verf_mismatch _ -> true | _ -> false)
             (Trace.to_list tr))
      in
      Printf.printf
        "t=%6.2fs  fsync returned: %d verifier mismatch detected, ranges rewritten\n"
        (Sim.now sim) mismatches;
      Printf.printf
        "          server now buffers %d volatile bytes; the 32K is on stable storage\n"
        (Nfs_server.unstable_bytes server));
  Sim.run ~until:120.0 sim;
  print_endline "\n(the write-behind ledger is the client-side half of COMMIT:";
  print_endline " nothing is forgotten until a COMMIT under the same boot verifier";
  print_endline " covers it — a lost verifier means rewrite, not lost data)"
