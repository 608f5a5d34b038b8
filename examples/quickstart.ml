(* Quickstart: build a simulated LAN, start an NFS server on one host,
   mount it from the other, and do ordinary file I/O through the
   syscall-level client.

     dune exec examples/quickstart.exe *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Topology = Renofs_net.Topology
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport

let () =
  (* One simulator owns the whole world. *)
  let sim = Sim.create () in

  (* Two 0.9 MIPS MicroVAXII-class hosts on one Ethernet. *)
  let topo = Topology.build sim Topology.default_spec in

  (* Protocol stacks, the server and its filesystem. *)
  let server_udp = Udp.install topo.Topology.server in
  let server_tcp = Tcp.install topo.Topology.server in
  let server =
    Nfs_server.create topo.Topology.server ~udp:server_udp ~tcp:server_tcp ()
  in
  Nfs_server.start server;
  let client_udp = Udp.install topo.Topology.client in
  let client_tcp = Tcp.install topo.Topology.client in

  (* Everything that touches the simulated world runs as a process. *)
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:client_udp ~tcp:client_tcp
          ~server:(Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      in
      Nfs_client.mkdir m "home";
      let fd = Nfs_client.create m "home/hello.txt" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "hello from 1991!");
      Nfs_client.close m fd;

      let fd = Nfs_client.open_ m "home/hello.txt" in
      let data = Nfs_client.read m fd ~off:0 ~len:100 in
      Printf.printf "read back: %S\n" (Bytes.to_string data);

      let a = Nfs_client.stat m "home/hello.txt" in
      Printf.printf "size=%d bytes, took %.1f ms of virtual time so far\n"
        a.Renofs_core.Nfs_proto.size
        (Sim.now sim *. 1000.0);

      let s = Client_transport.summary (Nfs_client.transport m) in
      Printf.printf "RPCs: %d calls, %d retransmits, mean RTT %.1f ms\n"
        s.Client_transport.calls s.Client_transport.retransmits
        (s.Client_transport.mean_rtt *. 1000.0);
      Printf.printf "server served %d RPCs: %s\n"
        (Nfs_server.rpcs_served server)
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Client_transport.calls_by_proc (Nfs_client.transport m)))));
  (* The mount keeps a 30-second sync daemon alive, so bound the run. *)
  Sim.run ~until:60.0 sim
