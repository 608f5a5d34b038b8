(* The fleet layer: shard placement is deterministic under a fixed
   seed, every mount point has exactly one owner, the Hash policy
   keeps fleets balanced, a real multi-server world serves mounts
   end-to-end, the recovery invariants stay green (6/6) when one shard
   server crash/reboots mid-run, and the fleet experiment family is
   byte-identical at any --jobs. *)

open Renofs_core
module Net = Renofs_net
module Topology = Net.Topology
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Fs = Renofs_vfs.Fs
module Trace = Renofs_trace.Trace
module Fault = Renofs_fault.Fault
module Check = Fault.Check
module Fleet = Renofs_fleet.Fleet
module E = Renofs_workload.Experiments
module Bench_json = Renofs_workload.Bench_json

let shard_names n = List.init n (fun i -> Printf.sprintf "/home%d" i)

(* ---------------------------------------------------------------- *)
(* Shard maps                                                       *)
(* ---------------------------------------------------------------- *)

let test_policy_determinism () =
  let names = shard_names 100 in
  List.iter
    (fun policy ->
      let place () =
        let m = Fleet.Shard_map.create ~seed:7 policy ~servers:4 in
        List.iter (fun s -> ignore (Fleet.Shard_map.assign m s)) names;
        Fleet.Shard_map.assignments m
      in
      Alcotest.(check bool)
        (Fleet.policy_name policy ^ " deterministic under fixed seed")
        true
        (place () = place ()))
    [ Fleet.Round_robin; Fleet.Hash; Fleet.Least_loaded ];
  (* The seed actually perturbs the Hash placement. *)
  let with_seed seed =
    let m = Fleet.Shard_map.create ~seed Fleet.Hash ~servers:4 in
    List.iter (fun s -> ignore (Fleet.Shard_map.assign m s)) names;
    Fleet.Shard_map.assignments m
  in
  Alcotest.(check bool) "seed changes hash placement" false
    (with_seed 0 = with_seed 1)

let test_every_shard_has_one_owner () =
  let names = shard_names 100 in
  let m = Fleet.Shard_map.create Fleet.Hash ~servers:4 in
  List.iter
    (fun s ->
      let first = Fleet.Shard_map.assign m s in
      Alcotest.(check bool) (s ^ " in range") true (first >= 0 && first < 4);
      Alcotest.(check int) (s ^ " sticky") first (Fleet.Shard_map.assign m s);
      Alcotest.(check (option int)) (s ^ " find agrees") (Some first)
        (Fleet.Shard_map.find m s))
    names;
  Alcotest.(check int) "one assignment per shard" 100
    (List.length (Fleet.Shard_map.assignments m));
  Alcotest.(check int) "loads sum to shards" 100
    (Array.fold_left ( + ) 0 (Fleet.Shard_map.loads m));
  Alcotest.(check (option int)) "find never places" None
    (Fleet.Shard_map.find m "/never-assigned")

let max_over_mean loads =
  let total = Array.fold_left ( + ) 0 loads in
  let mean = float_of_int total /. float_of_int (Array.length loads) in
  float_of_int (Array.fold_left max 0 loads) /. mean

let test_placement_balance () =
  let names = shard_names 100 in
  (* Hash must stay within the fleet experiment's balance bound for
     any seed; round-robin and least-loaded are perfect by design. *)
  List.iter
    (fun seed ->
      let m = Fleet.Shard_map.create ~seed Fleet.Hash ~servers:4 in
      List.iter (fun s -> ignore (Fleet.Shard_map.assign m s)) names;
      let skew = max_over_mean (Fleet.Shard_map.loads m) in
      if skew > 1.25 then
        Alcotest.failf "hash skew %.2f > 1.25 at seed %d" skew seed)
    [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun policy ->
      let m = Fleet.Shard_map.create policy ~servers:4 in
      List.iter (fun s -> ignore (Fleet.Shard_map.assign m s)) names;
      Alcotest.(check (array int))
        (Fleet.policy_name policy ^ " perfectly even")
        [| 25; 25; 25; 25 |]
        (Fleet.Shard_map.loads m))
    [ Fleet.Round_robin; Fleet.Least_loaded ]

let test_shard_map_errors () =
  Alcotest.check_raises "zero servers"
    (Invalid_argument "Fleet.Shard_map.create: needs at least one server")
    (fun () -> ignore (Fleet.Shard_map.create Fleet.Hash ~servers:0));
  Alcotest.check_raises "unknown policy"
    (Invalid_argument "Fleet.policy_of_name: unknown policy best-fit")
    (fun () -> ignore (Fleet.policy_of_name "best-fit"));
  List.iter
    (fun p ->
      Alcotest.(check bool) "name round-trips" true
        (Fleet.policy_of_name (Fleet.policy_name p) = p))
    [ Fleet.Round_robin; Fleet.Hash; Fleet.Least_loaded ]

(* ---------------------------------------------------------------- *)
(* A real two-server world                                          *)
(* ---------------------------------------------------------------- *)

let quiet_params =
  { Topology.default_params with cross_traffic = false; link_loss = 0.0 }

let two_server_world sim ~clients =
  Topology.build_graph sim
    {
      Topology.g_servers = 2;
      g_clients = clients;
      g_tier = Topology.Backbone 1;
      g_wan_fraction = 0.0;
      g_params = quiet_params;
    }

let test_fleet_mounts_end_to_end () =
  let sim = Sim.create () in
  let topo = two_server_world sim ~clients:1 in
  let fleet = Fleet.create ~policy:Fleet.Hash ~shards:4 topo.Topology.servers in
  let cudp = Udp.install topo.Topology.client in
  let finished = ref false in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      List.iter
        (fun shard ->
          let m = Fleet.mount_shard fleet ~udp:cudp ~shard Nfs_client.reno_mount in
          let fd = Nfs_client.create m "probe" in
          Nfs_client.write m fd ~off:0 (Bytes.of_string ("hello" ^ shard));
          Nfs_client.close m fd;
          let back = Nfs_client.read m (Nfs_client.open_ m "probe") ~off:0 ~len:100 in
          Alcotest.(check string) (shard ^ " readable") ("hello" ^ shard)
            (Bytes.to_string back))
        (Fleet.shards fleet);
      (* Each shard directory exists on exactly the server the map
         names (Fs runs server-side, so still inside the process). *)
      Fleet.iter_shards fleet (fun ~shard ~server ->
          let fs = Nfs_server.fs server in
          let name = String.sub shard 1 (String.length shard - 1) in
          ignore (Fs.lookup fs (Fs.root fs) name));
      finished := true);
  Sim.run ~until:600.0 sim;
  Alcotest.(check bool) "finished" true !finished;
  Alcotest.(check bool) "work spread over both servers" true
    (List.for_all
       (fun srv -> Nfs_server.rpcs_served srv > 0)
       (Fleet.servers fleet));
  Alcotest.(check bool) "served something" true (Fleet.total_served fleet > 0);
  Alcotest.(check bool) "balance within bound" true (Fleet.balance fleet <= 2.0)

(* ---------------------------------------------------------------- *)
(* One shard server crashes mid-run: invariants stay 6/6            *)
(* ---------------------------------------------------------------- *)

let test_shard_server_crash_invariants () =
  let sim = Sim.create () in
  let topo = two_server_world sim ~clients:1 in
  let tr = Trace.create ~capacity:(1 lsl 16) () in
  List.iter (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr }) topo.Topology.all;
  (* Round-robin places /home0 on server0 and /home1 on server1, so
     the crash target is known by name. *)
  let fleet =
    Fleet.create ~policy:Fleet.Round_robin ~shards:2 topo.Topology.servers
  in
  Fault.install
    { Fault.sim; nodes = topo.Topology.all; servers = Fleet.servers fleet; trace = Some tr }
    {
      Fault.name = "shard-crash";
      description = "server1 crashes at 1s for 3s";
      actions = [ Fault.Server_crash { at = 1.0; downtime = 3.0; server = "server1" } ];
    };
  let survivor = List.nth (Fleet.servers fleet) 0 in
  let victim = List.nth (Fleet.servers fleet) 1 in
  (* Per-name targeting: mid-downtime only server1 is down. *)
  let checked_mid_downtime = ref false in
  Proc.spawn sim (fun () ->
      Proc.sleep sim 2.0;
      Alcotest.(check bool) "victim down mid-run" false (Nfs_server.is_up victim);
      Alcotest.(check bool) "survivor untouched" true (Nfs_server.is_up survivor);
      checked_mid_downtime := true);
  let cudp = Udp.install topo.Topology.client in
  let ledger = ref [] in
  let finished = ref false in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      (* A hard mount of the crashing server's shard: writes span the
         outage and must ride through. *)
      let m = Fleet.mount_shard fleet ~udp:cudp ~shard:"/home1" Nfs_client.reno_mount in
      for i = 0 to 3 do
        let name = Printf.sprintf "f%d" i in
        let data = Bytes.of_string (Printf.sprintf "extent-%d" i) in
        let fd = Nfs_client.create m name in
        Nfs_client.write m fd ~off:0 data;
        Nfs_client.close m fd;
        ledger := (i, 0, data) :: !ledger;
        Proc.sleep sim 0.7
      done;
      finished := true);
  Sim.run ~until:600.0 sim;
  Alcotest.(check bool) "probe ran" true !checked_mid_downtime;
  Alcotest.(check bool) "writes rode through the crash" true !finished;
  Alcotest.(check bool) "victim rebooted" true (Nfs_server.is_up victim);
  (* Reading back goes through Fs (charges server CPU), so the checks
     run in a fresh process on the quiesced sim. *)
  let verdicts_ref = ref [] in
  Proc.spawn sim (fun () ->
      let fs = Nfs_server.fs victim in
      let read_back_ino ~file ~off ~len =
        try Some (Fs.read fs (Fs.vnode_by_ino fs file) ~off ~len) with _ -> None
      in
      let read_back_name ~file ~off ~len =
        try
          let home = Fs.lookup fs (Fs.root fs) "home1" in
          let vn = Fs.lookup fs home (Printf.sprintf "f%d" file) in
          Some (Fs.read fs vn ~off ~len)
        with _ -> None
      in
      let records = Trace.to_list tr in
      verdicts_ref :=
        Check.check_all ~read_back:read_back_ino records
        @ [
            Check.data_integrity ~expected:(List.rev !ledger)
              ~read_back:read_back_name;
          ]);
  Sim.run ~until:1200.0 sim;
  let verdicts = !verdicts_ref in
  Alcotest.(check int) "six invariants" 6 (List.length verdicts);
  List.iter
    (fun v ->
      if not v.Check.v_ok then
        Alcotest.failf "invariant %s failed: %s" v.Check.v_name v.Check.v_detail)
    verdicts

(* ---------------------------------------------------------------- *)
(* Fleet experiment determinism at any --jobs                       *)
(* ---------------------------------------------------------------- *)

let test_fleet_family_jobs_determinism () =
  (* The full quick matrix: its assemble step pairs rows with the cell
     matrix, so cells cannot be subsetted.  Quick is ~1s per run. *)
  let spec = Option.get (E.spec "fleet-quick") in
  let run jobs = Bench_json.emit ~scale:E.Quick ~jobs:1 [ E.run_spec ~jobs spec ] in
  Alcotest.(check string) "JSON byte-identical across jobs" (run 1) (run 2)

(* One cell alone prints the row the whole spec prints for it; a label
   no cell has is refused by name, by the library and by the CLI. *)
let test_fleet_cell_alone () =
  let spec = Option.get (E.spec "fleet-quick") in
  let label = "fleet-100c-4s" in
  let table s = E.render (E.run_spec ~jobs:1 s) in
  let index =
    let rec find i = function
      | [] -> Alcotest.failf "no cell %s" label
      | c :: rest -> if c.E.cell_label = label then i else find (i + 1) rest
    in
    find 0 spec.E.sp_cells
  in
  let whole = table spec in
  (match E.select spec label with
  | Error msg -> Alcotest.fail msg
  | Ok one ->
      let t = table one in
      Alcotest.(check (list string)) "header" whole.E.header t.E.header;
      Alcotest.(check (list (list string))) "the cell's row"
        [ List.nth whole.E.rows index ] t.E.rows);
  (match E.select spec "fleet-7c-3s" with
  | Ok _ -> Alcotest.fail "selected a cell that does not exist"
  | Error msg ->
      Alcotest.(check bool) ("names the label: " ^ msg) true
        (String.starts_with ~prefix:"fleet has no cell \"fleet-7c-3s\"" msg));
  let err = Filename.temp_file "renofs-nfsbench" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/nfsbench.exe run fleet --cell fleet-7c-3s > /dev/null 2> %s"
         (Filename.quote err))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check bool) "the CLI exits non-zero" true (code <> 0);
  let sub = "no cell \"fleet-7c-3s\"" in
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  Alcotest.(check bool) ("the CLI names the label: " ^ text) true (go 0)

let () =
  Alcotest.run "fleet"
    [
      ( "shard-map",
        [
          Alcotest.test_case "policies deterministic" `Quick test_policy_determinism;
          Alcotest.test_case "one owner per shard" `Quick
            test_every_shard_has_one_owner;
          Alcotest.test_case "placement balance" `Quick test_placement_balance;
          Alcotest.test_case "errors and names" `Quick test_shard_map_errors;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "mounts end to end" `Quick test_fleet_mounts_end_to_end;
          Alcotest.test_case "shard crash keeps invariants" `Quick
            test_shard_server_crash_invariants;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "deterministic at any --jobs" `Quick
            test_fleet_family_jobs_determinism;
          Alcotest.test_case "one cell runs alone" `Quick test_fleet_cell_alone;
        ] );
    ]
