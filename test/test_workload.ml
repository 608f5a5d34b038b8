open Renofs_workload
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module Disk = Renofs_vfs.Disk
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport
module Trace = Renofs_trace.Trace

let cell t ~row ~col =
  match List.nth_opt t.Experiments.rows row with
  | Some r -> List.nth r col
  | None -> Alcotest.failf "table %s: no row %d" t.Experiments.id row

let fcell t ~row ~col = float_of_string (cell t ~row ~col)

(* Serial Quick regeneration of one registry artifact via the typed
   spec API (the shape every caller uses since the one-call wrappers
   were retired). *)
let quick_table id =
  Experiments.render
    (Experiments.run_spec ~jobs:1
       ((List.assoc id Experiments.specs) Experiments.Quick))

(* ------------------------------------------------------------------ *)
(* Fileset                                                            *)
(* ------------------------------------------------------------------ *)

let test_fileset_generate () =
  let fs = Fileset.generate ~dirs:3 ~files_per_dir:4 ~file_size:1000 ~long_names:false in
  Alcotest.(check int) "dirs" 3 (List.length fs.Fileset.dirs);
  Alcotest.(check int) "files" 12 (List.length fs.Fileset.files);
  List.iter
    (fun p ->
      match String.split_on_char '/' p with
      | [ _; name ] ->
          Alcotest.(check bool) "short name" true (String.length name <= 31)
      | _ -> Alcotest.fail "bad path shape")
    fs.Fileset.files

let test_fileset_long_names_defeat_cache () =
  let fs = Fileset.generate ~dirs:1 ~files_per_dir:1 ~file_size:0 ~long_names:true in
  List.iter
    (fun p ->
      match String.split_on_char '/' p with
      | [ _; name ] ->
          Alcotest.(check bool) "beyond 31 chars" true (String.length name > 31)
      | _ -> Alcotest.fail "bad path shape")
    fs.Fileset.files

(* A server alone in a quiet world; [in_process w f] runs [f server] as
   a process (Fs operations block on the simulated disk) and the world
   until it is idle. *)
let server_world () =
  let sim = Sim.create () in
  let params = { Net.Topology.default_params with cross_traffic = false } in
  let topo = Net.Topology.build sim { Net.Topology.default_spec with params } in
  let server =
    Nfs_server.create topo.Net.Topology.server ~udp:(Udp.install topo.Net.Topology.server) ()
  in
  (sim, server)

let in_process (sim, server) f =
  let result = ref None in
  Proc.spawn sim (fun () -> result := Some (f server));
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let vnode_at server path =
  let fs = Nfs_server.fs server in
  List.fold_left (Fs.lookup fs) (Fs.root fs)
    (List.filter (fun c -> c <> "") (String.split_on_char '/' path))

(* Every file of [fileset] below [under], read to one byte past
   [file_size]: [Fs.read] stops at EOF, so a file of any other size
   differs from its [Fileset.content]. *)
let read_back ?(under = "") server fileset =
  List.map
    (fun path ->
      Fs.read (Nfs_server.fs server)
        (vnode_at server (under ^ "/" ^ path))
        ~off:0 ~len:(fileset.Fileset.file_size + 1))
    fileset.Fileset.files

let contents fileset =
  List.map
    (fun path -> Fileset.content ~path ~size:fileset.Fileset.file_size)
    fileset.Fileset.files

let test_fileset_preload () =
  List.iter
    (fun size ->
      let fileset =
        Fileset.generate ~dirs:2 ~files_per_dir:3 ~file_size:size ~long_names:false
      in
      let back =
        in_process (server_world ()) (fun server ->
            Fileset.preload_server server fileset;
            read_back server fileset)
      in
      Alcotest.(check (list bytes))
        (Printf.sprintf "%d-byte files" size)
        (contents fileset) back)
    [ 5000; 8192; 16384; 20000 ]

(* Shards of one server and a second server share each body; a change
   to one shard's file reaches nothing else. *)
let test_fileset_preload_shards_and_servers () =
  let fileset =
    Fileset.generate ~dirs:2 ~files_per_dir:2 ~file_size:16384 ~long_names:false
  in
  let a = server_world () and b = server_world () in
  in_process a (fun server ->
      Fileset.preload_under server ~path:"/home0" fileset;
      Fileset.preload_under server ~path:"/home1" fileset);
  in_process b (fun server -> Fileset.preload_server server fileset);
  let changed =
    in_process a (fun server ->
        let fs = Nfs_server.fs server in
        match fileset.Fileset.files with
        | first :: second :: _ ->
            let v = vnode_at server ("/home0/" ^ first) in
            Fs.write fs v ~off:100 (Bytes.make 10 'W');
            Fs.write fs v ~off:8192 (Bytes.make 8192 'Z');
            ignore (Fs.setattr fs (vnode_at server ("/home0/" ^ second)) ~size:5000 ());
            Fs.read fs v ~off:0 ~len:16384
        | _ -> Alcotest.fail "fileset too small")
  in
  Alcotest.(check string) "the write landed" "WWWWWWWWWW" (Bytes.sub_string changed 100 10);
  Alcotest.(check string) "the whole-chunk write landed" (String.make 8192 'Z')
    (Bytes.sub_string changed 8192 8192);
  Alcotest.(check (list bytes)) "other shard" (contents fileset)
    (in_process a (fun server -> read_back ~under:"/home1" server fileset));
  Alcotest.(check (list bytes)) "other server" (contents fileset)
    (in_process b (fun server -> read_back server fileset))

(* Sweep's domains share one fileset value: their first preloads race
   to build the pieces of its content bases. *)
let test_fileset_preload_two_domains () =
  let fileset = Fileset.generate ~dirs:3 ~files_per_dir:4 ~file_size:16384 ~long_names:true in
  let world () =
    in_process (server_world ()) (fun server ->
        Fileset.preload_server server fileset;
        read_back server fileset)
  in
  let d1 = Domain.spawn world and d2 = Domain.spawn world in
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check (list bytes)) "first domain" (contents fileset) a;
  Alcotest.(check (list bytes)) "second domain" a b

(* The memory gate: a preloaded shard holds its tree, not its bodies. *)
let test_fileset_preload_memory_per_shard () =
  let fileset = Fileset.generate ~dirs:2 ~files_per_dir:2 ~file_size:8192 ~long_names:false in
  let w = server_world () in
  let preload shards =
    in_process w (fun server ->
        List.iter
          (fun i -> Fileset.preload_under server ~path:(Printf.sprintf "/home%d" i) fileset)
          shards)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  preload [ 0 ];
  let before = live_words () in
  let shards = 200 in
  preload (List.init shards (fun i -> i + 1));
  let after = live_words () in
  ignore (Sys.opaque_identity w);
  let per_shard_kib =
    float_of_int ((after - before) * (Sys.word_size / 8)) /. float_of_int shards /. 1024.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "under 8 KiB live per shard (%.1f KiB)" per_shard_kib)
    true (per_shard_kib < 8.0)

(* The memory gate for fleet clients: 200 reno clients on 2 servers
   behind renobench's 2x4 fat tree, each mounting its own preloaded
   shard.  Live heap after a full major collection is read at three
   points: the world built and preloaded, the mount storm done, and one
   simulated second of the read-lookup mix run.  Each phase's growth
   per client has its own bound, about 1.5 times what it measures: a
   client's tables, and the state its fibers hold, show up in the mount
   phase. *)
let test_fleet_live_heap_per_client_by_phase () =
  let module Topology = Net.Topology in
  let module Fleet = Renofs_fleet.Fleet in
  let n = 200 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let kib_per_client words =
    float_of_int (words * (Sys.word_size / 8)) /. float_of_int n /. 1024.0
  in
  let fileset = Fileset.generate ~dirs:2 ~files_per_dir:2 ~file_size:8192 ~long_names:false in
  let base = live_words () in
  let sim = Sim.create () in
  let topo =
    Topology.build_graph sim
      {
        Topology.g_servers = 2;
        g_clients = n;
        g_tier = Topology.Fat_tree { spines = 2; leaves = 4 };
        g_wan_fraction = 0.0;
        g_params = Topology.default_params;
      }
  in
  let fleet = Fleet.create ~policy:Fleet.Hash ~shards:n topo.Topology.servers in
  let udps = List.map Udp.install topo.Topology.clients in
  let ready = Proc.Ivar.create sim and go = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      Fleet.iter_shards fleet (fun ~shard ~server ->
          Fileset.preload_under server ~path:shard fileset);
      Proc.Ivar.fill ready ());
  let mounted = ref 0 and finished = ref 0 and ops = ref 0 in
  List.iteri
    (fun i udp ->
      Proc.spawn sim (fun () ->
          Proc.Ivar.read ready;
          Proc.sleep sim (float_of_int i *. 0.003);
          let m =
            Fleet.mount_shard fleet ~udp ~shard:(Printf.sprintf "/home%d" i)
              Nfs_client.reno_mount
          in
          incr mounted;
          Proc.Ivar.read go;
          let r =
            Nhfsstone.run m fileset
              {
                Nhfsstone.rate = 6.0;
                duration = 1.0;
                children = 1;
                mix = Nhfsstone.read_lookup_mix;
                seed = 31 + i;
              }
          in
          ops := !ops + r.Nhfsstone.ops_completed;
          incr finished))
    udps;
  let run_until is_done =
    while not (is_done ()) do
      Sim.run ~until:(Sim.now sim +. 0.25) sim
    done
  in
  run_until (fun () -> Proc.Ivar.is_full ready);
  let built = live_words () in
  run_until (fun () -> !mounted = n);
  let mounts = live_words () in
  Proc.Ivar.fill go ();
  run_until (fun () -> !finished = n);
  let loaded = live_words () in
  ignore (Sys.opaque_identity (topo, fleet, udps));
  Alcotest.(check bool) "the load ran" true (!ops > n);
  List.iter
    (fun (phase, words, bound) ->
      let per_client = kib_per_client words in
      Alcotest.(check bool)
        (Printf.sprintf "%s: under %.1f KiB live per client (%.2f KiB)" phase bound
           per_client)
        true (per_client < bound))
    [
      ("build and preload", built - base, 10.0);
      ("mount storm", mounts - built, 4.0);
      ("one second of load", loaded - mounts, 1.5);
    ]

(* MD5s of [Fileset.content] as the per-byte formula produced it, for
   sizes on each side of the 256-byte period and of an 8 KB block. *)
let content_md5s =
  [
    ("d00/f00_00", 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("d00/f00_00", 1, "7a9405d459c2a928b12952e276f9a8f5");
    ("d00/f00_00", 255, "20083ac7c65c16419102e23fc12f9ff3");
    ("d00/f00_00", 256, "b59c1f2a24e764eee77c99f727be569c");
    ("d00/f00_00", 257, "057e8098c16bac6d478d34fc398fb581");
    ("d00/f00_00", 8193, "c6f5620f5fb97087a4781699235b6311");
    ("d00/f00_00", 16384, "f8d9c773caa25d591a57177f6fa3e489");
    ("d03/f03_07", 1, "ec7f7e7bb43742ce868145f71d37b53c");
    ("d03/f03_07", 255, "3b5785f0bf66e7dedf3c68c5510e8020");
    ("d03/f03_07", 256, "f87fab92bdd3e071c3a6b01aa8b8aab6");
    ("d03/f03_07", 257, "ec6850afaac63479531d3f94190dc224");
    ("d03/f03_07", 8193, "4ff981d0fdfc0b6206a2b8aa11abdd53");
    ("d03/f03_07", 16384, "942f91f23eb4b97925f5931dc4783e2a");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 1, "c9f0f895fb98ab9159f51fd0297e236d");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 255, "71210f6ad8a223a65cc0a25401f13376");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 256, "b6b9391ed3fd8a0f7fea2814bd4a7697");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 257, "4770e5cbf18eec93c9bd17be4d9520e4");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 8193, "04828bd1c4310d3c166a310f0ffd9044");
    ("d01/nhfsstone_long_file_name_01_02_xxxxx", 16384, "9e7d9f813724cd0d91eda1b32c19209b");
  ]

let test_fileset_content_known_answers () =
  List.iter
    (fun (path, size, md5) ->
      let b = Fileset.content ~path ~size in
      Alcotest.(check int) "length" size (Bytes.length b);
      Alcotest.(check string) (Printf.sprintf "%s %d" path size) md5
        (Digest.to_hex (Digest.bytes b)))
    content_md5s

(* Property: the period-doubling fill equals the per-byte formula. *)
let prop_periodic_matches_formula =
  QCheck.Test.make ~name:"periodic fill matches the per-byte formula" ~count:200
    (QCheck.make
       ~print:(fun (base, stride, size) ->
         Printf.sprintf "base %d stride %d size %d" base stride size)
       QCheck.Gen.(
         triple (int_bound (1 lsl 30)) (oneofl [ 1; 31; 131 ])
           (frequency [ (1, int_bound 600); (3, int_bound 70_000) ])))
    (fun (base, stride, size) ->
      Bytes.equal
        (Fileset.periodic ~base ~stride ~size)
        (Bytes.init size (fun i -> Char.chr ((base + (stride * i)) mod 256))))

(* ------------------------------------------------------------------ *)
(* Nhfsstone                                                          *)
(* ------------------------------------------------------------------ *)

let with_lan_mount ?trace opts body =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  Option.iter
    (fun tr ->
      List.iter
        (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr })
        topo.Net.Topology.all)
    trace;
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  let result = ref None in
  Proc.spawn sim (fun () ->
      let fileset =
        Fileset.generate ~dirs:4 ~files_per_dir:10 ~file_size:16384 ~long_names:true
      in
      Fileset.preload_server server fileset;
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server) opts
      in
      result := Some (body m fileset server));
  Sim.run ~until:10_000.0 sim;
  match !result with Some r -> r | None -> Alcotest.fail "run never finished"

let test_nhfsstone_achieves_offered_rate () =
  let r =
    with_lan_mount Nfs_client.reno_mount (fun m fileset _ ->
        Nhfsstone.run m fileset
          {
            Nhfsstone.rate = 10.0;
            duration = 30.0;
            children = 4;
            mix = Nhfsstone.lookup_mix;
            seed = 3;
          })
  in
  Alcotest.(check bool) "achieved close to offered" true
    (r.Nhfsstone.achieved > 8.0 && r.Nhfsstone.achieved < 12.0);
  Alcotest.(check bool) "latency measured" true (r.Nhfsstone.mean_op_latency > 0.0);
  Alcotest.(check int) "ops counted" r.Nhfsstone.ops_completed
    (int_of_float (r.Nhfsstone.achieved *. 30.0))

let test_nhfsstone_lookup_mix_generates_lookups () =
  let calls =
    with_lan_mount Nfs_client.reno_mount (fun m fileset _ ->
        let _ =
          Nhfsstone.run m fileset
            {
              Nhfsstone.rate = 10.0;
              duration = 20.0;
              children = 2;
              mix = Nhfsstone.lookup_mix;
              seed = 3;
            }
        in
        Client_transport.calls_by_proc (Nfs_client.transport m))
  in
  let lookups = Option.value ~default:0 (List.assoc_opt "lookup" calls) in
  (* Long names defeat the client name cache, so nearly every op is a
     real lookup RPC. *)
  Alcotest.(check bool) "lookup RPCs flowed" true (lookups > 100)

let test_nhfsstone_default_mix_writes () =
  (* The stock mix includes writes: they must flow (the preloaded files
     are world-readable but owned by uid 0, so the generator writes are
     denied by permissions — nhfsstone runs as root for exactly this
     reason). *)
  let calls =
    with_lan_mount { Nfs_client.reno_mount with Nfs_client.uid = 0; gid = 0 }
      (fun m fileset _ ->
        let _ =
          Nhfsstone.run m fileset
            {
              Nhfsstone.rate = 10.0;
              duration = 20.0;
              children = 4;
              mix = Nhfsstone.default_mix;
              seed = 3;
            }
        in
        Client_transport.calls_by_proc (Nfs_client.transport m))
  in
  let c name = Option.value ~default:0 (List.assoc_opt name calls) in
  Alcotest.(check bool) "writes flowed" true (c "write" > 0);
  Alcotest.(check bool) "reads flowed" true (c "read" > 0);
  Alcotest.(check bool) "lookups dominate" true (c "lookup" > c "write")

let test_nhfsstone_read_mix_reads () =
  let r, calls =
    with_lan_mount Nfs_client.reno_mount (fun m fileset _ ->
        let r =
          Nhfsstone.run m fileset
            {
              Nhfsstone.rate = 10.0;
              duration = 20.0;
              children = 4;
              mix = Nhfsstone.read_lookup_mix;
              seed = 3;
            }
        in
        (r, Client_transport.calls_by_proc (Nfs_client.transport m)))
  in
  Alcotest.(check bool) "reads happened" true (r.Nhfsstone.read_rate > 2.0);
  Alcotest.(check bool) "read RPCs sent" true (List.mem_assoc "read" calls)

(* ------------------------------------------------------------------ *)
(* Andrew                                                             *)
(* ------------------------------------------------------------------ *)

let tiny_andrew =
  {
    Andrew.default_config with
    Andrew.source_files = 8;
    header_files = 4;
    compile_instructions_per_byte = 50.0;
  }

let run_andrew opts =
  with_lan_mount opts (fun m _ _ -> Andrew.run m ~config:tiny_andrew ())

let test_andrew_phases_and_counts () =
  let r = run_andrew Nfs_client.reno_mount in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) (Printf.sprintf "phase %d has time" i) true (t > 0.0))
    r.Andrew.phase_times;
  Alcotest.(check bool) "writes counted" true
    (List.assoc "write" r.Andrew.rpc_counts > 0);
  Alcotest.(check bool) "total positive" true (r.Andrew.total_rpcs > 50)

let test_andrew_reno_vs_ultrix_lookups () =
  let reno = run_andrew Nfs_client.reno_mount in
  let ultrix = run_andrew Nfs_client.ultrix_mount in
  let l r = List.assoc "lookup" r.Andrew.rpc_counts in
  Alcotest.(check bool) "name cache cuts lookup RPCs at least in half" true
    (l reno * 2 <= l ultrix)

(* Two observers of one run count each RPC once: the transport's
   per-procedure counts (Table 3's source) and the Rpc_send records on
   the client's node, both read when Andrew finishes. *)
let test_andrew_counts_match_rpc_sends () =
  let tr = Trace.create ~capacity:0 () in
  let sends = Hashtbl.create 16 in
  Trace.set_hook tr
    (Some
       (function
       | { Trace.node; ev = Trace.Rpc_send { proc; _ }; _ } ->
           let key = (node, Trace.proc_name proc) in
           Hashtbl.replace sends key
             (1 + Option.value ~default:0 (Hashtbl.find_opt sends key))
       | _ -> ()));
  let traced, calls =
    with_lan_mount ~trace:tr Nfs_client.reno_mount (fun m _ _ ->
        ignore (Andrew.run m ~config:tiny_andrew ());
        let client = Net.Node.id (Nfs_client.node m) in
        ( Hashtbl.fold
            (fun (node, name) n acc -> if node = client then (name, n) :: acc else acc)
            sends []
          |> List.sort compare,
          Client_transport.calls_by_proc (Nfs_client.transport m) ))
  in
  Alcotest.(check bool) "several procedures" true (List.length calls >= 5);
  Alcotest.(check (list (pair string int))) "calls_by_proc = Rpc_send records"
    traced calls

let test_andrew_noconsist_fewer_writes () =
  let reno = run_andrew Nfs_client.reno_mount in
  let nc = run_andrew Nfs_client.noconsist_mount in
  let w r = List.assoc "write" r.Andrew.rpc_counts in
  Alcotest.(check bool) "noconsist writes fewer" true (w nc < w reno)

(* ------------------------------------------------------------------ *)
(* Create-Delete                                                      *)
(* ------------------------------------------------------------------ *)

let test_create_delete_policies () =
  let nfs opts bytes =
    with_lan_mount opts (fun m _ _ ->
        Create_delete.run_nfs m { Create_delete.data_bytes = bytes; iterations = 4 })
  in
  let wt = nfs { Nfs_client.reno_mount with Nfs_client.write_policy = Nfs_client.Write_through } 102400 in
  let nc = nfs Nfs_client.noconsist_mount 102400 in
  Alcotest.(check bool) "noconsist much faster at 100K" true (nc < wt /. 2.0);
  let no_data = nfs Nfs_client.reno_mount 0 in
  Alcotest.(check bool) "no-data cheaper than 100K" true (no_data < wt)

let test_create_delete_local_baseline () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  let disk = Disk.create sim in
  let fs = Fs.create sim cpu disk Fs.local_config in
  let result = ref None in
  Proc.spawn sim (fun () ->
      result :=
        Some (Create_delete.run_local sim cpu fs { Create_delete.data_bytes = 10240; iterations = 5 }));
  Sim.run sim;
  match !result with
  | Some ms ->
      (* Synchronous metadata only: order 100-300 ms on an RD53. *)
      Alcotest.(check bool) "local in plausible range" true (ms > 50.0 && ms < 500.0)
  | None -> Alcotest.fail "local run never finished"

(* ------------------------------------------------------------------ *)
(* Experiments: every runner produces a well-shaped table, and the     *)
(* headline claims hold at Quick scale.                                *)
(* ------------------------------------------------------------------ *)

let test_all_experiments_produce_tables () =
  List.iter
    (fun (id, _) ->
      let t = quick_table id in
      Alcotest.(check string) "id matches" id t.Experiments.id;
      Alcotest.(check bool) (id ^ " has rows") true (List.length t.Experiments.rows > 0);
      let cols = List.length t.Experiments.header in
      List.iter
        (fun row ->
          Alcotest.(check int) (id ^ " row width") cols (List.length row))
        t.Experiments.rows)
    Experiments.specs

let test_graph6_tcp_costs_more () =
  let t = quick_table "graph6" in
  List.iteri
    (fun i _ ->
      let udp = fcell t ~row:i ~col:1 and tcp = fcell t ~row:i ~col:2 in
      Alcotest.(check bool) "tcp cpu above udp" true (tcp > udp))
    t.Experiments.rows

let test_graph8_reference_port_slower () =
  let t = quick_table "graph8" in
  List.iteri
    (fun i _ ->
      let reno = fcell t ~row:i ~col:1 and ultrix = fcell t ~row:i ~col:3 in
      Alcotest.(check bool) "reference port slower" true (ultrix > reno *. 1.3))
    t.Experiments.rows

let test_section3_reduction () =
  let t = quick_table "section3" in
  let stock = fcell t ~row:0 ~col:1 and tuned = fcell t ~row:1 ~col:1 in
  Alcotest.(check bool) "tuning reduces CPU" true (tuned < stock);
  Alcotest.(check bool) "by a meaningful fraction" true ((stock -. tuned) /. stock > 0.05)

let test_table5_noconsist_wins_big_files () =
  let t = quick_table "table5" in
  (* rows: Local, write thru, async4, async16, delay, noconsist *)
  let wt_100k = fcell t ~row:1 ~col:3 and nc_100k = fcell t ~row:5 ~col:3 in
  Alcotest.(check bool) "noconsist >2x faster on 100K" true (nc_100k < wt_100k /. 2.0);
  let local_0 = fcell t ~row:0 ~col:1 and wt_0 = fcell t ~row:1 ~col:1 in
  Alcotest.(check bool) "local cheapest with no data" true (local_0 < wt_0)

let test_table3_cache_claims () =
  let t = quick_table "table3" in
  let find name col =
    let row =
      List.find (fun r -> List.hd r = name) t.Experiments.rows
    in
    int_of_string (List.nth row col)
  in
  (* columns: 1 = Reno, 2 = Reno-noconsist, 3 = Reno-v3, 4 = Ultrix *)
  Alcotest.(check bool) "ultrix lookups at least double" true
    (find "Lookup" 4 >= 2 * find "Lookup" 1);
  Alcotest.(check bool) "noconsist cuts writes" true (find "Write" 2 < find "Write" 1);
  Alcotest.(check bool) "ultrix writes more" true (find "Write" 4 > find "Write" 1);
  Alcotest.(check bool) "reno reads at least noconsist" true
    (find "Read" 1 >= find "Read" 2);
  (* The v3 profile moves the write traffic to WRITE3+COMMIT, in fewer
     RPCs than Reno's 8K v2 writes (32K transfers batch harder). *)
  Alcotest.(check int) "v3 issues no v2 writes" 0 (find "Write" 3);
  Alcotest.(check bool) "v3 write3s are fewer than reno writes" true
    (find "Write3" 3 < find "Write" 1);
  Alcotest.(check bool) "every v3 close commits" true (find "Commit" 3 > 0)

let test_table1_congestion_control_wins_on_56k () =
  let t = quick_table "table1" in
  (* row 2 = 56Kbps; cols 1..3 = udp-fixed, udp-dyn, tcp *)
  let fixed = fcell t ~row:2 ~col:1 and tcp = fcell t ~row:2 ~col:3 in
  Alcotest.(check bool) "tcp reads faster than fixed-RTO UDP" true (tcp > fixed *. 1.3)

let test_graph7_trace_tracks () =
  let t = quick_table "graph7" in
  Alcotest.(check bool) "trace has points" true (List.length t.Experiments.rows > 5);
  (* The RTO envelope should sit above the smoothed RTT most of the time. *)
  let above =
    List.filter
      (fun row ->
        float_of_string (List.nth row 2) >= float_of_string (List.nth row 1))
      t.Experiments.rows
  in
  Alcotest.(check bool) "rto mostly above rtt" true
    (2 * List.length above > List.length t.Experiments.rows)

(* scaling's Quick rows: N clients on one star server.  Pinned so that
   a change to how its world is built shows as a changed row. *)
let test_scaling_quick_rows () =
  let t = quick_table "scaling" in
  Alcotest.(check (list (list string)))
    "clients, achieved, latency, server CPU"
    [
      [ "1"; "9.7"; "48.6"; "7%" ];
      [ "2"; "18.9"; "53.0"; "14%" ];
      [ "4"; "37.2"; "70.6"; "28%" ];
    ]
    (List.map
       (fun row -> List.filteri (fun i _ -> i <> 1) row)
       t.Experiments.rows)

(* Every driver advances its world through [Experiments.advance_until];
   one that never finishes must end in a typed error naming its run,
   not spin forever. *)
let test_driver_stuck_names_label () =
  let sim = Sim.create () in
  let checks = ref 0 in
  match
    Experiments.advance_until ~label:"never/finishes" ~window:50.0 sim (fun () ->
        incr checks;
        false)
  with
  | () -> Alcotest.fail "a driver that never finishes returned"
  | exception Experiments.Driver_stuck msg ->
      let prefix = "never/finishes: driver never finished after 100001" in
      Alcotest.(check string) "names the label and the windows" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)));
      Alcotest.(check int) "one check per window" 100_001 !checks;
      Alcotest.(check (float 0.0)) "advanced in fixed windows" 5_000_000.0
        (Sim.now sim)

(* ------------------------------------------------------------------ *)
(* Ascii_plot                                                         *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_plot_axis_scaling () =
  let chart =
    Ascii_plot.render ~width:40 ~height:10 ~x_label:"load" ~y_label:"ms"
      ~x:[ 0.0; 5.0; 10.0 ]
      ~series:[ ("rtt", [ 1.0; 2.0; 4.0 ]) ]
      ()
  in
  (* The y axis is zero-based and spans the data maximum; the x axis
     runs from the smallest to the largest x. *)
  Alcotest.(check bool) "y max labeled" true (contains chart "4.0");
  Alcotest.(check bool) "y zero-based" true (contains chart "0.0");
  Alcotest.(check bool) "x min labeled" true (contains chart "0.0");
  Alcotest.(check bool) "x max labeled" true (contains chart "10.0");
  Alcotest.(check bool) "x label shown" true (contains chart "load");
  Alcotest.(check bool) "legend names series" true (contains chart "rtt")

let test_plot_empty () =
  let chart = Ascii_plot.render ~x_label:"x" ~y_label:"y" ~x:[] ~series:[] () in
  Alcotest.(check string) "no data" "(no data)\n" chart

let test_plot_single_point () =
  let chart =
    Ascii_plot.render ~width:30 ~height:8 ~x_label:"t" ~y_label:"v" ~x:[ 2.0 ]
      ~series:[ ("s", [ 3.0 ]) ]
      ()
  in
  Alcotest.(check bool) "renders a marker" true (contains chart "*");
  Alcotest.(check bool) "y max is the value" true (contains chart "3.0")

let test_plot_nan_rejected () =
  (* NaN/infinite points must neither crash nor stretch the axes. *)
  let chart =
    Ascii_plot.render ~width:40 ~height:10 ~x_label:"t" ~y_label:"v"
      ~x:[ 1.0; 2.0; 3.0 ]
      ~series:[ ("s", [ 1.0; Float.nan; Float.infinity ]) ]
      ()
  in
  Alcotest.(check bool) "finite y max" true (contains chart "1.0");
  Alcotest.(check bool) "no inf in axis" false (contains chart "inf");
  Alcotest.(check bool) "no nan in axis" false (contains chart "nan");
  let all_nan =
    Ascii_plot.render ~x_label:"t" ~y_label:"v" ~x:[ Float.nan ]
      ~series:[ ("s", [ 1.0 ]) ]
      ()
  in
  Alcotest.(check string) "all-NaN x renders as no data" "(no data)\n" all_nan

(* ------------------------------------------------------------------ *)
(* Perf                                                               *)
(* ------------------------------------------------------------------ *)

let baseline_path = "../BENCH_perf.json"

let read_perf path =
  match Perf.read_file path with Ok r -> r | Error e -> Alcotest.fail e

let cell_counts r =
  List.map
    (fun c -> (c.Perf.c_label, (c.Perf.c_events, c.Perf.c_rpcs, c.Perf.c_minor_words)))
    r.Perf.cells

(* The timed cells are graph5's full sweep: the same labels, events,
   RPCs and minor words as the committed baseline, cell for cell. *)
let test_perf_cells_match_baseline () =
  let baseline = read_perf baseline_path and r = Perf.run () in
  Alcotest.(check (list (pair string (triple int int int))))
    "labels, events, RPCs and minor words" (cell_counts baseline) (cell_counts r);
  Alcotest.(check int) "events" baseline.Perf.events r.Perf.events;
  Alcotest.(check int) "rpcs" baseline.Perf.rpcs r.Perf.rpcs;
  Alcotest.(check int) "minor words" baseline.Perf.minor_words r.Perf.minor_words;
  Alcotest.(check bool) "no profile unless asked" true (r.Perf.p_profile = None)

(* A perf result from (label, wall seconds, events) cells, 10 RPCs and
   100 minor words each. *)
let perf_of cells =
  let cells =
    List.map
      (fun (label, wall, events) ->
        {
          Perf.c_label = label;
          c_wall_s = wall;
          c_events = events;
          c_rpcs = 10;
          c_minor_words = 100;
        })
      cells
  in
  let wall_s = List.fold_left (fun a c -> a +. c.Perf.c_wall_s) 0.0 cells in
  let events = List.fold_left (fun a c -> a + c.Perf.c_events) 0 cells in
  let rpcs = 10 * List.length cells in
  {
    Perf.cells;
    wall_s;
    events;
    rpcs;
    minor_words = 100 * List.length cells;
    events_per_s = float_of_int events /. wall_s;
    rpcs_per_s = float_of_int rpcs /. wall_s;
    p_profile = None;
  }

let test_perf_diff_rules () =
  let diff baseline current =
    Perf.diff ~tolerance:0.30 ~baseline:(perf_of baseline) ~current:(perf_of current)
  in
  let has_note v sub = List.exists (fun n -> contains n sub) v.Perf.notes in
  let base = [ ("a", 1.0, 1000); ("b", 1.0, 1000) ] in
  let v = diff base [ ("a", 2.0, 1000); ("b", 2.0, 1000) ] in
  Alcotest.(check int) "a halved rate regresses, events/s and rpcs/s" 2
    (List.length v.Perf.regressions);
  let v = diff base [ ("a", 1.1, 1000); ("b", 1.1, 1000) ] in
  Alcotest.(check (list string)) "a drop within tolerance" [] v.Perf.regressions;
  Alcotest.(check bool) "is a note" true (has_note v "events/s");
  let regressed v sub = List.exists (fun n -> contains n sub) v.Perf.regressions in
  let v = diff base [ ("a", 1.0, 1100); ("b", 1.0, 1000) ] in
  Alcotest.(check int) "an event-count change regresses, in its cell only" 1
    (List.length v.Perf.regressions);
  Alcotest.(check bool) "named with both counts" true
    (regressed v "cell a: events 1000 -> 1100");
  let v =
    Perf.diff ~tolerance:0.30 ~baseline:(perf_of base)
      ~current:
        (let p = perf_of base in
         {
           p with
           Perf.cells =
             List.map
               (fun c ->
                 if c.Perf.c_label = "b" then { c with Perf.c_minor_words = 101 } else c)
               p.Perf.cells;
         })
  in
  Alcotest.(check bool) "a minor-word change regresses" true
    (regressed v "cell b: minor words 100 -> 101");
  let v = diff base [ ("a", 1.0, 1000) ] in
  Alcotest.(check bool) "a missing cell regresses" true (regressed v "cell b: gone");
  let v = diff base (base @ [ ("c", 1.0, 1000) ]) in
  Alcotest.(check bool) "a new cell regresses" true (regressed v "cell c: new")

let test_perf_json_round_trip () =
  let r = read_perf baseline_path in
  Alcotest.(check bool) "the baseline embeds a profile" true (r.Perf.p_profile <> None);
  let path = Filename.temp_file "renofs-perf" ".json" in
  Perf.write_file ~path r;
  let back = read_perf path in
  Sys.remove path;
  Alcotest.(check bool) "cells" true (back.Perf.cells = r.Perf.cells);
  Alcotest.(check bool) "profile" true (back.Perf.p_profile = r.Perf.p_profile);
  Alcotest.(check bool) "whole result" true (back = r)

let () =
  Alcotest.run "workload"
    [
      ( "fileset",
        [
          Alcotest.test_case "generate" `Quick test_fileset_generate;
          Alcotest.test_case "long names" `Quick test_fileset_long_names_defeat_cache;
          Alcotest.test_case "preload" `Quick test_fileset_preload;
          Alcotest.test_case "preload shards and servers" `Quick
            test_fileset_preload_shards_and_servers;
          Alcotest.test_case "preload in two domains" `Quick test_fileset_preload_two_domains;
          Alcotest.test_case "preload memory per shard" `Quick
            test_fileset_preload_memory_per_shard;
          Alcotest.test_case "content known answers" `Quick test_fileset_content_known_answers;
          QCheck_alcotest.to_alcotest prop_periodic_matches_formula;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "live heap per client by phase" `Quick
            test_fleet_live_heap_per_client_by_phase;
        ] );
      ( "nhfsstone",
        [
          Alcotest.test_case "achieves offered rate" `Quick test_nhfsstone_achieves_offered_rate;
          Alcotest.test_case "lookup mix" `Quick test_nhfsstone_lookup_mix_generates_lookups;
          Alcotest.test_case "read mix" `Quick test_nhfsstone_read_mix_reads;
          Alcotest.test_case "default mix writes" `Quick test_nhfsstone_default_mix_writes;
        ] );
      ( "andrew",
        [
          Alcotest.test_case "phases and counts" `Quick test_andrew_phases_and_counts;
          Alcotest.test_case "reno vs ultrix lookups" `Quick test_andrew_reno_vs_ultrix_lookups;
          Alcotest.test_case "noconsist fewer writes" `Quick test_andrew_noconsist_fewer_writes;
          Alcotest.test_case "counts match the traced sends" `Quick
            test_andrew_counts_match_rpc_sends;
        ] );
      ( "create-delete",
        [
          Alcotest.test_case "policies" `Quick test_create_delete_policies;
          Alcotest.test_case "local baseline" `Quick test_create_delete_local_baseline;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "all tables well-shaped" `Slow test_all_experiments_produce_tables;
          Alcotest.test_case "graph6 tcp premium" `Quick test_graph6_tcp_costs_more;
          Alcotest.test_case "graph8 server gap" `Quick test_graph8_reference_port_slower;
          Alcotest.test_case "section3 reduction" `Quick test_section3_reduction;
          Alcotest.test_case "table5 noconsist" `Quick test_table5_noconsist_wins_big_files;
          Alcotest.test_case "table3 cache claims" `Quick test_table3_cache_claims;
          Alcotest.test_case "table1 56K transports" `Quick test_table1_congestion_control_wins_on_56k;
          Alcotest.test_case "graph7 trace" `Quick test_graph7_trace_tracks;
          Alcotest.test_case "scaling quick rows" `Quick test_scaling_quick_rows;
          Alcotest.test_case "driver stuck names label" `Quick
            test_driver_stuck_names_label;
        ] );
      ( "perf",
        [
          Alcotest.test_case "cells match the committed baseline" `Quick
            test_perf_cells_match_baseline;
          Alcotest.test_case "diff rules" `Quick test_perf_diff_rules;
          Alcotest.test_case "json round trip" `Quick test_perf_json_round_trip;
        ] );
      ( "ascii-plot",
        [
          Alcotest.test_case "axis scaling" `Quick test_plot_axis_scaling;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
          Alcotest.test_case "nan rejected" `Quick test_plot_nan_rejected;
        ] );
    ]
