(* The three benchmark worlds, built from the libraries' public
   functions so the benchmark owns each [Sim.t]: it times set-up apart
   from load, counts the events of the load alone, and samples the
   pending-event population between run windows.

   Every world runs in three phases with host-time stamps taken at the
   simulated moment each phase ends (inside the process that ends it,
   not at the next window boundary):

   - build: topology, observers, servers (and the fleet's daemons);
   - provision: shard export directories and their preloaded files;
   - mount: the mount storm, until every client holds its mount.

   Then the load starts for all clients at once and ends when the last
   client finishes.  A traced run attaches a [Profile] to the load
   only; set-up is timed by the spans above. *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Probe = Renofs_engine.Probe
module Rng = Renofs_engine.Rng
module Stats = Renofs_engine.Stats
module Mbuf = Renofs_mbuf.Mbuf
module Node = Renofs_net.Node
module Topology = Renofs_net.Topology
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport
module Trace = Renofs_trace.Trace
module Fleet = Renofs_fleet.Fleet
module Profile = Renofs_profile.Profile
module Nhfsstone = Renofs_workload.Nhfsstone
module Fileset = Renofs_workload.Fileset
module Slo = Renofs_scenario.Scenario.Slo

type size = Full | Mini

(* Host time from the monotonic clock, in seconds with nanosecond
   resolution: the profiler's slots see sub-microsecond work. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* What one run of one world measured.  Times are host seconds; the
   digest covers simulated results only. *)
type acc = {
  mutable clients : int;
  mutable build_s : float;
  mutable provision_s : float;
  mutable mount_s : float;
  mutable wall_s : float;
  mutable events : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable pending : int list;
  mutable attempted : int;
  mutable failed : int;
  mutable rpcs : int;
  mutable retransmits : int;
  mutable trace_records : int;
  mutable trace_dropped : int;
  mutable verdict_s : float;
  mutable breaches : string list;
  digest : Buffer.t;
  profile : Profile.t option;
}

let create_acc ~traced =
  {
    clients = 0;
    build_s = 0.0;
    provision_s = 0.0;
    mount_s = 0.0;
    wall_s = 0.0;
    events = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
    pending = [];
    attempted = 0;
    failed = 0;
    rpcs = 0;
    retransmits = 0;
    trace_records = 0;
    trace_dropped = 0;
    verdict_s = 0.0;
    breaches = [];
    digest = Buffer.create 4096;
    profile = (if traced then Some (Profile.create ~clock:now ()) else None);
  }

let say acc fmt = Printf.bprintf acc.digest fmt

(* Set-up runs under a throwaway profile: events scheduled then still
   need a slot tag, but their time must not land in the load's
   attribution. *)
let attach_probe acc sim trace =
  match acc.profile with
  | None -> ()
  | Some _ ->
      let probe = Some (Profile.probe (Profile.create ~clock:now ())) in
      Sim.set_probe sim probe;
      Option.iter (fun tr -> Trace.set_probe tr probe) trace

let attach_nodes topo trace =
  let obs = { Node.detached with trace; pool = Some (Mbuf.Pool.create ()) } in
  List.iter (fun n -> Node.attach n obs) topo.Topology.all

(* Sampling the queue is the benchmark observing the engine: in a
   traced run its cost is charged to the observer slot. *)
let sample acc sim () =
  Probe.scoped (Sim.probe sim) Probe.observer (fun () ->
      acc.pending <- Sim.pending_events sim :: acc.pending)

let drive ~label ~window sim ~on_window is_done =
  let guard = ref 0 in
  while not (is_done ()) do
    incr guard;
    if !guard > 200_000 then
      raise
        (Renofs_workload.Experiments.Driver_stuck
           (Printf.sprintf
              "%s: never finished (sim time %.1f s, %d events pending, %d \
               processed)"
              label (Sim.now sim) (Sim.pending_events sim)
              (Sim.events_processed sim)));
    Sim.run ~until:(Sim.now sim +. window) sim;
    on_window ()
  done

(* The load phase: counters are snapshotted when it starts and closed
   by [finish_load], called by whichever client finishes last. *)
type load = { t0 : float; ev0 : int; gc0 : Gc.stat; sim : Sim.t }

let start_load acc sim trace =
  (match acc.profile with
  | None -> ()
  | Some p ->
      let probe = Some (Profile.probe p) in
      Sim.set_probe sim probe;
      Option.iter (fun tr -> Trace.set_probe tr probe) trace;
      Profile.start p);
  { t0 = now (); ev0 = Sim.events_processed sim; gc0 = Gc.quick_stat (); sim }

let finish_load acc l =
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  Option.iter Profile.stop acc.profile;
  acc.wall_s <- acc.wall_s +. (t1 -. l.t0);
  acc.events <- acc.events + (Sim.events_processed l.sim - l.ev0);
  acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. l.gc0.Gc.minor_words);
  acc.promoted_words <-
    acc.promoted_words +. (g1.Gc.promoted_words -. l.gc0.Gc.promoted_words);
  acc.major_collections <-
    acc.major_collections + (g1.Gc.major_collections - l.gc0.Gc.major_collections)

let say_hist acc name h =
  say acc "%s:" name;
  List.iteri
    (fun i (_, n) -> if n > 0 then say acc " %d:%d" i n)
    (Stats.Hist.to_list h);
  say acc "\n"

let say_servers acc servers =
  say acc "rpcs_served:";
  List.iter
    (fun s ->
      let n = Nfs_server.rpcs_served s in
      acc.rpcs <- acc.rpcs + n;
      say acc " %d" n)
    servers;
  say acc "\n"

let params seed = { Topology.default_params with Topology.seed }

(* ------------------------------------------------------------------ *)
(* fleet-1000c                                                         *)
(* ------------------------------------------------------------------ *)

(* The fleet family's world: one shard per client, hash-placed across
   16 servers behind a 2x4 fat tree, the read-lookup mix at 6 op/s
   offered per client (past the knee), reno mounts, no trace sink.  Four
   simulated seconds of load keep one run near two host seconds, so a
   run of the benchmark holds enough of them for a steady median. *)
let fleet_fileset =
  Fileset.generate ~dirs:2 ~files_per_dir:2 ~file_size:8192 ~long_names:false

let fleet acc ~size ~seed =
  let n, n_srv, duration =
    match size with Full -> (1000, 16, 4.0) | Mini -> (12, 2, 2.0)
  in
  acc.clients <- n;
  let label = "fleet-1000c" in
  let t0 = now () in
  let sim = Sim.create () in
  attach_probe acc sim None;
  let topo =
    Topology.build_graph sim
      {
        Topology.g_servers = n_srv;
        g_clients = n;
        g_tier = Topology.Fat_tree { spines = 2; leaves = 4 };
        g_wan_fraction = 0.0;
        g_params = params seed;
      }
  in
  attach_nodes topo None;
  let fleet =
    Fleet.create ~policy:Fleet.Hash ~seed ~shards:n topo.Topology.servers
  in
  let udps = List.map (fun c -> Udp.install c) topo.Topology.clients in
  let t_built = now () in
  acc.build_s <- t_built -. t0;
  let t_provisioned = ref t_built in
  let ready = Proc.Ivar.create sim and go = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      Fleet.iter_shards fleet (fun ~shard ~server ->
          Fileset.preload_under server ~path:shard fleet_fileset);
      t_provisioned := now ();
      acc.provision_s <- !t_provisioned -. t_built;
      Proc.Ivar.fill ready ());
  let hist = Stats.Hist.create ~bucket_width:5.0 ~buckets:2000 in
  let mounted = ref 0 and finished = ref 0 in
  let ops = ref 0 and retrans = ref 0 in
  let load = ref None in
  List.iteri
    (fun i udp ->
      Proc.spawn sim (fun () ->
          Proc.Ivar.read ready;
          (* Stagger the mount storm a little, as rc.local would. *)
          Proc.sleep sim (float_of_int i *. 0.003);
          let m =
            Fleet.mount_shard fleet ~udp
              ~shard:(Printf.sprintf "/home%d" i)
              Nfs_client.reno_mount
          in
          incr mounted;
          if !mounted = n then acc.mount_s <- now () -. !t_provisioned;
          Proc.Ivar.read go;
          let r =
            Nhfsstone.run ~latency_hist:hist m fleet_fileset
              {
                Nhfsstone.rate = 6.0;
                duration;
                children = 1;
                mix = Nhfsstone.read_lookup_mix;
                seed = (seed * 7919) + 31 + i;
              }
          in
          ops := !ops + r.Nhfsstone.ops_completed;
          retrans := !retrans + r.Nhfsstone.retransmits;
          incr finished;
          if !finished = n then finish_load acc (Option.get !load)))
    udps;
  drive ~label ~window:0.25 sim ~on_window:ignore (fun () -> !mounted = n);
  load := Some (start_load acc sim None);
  Proc.Ivar.fill go ();
  drive ~label ~window:1.0 sim ~on_window:(sample acc sim) (fun () ->
      !finished = n);
  acc.attempted <- !ops;
  acc.retransmits <- !retrans;
  let t = now () in
  say acc "fleet clients=%d servers=%d ops=%d retransmits=%d\n" n n_srv !ops
    !retrans;
  say_servers acc (Fleet.servers fleet);
  say_hist acc "latency_ms" hist;
  acc.verdict_s <- now () -. t

(* ------------------------------------------------------------------ *)
(* graph5-wan                                                          *)
(* ------------------------------------------------------------------ *)

(* The cell set of [Perf.run]: one client on the 56K WAN, 4 nhfsstone
   children, the lookup mix at 4-18 rpc/s, over udp-fixed, udp-dyn and
   tcp with MSS 512; 8 s of warmup, then 120 s measured, per cell. *)
let g5_fileset =
  Fileset.generate ~dirs:20 ~files_per_dir:20 ~file_size:16384 ~long_names:true

let g5_transports =
  [
    ("udp-fixed", Nfs_client.reno_mount);
    ("udp-dyn", Nfs_client.reno_dynamic_mount);
    ("tcp", Nfs_client.reno_tcp_mount);
  ]

let graph5_cell acc ~seed ~rate ~warmup ~duration (tname, opts) =
  let label = Printf.sprintf "graph5/load%g/%s" rate tname in
  let t0 = now () in
  let sim = Sim.create () in
  attach_probe acc sim None;
  let topo =
    Topology.build sim
      { Topology.shape = Topology.Wide_area; clients = 1; params = params seed }
  in
  attach_nodes topo None;
  let sudp = Udp.install topo.Topology.server in
  let stcp = Tcp.install topo.Topology.server in
  let server =
    Nfs_server.create topo.Topology.server ~profile:Nfs_server.reno_profile
      ~udp:sudp ~tcp:stcp ()
  in
  Nfs_server.start server;
  let cudp = Udp.install topo.Topology.client in
  let ctcp = Tcp.install topo.Topology.client in
  let t_built = now () in
  acc.build_s <- acc.build_s +. (t_built -. t0);
  let mount = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Fileset.preload_server server g5_fileset;
      let t_provisioned = now () in
      acc.provision_s <- acc.provision_s +. (t_provisioned -. t_built);
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { opts with Nfs_client.mss = 512 }
      in
      acc.mount_s <- acc.mount_s +. (now () -. t_provisioned);
      Proc.Ivar.fill mount m);
  drive ~label ~window:0.25 sim ~on_window:ignore (fun () ->
      Proc.Ivar.is_full mount);
  let m = Option.get (Proc.Ivar.peek mount) in
  let hist = Stats.Hist.create ~bucket_width:10.0 ~buckets:1000 in
  let result = ref None in
  let l = start_load acc sim None in
  Proc.spawn sim (fun () ->
      let cfg =
        {
          Nhfsstone.rate;
          duration = warmup;
          children = 4;
          mix = Nhfsstone.lookup_mix;
          seed = (seed * 7919) + 43;
        }
      in
      ignore (Nhfsstone.run m g5_fileset cfg);
      let r =
        Nhfsstone.run ~latency_hist:hist m g5_fileset
          { cfg with Nhfsstone.duration; seed = (seed * 7919) + 42 }
      in
      finish_load acc l;
      result := Some r);
  drive ~label ~window:1.0 sim ~on_window:(sample acc sim) (fun () ->
      !result <> None);
  let r = Option.get !result in
  let t = now () in
  acc.attempted <- acc.attempted + r.Nhfsstone.ops_completed;
  acc.retransmits <- acc.retransmits + r.Nhfsstone.retransmits;
  say acc "%s ops=%d retransmits=%d\n" label r.Nhfsstone.ops_completed
    r.Nhfsstone.retransmits;
  say_servers acc [ server ];
  say_hist acc "latency_ms" hist;
  acc.verdict_s <- acc.verdict_s +. (now () -. t)

let graph5 acc ~size ~seed =
  let loads, warmup, duration =
    match size with
    | Full -> ([ 4.0; 8.0; 12.0; 14.0; 16.0; 18.0 ], 8.0, 120.0)
    | Mini -> ([ 8.0 ], 2.0, 10.0)
  in
  acc.clients <- 1;
  List.iter
    (fun rate ->
      List.iter (graph5_cell acc ~seed ~rate ~warmup ~duration) g5_transports)
    loads

(* ------------------------------------------------------------------ *)
(* lan-write                                                           *)
(* ------------------------------------------------------------------ *)

(* Table 5 Create-Delete's write path at fleet width: 32 clients and 4
   servers on one LAN backbone, even clients on reno mounts (8K
   writes), odd ones on v3 (32K UNSTABLE writes plus COMMIT).  Each
   client creates its files in its own shard, then fills them one by
   one in a closed loop: 8K appends with think time and an fsync every
   eight, then close, reopen and read every block back.  The simulated
   trace sink is on during the load, and the integrity invariants are
   judged over it at the end.

   Each block is written once and read back only after close: rewrites
   in place and a read straight after fsync return wrong data at the
   seed (see CHANGES.md), and a workload whose operations fail cannot
   time the program. *)

let block = 8192

(* Write data: 8K slices of a seeded random pool, tagged with the
   writer's coordinates so a misplaced block cannot compare equal. *)
let payload pool ~client ~file ~blk =
  let off = ((client * 7919) + (file * 131) + (blk * 61)) land 0xffff in
  let b = Bytes.sub pool off block in
  Bytes.set_int32_le b 0 (Int32.of_int client);
  Bytes.set_int32_le b 4 (Int32.of_int file);
  Bytes.set_int32_le b 8 (Int32.of_int blk);
  b

let file_name k = Printf.sprintf "w%d" k

let lan_client acc ~sim ~pool ~rng ~hist ~blocks ~think i m fds =
  let mismatches = ref 0 in
  (* One simulated syscall: counted, timed in simulated milliseconds,
     and failed (not retried) if it raises. *)
  let op f =
    acc.attempted <- acc.attempted + 1;
    let t = Sim.now sim in
    match f () with
    | v ->
        Stats.Hist.add hist ((Sim.now sim -. t) *. 1000.0);
        Some v
    | exception e ->
        acc.failed <- acc.failed + 1;
        say acc "client%d: %s\n" i (Printexc.to_string e);
        None
  in
  Array.iteri
    (fun file fd ->
      for blk = 0 to blocks - 1 do
        let data = payload pool ~client:i ~file ~blk in
        ignore (op (fun () -> Nfs_client.write m fd ~off:(blk * block) data));
        if blk mod 8 = 7 then ignore (op (fun () -> Nfs_client.fsync m fd));
        Proc.sleep sim (Rng.exponential rng think)
      done;
      ignore (op (fun () -> Nfs_client.close m fd));
      (* Close-to-open: a fresh open revalidates, so every block must
         read back as written. *)
      match op (fun () -> Nfs_client.open_ m (file_name file)) with
      | None -> ()
      | Some fd ->
          for blk = 0 to blocks - 1 do
            match
              op (fun () -> Nfs_client.read m fd ~off:(blk * block) ~len:block)
            with
            | Some got when Bytes.equal got (payload pool ~client:i ~file ~blk)
              ->
                ()
            | Some _ ->
                incr mismatches;
                acc.failed <- acc.failed + 1;
                say acc "client%d: w%d block %d read back wrong\n" i file blk
            | None -> ()
          done;
          ignore (op (fun () -> Nfs_client.close m fd)))
    fds;
  let retrans = Client_transport.retransmits (Nfs_client.transport m) in
  say acc "client%d mismatches=%d retransmits=%d\n" i !mismatches retrans;
  acc.retransmits <- acc.retransmits + retrans

let lan_write acc ~size ~seed =
  let n, n_srv, blocks =
    match size with Full -> (32, 4, 64) | Mini -> (4, 2, 8)
  in
  let files = 4 in
  acc.clients <- n;
  let label = "lan-write" in
  let t0 = now () in
  let sim = Sim.create () in
  let sink = Trace.create ~capacity:(1 lsl 21) () in
  attach_probe acc sim (Some sink);
  let topo =
    Topology.build_graph sim
      {
        Topology.g_servers = n_srv;
        g_clients = n;
        g_tier = Topology.Backbone 1;
        g_wan_fraction = 0.0;
        g_params = params seed;
      }
  in
  attach_nodes topo (Some sink);
  (* Set-up is not the load: the invariants judge the load alone. *)
  Trace.set_enabled sink false;
  let fleet =
    Fleet.create ~policy:Fleet.Hash ~seed ~shards:n topo.Topology.servers
  in
  let udps = List.map (fun c -> Udp.install c) topo.Topology.clients in
  let prng = Rng.create (seed + 0x5eed) in
  let pool = Bytes.init (65536 + block) (fun _ -> Char.chr (Rng.int prng 256)) in
  let t_built = now () in
  acc.build_s <- t_built -. t0;
  let t_provisioned = ref t_built in
  let ready = Proc.Ivar.create sim and go = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      t_provisioned := now ();
      acc.provision_s <- !t_provisioned -. t_built;
      Proc.Ivar.fill ready ());
  let hist = Stats.Hist.create ~bucket_width:1.0 ~buckets:5000 in
  let mounted = ref 0 and finished = ref 0 in
  let load = ref None in
  List.iteri
    (fun i udp ->
      Proc.spawn sim (fun () ->
          Proc.Ivar.read ready;
          Proc.sleep sim (float_of_int i *. 0.003);
          let opts =
            if i mod 2 = 0 then Nfs_client.reno_mount else Nfs_client.v3_mount
          in
          let m =
            Fleet.mount_shard fleet ~udp ~shard:(Printf.sprintf "/home%d" i) opts
          in
          (* The files are created at set-up, with the trace gated
             off: [Fault.Check.no_double_effect] keys executions by
             (xid, procedure) alone, and every client numbers its xids
             from 1, so two clients' CREATEs on one server would read
             as one request executed twice. *)
          let fds =
            Array.init files (fun k -> Nfs_client.create m (file_name k))
          in
          incr mounted;
          if !mounted = n then acc.mount_s <- now () -. !t_provisioned;
          Proc.Ivar.read go;
          let rng = Rng.create ((seed * 1_000_003) + i) in
          lan_client acc ~sim ~pool ~rng ~hist ~blocks ~think:0.2 i m fds;
          incr finished;
          if !finished = n then begin
            Trace.set_enabled sink false;
            finish_load acc (Option.get !load)
          end))
    udps;
  drive ~label ~window:0.25 sim ~on_window:ignore (fun () -> !mounted = n);
  Trace.set_enabled sink true;
  load := Some (start_load acc sim (Some sink));
  Proc.Ivar.fill go ();
  drive ~label ~window:1.0 sim ~on_window:(sample acc sim) (fun () ->
      !finished = n);
  let t = now () in
  let fss =
    List.map
      (fun srv -> (Node.id (Nfs_server.node srv), Nfs_server.fs srv))
      (Fleet.servers fleet)
  in
  let read_back ~node ~file ~off ~len =
    match List.assoc_opt node fss with
    | None -> None
    | Some fs -> (
        try Some (Fs.read fs (Fs.vnode_by_ino fs file) ~off ~len)
        with _ -> None)
  in
  (* Reading back from a server's file system may wait on its disk, so
     the verdict is evaluated inside a process. *)
  let verdict = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Proc.Ivar.fill verdict
        (Slo.evaluate Renofs_scenario.Scenario.default_slo
           ~server_nodes:(List.map fst fss) ~read_back (Trace.to_list sink)));
  drive ~label ~window:1.0 sim ~on_window:ignore (fun () ->
      Proc.Ivar.is_full verdict);
  let o = Option.get (Proc.Ivar.peek verdict) in
  acc.trace_records <- Trace.total sink;
  acc.trace_dropped <- Trace.dropped sink;
  acc.breaches <- List.map (fun b -> b.Slo.b_slo) o.Slo.o_breaches;
  List.iter
    (fun b -> say acc "breach %s: %s\n" b.Slo.b_slo b.Slo.b_detail)
    o.Slo.o_breaches;
  (* A verdict over a wrapped ring is not exact: count it as a breach. *)
  if acc.trace_dropped > 0 then acc.breaches <- "trace-ring-wrapped" :: acc.breaches;
  say acc "lan-write clients=%d servers=%d ops=%d failed=%d\n" n n_srv
    acc.attempted acc.failed;
  say_servers acc (Fleet.servers fleet);
  say_hist acc "latency_ms" hist;
  say acc "verdict: %s\n"
    (match acc.breaches with [] -> "PASS" | bs -> String.concat "," bs);
  acc.verdict_s <- now () -. t

let run acc ~workload ~size ~seed =
  match workload with
  | "fleet-1000c" -> fleet acc ~size ~seed
  | "graph5-wan" -> graph5 acc ~size ~seed
  | "lan-write" -> lan_write acc ~size ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let workloads = [ "fleet-1000c"; "graph5-wan"; "lan-write" ]
