module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Rng = Renofs_engine.Rng
module Stats = Renofs_engine.Stats
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport

type op = Op_lookup | Op_read | Op_getattr | Op_write | Op_readdir

type mix = (op * float) list

let lookup_mix = [ (Op_lookup, 1.0) ]
let read_lookup_mix = [ (Op_read, 0.5); (Op_lookup, 0.5) ]

(* Nhfsstone's stock mix, restricted to the operations we generate and
   renormalised (writes at the 8% default the paper quotes).  Because
   the mix writes, the subtree changes during a run — hence the
   appendix's caveat that it must be preloaded before each test. *)
let default_mix =
  [
    (Op_lookup, 0.425);
    (Op_read, 0.275);
    (Op_getattr, 0.1625);
    (Op_write, 0.1);
    (Op_readdir, 0.0375);
  ]

(* Sustained bulk-transfer phases (the xDFS-style file-movement
   workload): read/write dominated, a sliver of lookups to keep name
   traffic alive. *)
let bulk_mix = [ (Op_read, 0.45); (Op_write, 0.45); (Op_lookup, 0.10) ]

let mix_of_name = function
  | "lookup" -> Some lookup_mix
  | "read-lookup" -> Some read_lookup_mix
  | "default" -> Some default_mix
  | "bulk" -> Some bulk_mix
  | _ -> None

let mix_names = [ "lookup"; "read-lookup"; "default"; "bulk" ]

type config = {
  rate : float;
  duration : float;
  children : int;
  mix : mix;
  seed : int;
}

type result = {
  achieved : float;
  ops_completed : int;
  retransmits : int;
  read_rate : float;
  mean_op_latency : float;
}

let pick_op rng mix =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  let x = Rng.float rng total in
  let rec go acc = function
    | [] -> Op_lookup
    | (op, w) :: rest -> if x < acc +. w then op else go (acc +. w) rest
  in
  go 0.0 mix

(* ------------------------------------------------------------------ *)
(* Rate-schedule programs                                             *)
(* ------------------------------------------------------------------ *)

type segment = {
  sg_label : string;
  sg_duration : float;
  sg_rate : float;
  sg_rate_end : float option;
  sg_mix : mix;
}

type program = {
  pg_segments : segment list;
  pg_children : int;
  pg_seed : int;
}

let program_duration p =
  List.fold_left (fun acc s -> acc +. s.sg_duration) 0.0 p.pg_segments

(* The RNG draw sequence per op (file pick, mix pick, read offset)
   must not change: the committed bench baselines depend on it. *)
let run_program ?latency_hist mount fileset program =
  let sim = Nfs_client.sim mount in
  if program.pg_segments = [] then
    invalid_arg "Nhfsstone.run_program: empty program";
  let files = Array.of_list fileset.Fileset.files in
  if Array.length files = 0 then invalid_arg "Nhfsstone.run_program: empty fileset";
  let completed = ref 0 and reads_done = ref 0 in
  let op_latency = Stats.Welford.create () in
  (* Shared open-file table, filled lazily. *)
  let fds = Hashtbl.create 16 in
  let fd_of path =
    match Hashtbl.find_opt fds path with
    | Some fd -> fd
    | None ->
        let fd = Nfs_client.open_ mount path in
        Hashtbl.replace fds path fd;
        fd
  in
  let one_op rng mix =
    let path = files.(Rng.int rng (Array.length files)) in
    let t0 = Sim.now sim in
    let op = pick_op rng mix in
    (try
       match op with
       | Op_lookup | Op_getattr -> ignore (Nfs_client.stat mount path)
       | Op_read ->
           let fd = fd_of path in
           let max_blk = max 1 (fileset.Fileset.file_size / 8192) in
           let off = Rng.int rng max_blk * 8192 in
           ignore (Nfs_client.read mount fd ~off ~len:8192);
           incr reads_done
       | Op_write ->
           let fd = fd_of path in
           Nfs_client.write mount fd ~off:0 (Bytes.make 8192 'w');
           Nfs_client.fsync mount fd
       | Op_readdir -> (
           match String.index_opt path '/' with
           | Some i -> ignore (Nfs_client.readdir mount (String.sub path 0 i))
           | None -> ())
     with Nfs_client.Nfs_error _ | Client_transport.Rpc_error _ -> ());
    incr completed;
    let dt = Sim.now sim -. t0 in
    Stats.Welford.add op_latency dt;
    match latency_hist with
    | Some h -> Stats.Hist.add h (dt *. 1000.0)
    | None -> ()
  in
  let xport = Nfs_client.transport mount in
  let before = Client_transport.summary xport in
  let children = max 1 program.pg_children in
  let start = Sim.now sim in
  let total = program_duration program in
  let stop_at = start +. total in
  (* Segment boundaries relative to [start]; [seg_at] clamps to the
     last segment so an op landing exactly on [stop_at] still has a
     mix. *)
  let segs =
    let t = ref 0.0 in
    List.map
      (fun s ->
        let s0 = !t in
        t := !t +. s.sg_duration;
        (s0, !t, s))
      program.pg_segments
    |> Array.of_list
  in
  let seg_at t =
    let rec go i =
      if i >= Array.length segs - 1 then segs.(Array.length segs - 1)
      else
        let (_, s1, _) = segs.(i) in
        if t < s1 then segs.(i) else go (i + 1)
    in
    go 0
  in
  (* Instantaneous offered rate: constant per segment, or a linear ramp
     from [sg_rate] to [sg_rate_end]. *)
  let rate_at (s0, s1, s) t =
    match s.sg_rate_end with
    | None -> s.sg_rate
    | Some re ->
        let w = s1 -. s0 in
        if w <= 0.0 then re
        else s.sg_rate +. ((re -. s.sg_rate) *. ((t -. s0) /. w))
  in
  let finished = ref 0 in
  let all_done = Proc.Ivar.create sim in
  for i = 1 to children do
    let crng = Rng.create (program.pg_seed + (i * 7919)) in
    Proc.spawn sim (fun () ->
        let rec loop () =
          let now = Sim.now sim in
          if now < stop_at then begin
            let ((_, s1, _) as seg) = seg_at (now -. start) in
            let rate = rate_at seg (now -. start) /. float_of_int children in
            if rate <= 1e-9 then begin
              (* Idle phase: jump to the segment boundary rather than
                 draw from an infinite-mean exponential. *)
              Proc.sleep sim (s1 -. (now -. start) +. 1e-6);
              loop ()
            end
            else begin
              Proc.sleep sim (Rng.exponential crng (1.0 /. rate));
              if Sim.now sim < stop_at then begin
                (* The op uses the mix of the segment it fires in, not
                   the one it was scheduled from. *)
                let (_, _, s) = seg_at (Sim.now sim -. start) in
                one_op crng s.sg_mix
              end;
              loop ()
            end
          end
        in
        loop ();
        incr finished;
        if !finished = children then Proc.Ivar.fill all_done ())
  done;
  Proc.Ivar.read all_done;
  let after = Client_transport.summary xport in
  {
    achieved = float_of_int !completed /. total;
    ops_completed = !completed;
    retransmits =
      after.Client_transport.retransmits - before.Client_transport.retransmits;
    read_rate = float_of_int !reads_done /. total;
    mean_op_latency = Stats.Welford.mean op_latency;
  }

(* A fixed-rate run is a program of one constant segment. *)
let run ?latency_hist mount fileset config =
  run_program ?latency_hist mount fileset
    {
      pg_segments =
        [
          {
            sg_label = "run";
            sg_duration = config.duration;
            sg_rate = config.rate;
            sg_rate_end = None;
            sg_mix = config.mix;
          };
        ];
      pg_children = config.children;
      pg_seed = config.seed;
    }
