module Sim = Renofs_engine.Sim
module Cpu = Renofs_engine.Cpu
module Rng = Renofs_engine.Rng
module Node = Renofs_net.Node
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport

type config = {
  source_files : int;
  header_files : int;
  subdirs : int;
  compile_instructions_per_byte : float;
  seed : int;
}

let default_config =
  {
    source_files = 50;
    header_files = 20;
    subdirs = 4;
    (* ~2200 instructions per source byte: a 10 KB file takes ~24 s of
       compilation on a 0.9 MIPS MicroVAXII, giving phase V times in the
       paper's range. *)
    compile_instructions_per_byte = 2200.0;
    seed = 71;
  }

type result = {
  phase_times : float array;
  time_i_iv : float;
  time_v : float;
  rpc_counts : (string * int) list;
  total_rpcs : int;
}

let subdir cfg i = Printf.sprintf "mab/s%d" (i mod cfg.subdirs)
let source_path cfg i = Printf.sprintf "%s/src%02d.c" (subdir cfg i) i
let header_path cfg i = Printf.sprintf "%s/hdr%02d.h" (subdir cfg i) i
let copy_of path = "mabcopy/" ^ String.map (fun c -> if c = '/' then '_' else c) path

(* Deterministic file sizes between 2 KB and 26 KB. *)
let size_of_file seed name = 2048 + (Hashtbl.hash (seed, name) mod 24576)

let body name size = Fileset.periodic ~base:(Hashtbl.hash name) ~stride:1 ~size

(* cp and the compiler passes move data through 4 KB stdio buffers, so
   half-block writes are the norm; Reno's dirty-region merging turns two
   of them into one write RPC where an eager client pays two. *)
let io_chunk = 4096

let write_fully m fd data =
  let total = Bytes.length data in
  let rec loop off =
    if off < total then begin
      let n = min io_chunk (total - off) in
      Nfs_client.write m fd ~off (Bytes.sub data off n);
      loop (off + n)
    end
  in
  loop 0

let copy_file m src dst =
  let fd_in = Nfs_client.open_ m src in
  let size = Nfs_client.fd_size m fd_in in
  let fd_out = Nfs_client.create m dst in
  let rec loop off =
    if off < size then begin
      let chunk = Nfs_client.read m fd_in ~off ~len:io_chunk in
      if Bytes.length chunk > 0 then begin
        Nfs_client.write m fd_out ~off chunk;
        loop (off + Bytes.length chunk)
      end
    end
  in
  loop 0;
  Nfs_client.close m fd_in;
  Nfs_client.close m fd_out

let read_fully m path =
  let fd = Nfs_client.open_ m path in
  let size = Nfs_client.fd_size m fd in
  let rec loop off =
    if off < size then begin
      let chunk = Nfs_client.read m fd ~off ~len:8192 in
      if Bytes.length chunk > 0 then loop (off + Bytes.length chunk)
    end
  in
  loop 0;
  Nfs_client.close m fd;
  size

let run m ?(config = default_config) () =
  let sim = Nfs_client.sim m in
  let cpu = Node.cpu (Nfs_client.node m) in
  let think instructions = Cpu.consume cpu (Cpu.seconds_of_instructions cpu instructions) in
  let rng = Rng.create config.seed in
  let xport = Nfs_client.transport m in
  let counts_before = Client_transport.calls_by_proc xport in
  let phase_times = Array.make 5 0.0 in
  let timed i f =
    let t0 = Sim.now sim in
    f ();
    phase_times.(i) <- Sim.now sim -. t0
  in
  let sources = List.init config.source_files (source_path config) in
  let headers = List.init config.header_files (header_path config) in
  let all_files = sources @ headers in

  (* Phase 0 (untimed): materialise the "original" source tree the
     benchmark copies from. *)
  Nfs_client.mkdir m "mab";
  for i = 0 to config.subdirs - 1 do
    Nfs_client.mkdir m (Printf.sprintf "mab/s%d" i)
  done;
  List.iter
    (fun path ->
      let size = size_of_file config.seed path in
      let fd = Nfs_client.create m path in
      Nfs_client.write m fd ~off:0 (body path size);
      Nfs_client.close m fd)
    all_files;

  (* Phase I: make the target directory hierarchy (mkdir is a forked
     command: real work per directory). *)
  timed 0 (fun () ->
      Nfs_client.mkdir m "mabcopy";
      think 200_000.0;
      for i = 0 to config.subdirs - 1 do
        Nfs_client.mkdir m (Printf.sprintf "mabcopy/t%d" i);
        think 200_000.0
      done);

  (* Phase II: copy every file; each cp costs fork/exec/stat work. *)
  timed 1 (fun () ->
      List.iter
        (fun path ->
          think 350_000.0;
          copy_file m path (copy_of path))
        all_files);

  (* Phase III: recursive ls -l — readdir plus a stat of every entry. *)
  timed 2 (fun () ->
      let names = Nfs_client.readdir m "mabcopy" in
      List.iter
        (fun n ->
          ignore (Nfs_client.stat m ("mabcopy/" ^ n));
          (* Formatting and printing the entry. *)
          think 90_000.0)
        names);

  (* Phase IV: read every copied file (grep). *)
  timed 3 (fun () ->
      List.iter
        (fun path ->
          think 120_000.0;
          let size = read_fully m (copy_of path) in
          (* Scanning the bytes costs CPU too. *)
          think (float_of_int size *. 25.0))
        all_files);

  (* Phase V: compile.  Each source is read along with a few headers,
     a lot of CPU burns, and an object file is written. *)
  timed 4 (fun () ->
      let headers_arr = Array.of_list headers in
      List.iter
        (fun src ->
          let size = read_fully m (copy_of src) in
          for _ = 1 to 3 do
            let h = headers_arr.(Rng.int rng (Array.length headers_arr)) in
            ignore (read_fully m (copy_of h))
          done;
          (* The preprocessor writes an intermediate file, the later
             passes read it back, and it is deleted: under close/open
             consistency each temporary costs write RPCs; a noconsist
             mount never pushes it at all. *)
          let tmp = copy_of src ^ ".i" in
          let tsize = size * 3 / 2 in
          let tfd = Nfs_client.create m tmp in
          write_fully m tfd (body tmp tsize);
          Nfs_client.close m tfd;
          ignore (read_fully m tmp);
          Nfs_client.unlink m tmp;
          Cpu.consume cpu
            (Cpu.seconds_of_instructions cpu
               (float_of_int size *. config.compile_instructions_per_byte));
          let obj = copy_of src ^ ".o" in
          let fd = Nfs_client.create m obj in
          let osize = max 1024 (size * 7 / 10) in
          write_fully m fd (body obj osize);
          Nfs_client.close m fd)
        sources);

  (* Counts only grow: every procedure called before the run is in the
     list after it. *)
  let before name = Option.value ~default:0 (List.assoc_opt name counts_before) in
  let rpc_counts =
    List.map
      (fun (name, n) -> (name, n - before name))
      (Client_transport.calls_by_proc xport)
  in
  {
    phase_times;
    time_i_iv = phase_times.(0) +. phase_times.(1) +. phase_times.(2) +. phase_times.(3);
    time_v = phase_times.(4);
    rpc_counts;
    total_rpcs = List.fold_left (fun acc (_, c) -> acc + c) 0 rpc_counts;
  }
