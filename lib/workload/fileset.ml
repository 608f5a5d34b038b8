module Fs = Renofs_vfs.Fs
module Nfs_server = Renofs_core.Nfs_server

type t = { dirs : string list; files : string list; file_size : int }

let dir_name i = Printf.sprintf "d%02d" i

let file_name ~long_names d f =
  if long_names then
    (* 38 characters: past the 31-character name-cache limit. *)
    Printf.sprintf "nhfsstone_long_file_name_%02d_%02d_xxxxx" d f
  else Printf.sprintf "f%02d_%02d" d f

let generate ~dirs ~files_per_dir ~file_size ~long_names =
  let dir_list = List.init dirs dir_name in
  let files =
    List.concat
      (List.init dirs (fun d ->
           List.init files_per_dir (fun f ->
               dir_name d ^ "/" ^ file_name ~long_names d f)))
  in
  { dirs = dir_list; files; file_size }

(* Byte [i] is [(base + stride*i) land 255], which repeats every 256
   bytes: compute one period, then double the filled prefix in place. *)
let periodic ~base ~stride ~size =
  let b = Bytes.create size in
  let period = min size 256 in
  for i = 0 to period - 1 do
    Bytes.set b i (Char.chr ((base + (stride * i)) land 255))
  done;
  let filled = ref period in
  while !filled < size do
    let n = min !filled (size - !filled) in
    Bytes.blit b 0 b !filled n;
    filled := !filled + n
  done;
  b

let base_of path = Hashtbl.hash path land 0xFF
let content ~path ~size = periodic ~base:(base_of path) ~stride:31 ~size

(* [content] repeats every 256 bytes, and [Fs.chunk_size] is a multiple
   of 256, so every whole chunk of a body is its base's first chunk.
   Each base's is built at its first preload and lent to every file with
   that base; domains that race to build it agree on the first stored.
   An empty slot holds [Bytes.empty], not [None]: building a piece then
   allocates only its bytes, which go straight to the major heap, so a
   run's minor words do not depend on which pieces earlier runs in the
   process built. *)
let pieces = Array.init 256 (fun _ -> Atomic.make Bytes.empty)

let piece base =
  let slot = pieces.(base) in
  let p = Atomic.get slot in
  if Bytes.length p > 0 then p
  else begin
    ignore
      (Atomic.compare_and_set slot p (periodic ~base ~stride:31 ~size:Fs.chunk_size));
    Atomic.get slot
  end

(* [content ~path ~size] as [Fs.write_lent] takes it: the shared piece
   for each whole chunk, then a tail of its own. *)
let body ~path ~size =
  let base = base_of path and tail = size mod Fs.chunk_size in
  List.init (size / Fs.chunk_size) (fun _ -> piece base)
  @ if tail = 0 then [] else [ periodic ~base ~stride:31 ~size:tail ]

let preload_at fs root t =
  List.iter (fun d -> ignore (Fs.mkdir fs ~dir:root d ~mode:0o755 ())) t.dirs;
  List.iter
    (fun path ->
      match String.split_on_char '/' path with
      | [ d; name ] ->
          let dirv = Fs.lookup fs root d in
          let v = Fs.create_file fs ~dir:dirv name ~mode:0o644 () in
          if t.file_size > 0 then
            Fs.write_lent fs v ~off:0 (body ~path ~size:t.file_size)
      | _ -> invalid_arg "Fileset.preload_server: unexpected path shape")
    t.files

let preload_server server t = preload_at (Nfs_server.fs server) (Fs.root (Nfs_server.fs server)) t

let preload_under server ~path t =
  let fs = Nfs_server.fs server in
  let components =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")
  in
  let dir =
    List.fold_left
      (fun dir c ->
        match Fs.lookup fs dir c with
        | v -> v
        | exception Fs.Err Fs.Enoent -> Fs.mkdir fs ~dir c ~mode:0o755 ())
      (Fs.root fs) components
  in
  preload_at fs dir t
