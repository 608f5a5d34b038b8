module Sim = Renofs_engine.Sim
module Probe = Renofs_engine.Probe
module Cpu = Renofs_engine.Cpu

type kind = Reg | Dir | Lnk

type attrs = {
  kind : kind;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  ino : int;
  atime : float;
  mtime : float;
  ctime : float;
}

type err =
  | Enoent
  | Eexist
  | Enotdir
  | Eisdir
  | Enotempty
  | Estale
  | Einval
  | Efbig

exception Err of err

type config = {
  bcache_search : Bcache.search_mode;
  name_cache : bool;
  sync_data : bool;
}

let reno_config =
  { bcache_search = Bcache.Vnode_chained; name_cache = true; sync_data = true }

(* FFS on a local disk: synchronous metadata, delayed data. *)
let local_config = { reno_config with sync_data = false }

(* Every configuration has a 256-buffer cache of 8K blocks, and writes
   metadata synchronously, as both NFS servers and local FFS do. *)
let bcache_blocks = 256
let block_size = 8192

(* A regular file's bytes in [chunk_size] chunks.  A chunk is
   [Bytes.empty] until first written, and so is every chunk past the end
   of [chunks]: a hole, reading as zeros, so growing a file allocates
   nothing.  Every byte at or past [len] reads as zero (truncation clears
   what it cuts off).  [read] lends a whole aligned chunk instead of
   copying it and marks it in [lent]; a later change to a lent chunk
   goes to a fresh chunk, so bytes once returned never change. *)
type file_data = {
  mutable chunks : Bytes.t array;
  mutable lent : bool array;
  mutable len : int;
}

let chunk_size = 8192

type dirents = {
  names : (string, int) Hashtbl.t;
  mutable order : string list; (* newest first *)
}

type body = File of file_data | Directory of dirents | Symlink of string

(* A vnode's times sit in their own all-float record, stored unboxed:
   as float fields of the mixed vnode each would point at a boxed
   float, and every read, write or directory change would leave the
   vnode holding a fresh box. *)
type times = { mutable atime : float; mutable mtime : float; mutable ctime : float }

let times_at ts = { atime = ts; mtime = ts; ctime = ts }

type vnode = {
  v_ino : int;
  mutable body : body;
  mutable mode : int;
  mutable nlink : int;
  mutable uid : int;
  mutable gid : int;
  times : times;
  mutable parent : int; (* directory containing this node; for dirs, ".." *)
}

type fsstat = { total_blocks : int; free_blocks : int; block_size : int }

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  disk : Disk.t;
  config : config;
  inodes : (int, vnode) Hashtbl.t;
  mutable next_ino : int;
  namecache : Namecache.t option;
  bcache : Bcache.t;
}

let max_file_size = 64 * 1024 * 1024

(* Operation CPU costs, in instructions. *)
let base_op_instr = 90.0
let getattr_instr = 110.0
let dirent_instr = 16.0
let inode_alloc_instr = 300.0

(* How many directory entries we treat as living in one cached block. *)
let dirents_per_block = 128

(* Every operation opens with a [charge], which suspends on the CPU, so
   the file-system computation proper runs in the resumed segment.  When
   probed, rebind that segment to the vfs slot: the enter is deliberately
   unmatched — the enclosing event's fire boundary truncates the stack —
   which is safe by the probe's truncation discipline and attributes the
   rest of the segment (hash lookups, bcache, byte blits) to vfs. *)
let charge t instr =
  Cpu.consume t.cpu (Cpu.seconds_of_instructions t.cpu instr);
  match Sim.probe t.sim with
  | None -> ()
  | Some p -> ignore (p.Probe.enter Probe.vfs)

let root_ino = 2

let create sim cpu disk config =
  let t =
    {
      sim;
      cpu;
      disk;
      config;
      inodes = Hashtbl.create 512;
      next_ino = root_ino + 1;
      namecache = (if config.name_cache then Some (Namecache.create ()) else None);
      bcache = Bcache.create sim cpu ~blocks:bcache_blocks ~search:config.bcache_search ();
    }
  in
  let now = Sim.now sim in
  let root =
    {
      v_ino = root_ino;
      body = Directory { names = Hashtbl.create 16; order = [] };
      (* Exported scratch filesystems are world-writable at the top. *)
      mode = 0o777;
      nlink = 2;
      uid = 0;
      gid = 0;
      times = times_at now;
      parent = root_ino;
    }
  in
  Hashtbl.replace t.inodes root_ino root;
  t

let root t = Hashtbl.find t.inodes root_ino
let ino v = v.v_ino

let vnode_by_ino t i =
  match Hashtbl.find_opt t.inodes i with
  | Some v -> v
  | None -> raise (Err Estale)

let kind_of v =
  match v.body with File _ -> Reg | Directory _ -> Dir | Symlink _ -> Lnk

let size_of v =
  match v.body with
  | File f -> f.len
  | Directory d -> Hashtbl.length d.names * 64
  | Symlink s -> String.length s

let attrs_of v =
  {
    kind = kind_of v;
    mode = v.mode;
    nlink = v.nlink;
    uid = v.uid;
    gid = v.gid;
    size = size_of v;
    ino = v.v_ino;
    atime = v.times.atime;
    mtime = v.times.mtime;
    ctime = v.times.ctime;
  }

let dir_of v =
  match v.body with Directory d -> d | File _ | Symlink _ -> raise (Err Enotdir)

let file_of v =
  match v.body with
  | File f -> f
  | Directory _ -> raise (Err Eisdir)
  | Symlink _ -> raise (Err Einval)

(* Touch a directory block range through the buffer cache, paying disk
   reads for misses. *)
let touch_dir_blocks t dir_v ~upto_entry =
  let blocks = (upto_entry / dirents_per_block) + 1 in
  for blk = 0 to blocks - 1 do
    if not (Bcache.lookup t.bcache ~ino:dir_v.v_ino ~blk) then begin
      Disk.read t.disk ~bytes:block_size;
      Bcache.insert t.bcache ~ino:dir_v.v_ino ~blk
    end
  done

(* Write a directory's metadata, synchronously: the directory data
   block plus the inode. *)
let flush_dir_update t dir_v =
  Bcache.insert t.bcache ~ino:dir_v.v_ino ~blk:0;
  Disk.write t.disk ~bytes:block_size;
  Disk.write t.disk ~bytes:512 (* inode *)

let getattr t v =
  charge t getattr_instr;
  attrs_of v

(* [f ci ~lo ~pos ~n] for each chunk [ci] that [off, off + len) overlaps:
   bytes [lo, lo + n) of the chunk are bytes [pos, pos + n) of the range. *)
let iter_chunks ~off ~len f =
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let lo = abs mod chunk_size in
    let n = Int.min (chunk_size - lo) (len - !pos) in
    f (abs / chunk_size) ~lo ~pos:!pos ~n;
    pos := !pos + n
  done

let chunk f ci = if ci < Array.length f.chunks then f.chunks.(ci) else Bytes.empty

(* Chunk [ci], ready to change: a hole is allocated zeroed and a lent
   chunk is copied.  A caller about to overwrite all of it ([whole])
   needs neither the zeros nor the old bytes. *)
let own_chunk f ci ~whole =
  let c = f.chunks.(ci) in
  if Bytes.length c > 0 && not f.lent.(ci) then c
  else begin
    let c =
      if whole then Bytes.create chunk_size
      else if Bytes.length c = 0 then Bytes.make chunk_size '\000'
      else Bytes.copy c
    in
    f.chunks.(ci) <- c;
    f.lent.(ci) <- false;
    c
  end

(* Cover [size] bytes with chunk slots: one growth per call, doubling so
   that a file written front to back is not copied once per chunk. *)
let reserve f size =
  let need = (size + chunk_size - 1) / chunk_size in
  let have = Array.length f.chunks in
  if need > have then begin
    let grow a hole = Array.append a (Array.make (Int.max need (2 * have) - have) hole) in
    f.chunks <- grow f.chunks Bytes.empty;
    f.lent <- grow f.lent false
  end

(* Zero [off, off + len) of the allocated chunks: a whole chunk becomes a
   hole again (a lent one is simply let go), part of one is zeroed. *)
let clear f ~off ~len =
  let len = Int.min len ((Array.length f.chunks * chunk_size) - off) in
  iter_chunks ~off ~len (fun ci ~lo ~pos:_ ~n ->
      if n = chunk_size then begin
        f.chunks.(ci) <- Bytes.empty;
        f.lent.(ci) <- false
      end
      else if Bytes.length f.chunks.(ci) > 0 then
        Bytes.fill (own_chunk f ci ~whole:false) lo n '\000')

let now t = Sim.now t.sim

let setattr t v ?mode ?uid ?gid ?size ?mtime () =
  charge t (base_op_instr +. 80.0);
  (match mode with Some m -> v.mode <- m | None -> ());
  (match uid with Some u -> v.uid <- u | None -> ());
  (match gid with Some g -> v.gid <- g | None -> ());
  (match size with
  | Some s -> (
      match v.body with
      | File f ->
          if s > max_file_size then raise (Err Efbig);
          if s < f.len then clear f ~off:s ~len:(f.len - s);
          f.len <- s;
          v.times.mtime <- now t
      | Directory _ | Symlink _ -> raise (Err Einval))
  | None -> ());
  (match mtime with Some m -> v.times.mtime <- m | None -> ());
  v.times.ctime <- now t;
  Disk.write t.disk ~bytes:512;
  attrs_of v

(* Position of [name] in directory insertion order (oldest first), used
   to model how far a linear scan must walk. *)
let scan_position d name =
  let oldest_first = List.rev d.order in
  let rec go i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 oldest_first

let lookup t dirv name =
  charge t base_op_instr;
  let d = dir_of dirv in
  if String.equal name "." then dirv
  else if String.equal name ".." then vnode_by_ino t dirv.parent
  else begin
    let from_cache =
      match t.namecache with
      | Some nc -> (
          match Namecache.lookup nc ~dir:dirv.v_ino name with
          | Some i -> Hashtbl.find_opt t.inodes i
          | None -> None)
      | None -> None
    in
    match from_cache with
    | Some v -> v
    | None -> (
        (* Linear directory scan through the buffer cache. *)
        let total = Hashtbl.length d.names in
        let pos = scan_position d name in
        let examined = match pos with Some p -> p + 1 | None -> total in
        charge t (dirent_instr *. float_of_int examined);
        touch_dir_blocks t dirv ~upto_entry:(max 0 (examined - 1));
        match Hashtbl.find_opt d.names name with
        | None -> raise (Err Enoent)
        | Some i ->
            let v = vnode_by_ino t i in
            (match t.namecache with
            | Some nc -> Namecache.enter nc ~dir:dirv.v_ino name i
            | None -> ());
            v)
  end

let blocks_in_range ~off ~len =
  if len = 0 then []
  else begin
    let first = off / block_size in
    let last = (off + len - 1) / block_size in
    List.init (last - first + 1) (fun i -> first + i)
  end

let read t v ~off ~len =
  charge t base_op_instr;
  if off < 0 || len < 0 then raise (Err Einval);
  let f = file_of v in
  let len = if off >= f.len then 0 else min len (f.len - off) in
  List.iter
    (fun blk ->
      if not (Bcache.lookup t.bcache ~ino:v.v_ino ~blk) then begin
        Disk.read t.disk ~bytes:block_size;
        Bcache.insert t.bcache ~ino:v.v_ino ~blk
      end)
    (blocks_in_range ~off ~len);
  v.times.atime <- now t;
  let ci = off / chunk_size in
  if len = chunk_size && off mod chunk_size = 0 && Bytes.length (chunk f ci) > 0
  then begin
    f.lent.(ci) <- true;
    f.chunks.(ci)
  end
  else begin
    let out = Bytes.create len in
    iter_chunks ~off ~len (fun ci ~lo ~pos ~n ->
        let c = chunk f ci in
        if Bytes.length c = 0 then Bytes.fill out pos n '\000'
        else Bytes.blit c lo out pos n);
    out
  end

let blit_in f ~off data =
  iter_chunks ~off ~len:(Bytes.length data) (fun ci ~lo ~pos ~n ->
      Bytes.blit data pos (own_chunk f ci ~whole:(n = chunk_size)) lo n)

(* The body of every write of [len] bytes at [off]: [fill] puts the
   bytes into the file's chunks, and the costs depend on [off] and [len]
   alone. *)
let store t v ~off ~len fill =
  charge t (base_op_instr +. 60.0);
  if off < 0 then raise (Err Einval);
  let f = file_of v in
  let total = off + len in
  if total > max_file_size then raise (Err Efbig);
  let old_blocks = (f.len + block_size - 1) / block_size in
  reserve f total;
  fill f;
  if total > f.len then f.len <- total;
  let touched = blocks_in_range ~off ~len in
  List.iter
    (fun blk ->
      ignore (Bcache.lookup t.bcache ~ino:v.v_ino ~blk);
      Bcache.insert t.bcache ~ino:v.v_ino ~blk)
    touched;
  v.times.mtime <- now t;
  v.times.ctime <- now t;
  if t.config.sync_data then begin
    (* Data block(s), the inode, and one indirect block when the file
       has grown past the direct blocks: the paper's 1-3 disk writes. *)
    List.iter (fun _ -> Disk.write t.disk ~bytes:block_size) touched;
    Disk.write t.disk ~bytes:512;
    let new_blocks = (f.len + block_size - 1) / block_size in
    if new_blocks > old_blocks && new_blocks > 12 then
      Disk.write t.disk ~bytes:512
  end

let write t v ~off data =
  store t v ~off ~len:(Bytes.length data) (fun f -> blit_in f ~off data)

(* A whole aligned piece becomes the chunk, marked lent as [read] marks
   the chunks it hands out, so [own_chunk] copies it before any change. *)
let write_lent t v ~off pieces =
  let len = List.fold_left (fun n p -> n + Bytes.length p) 0 pieces in
  store t v ~off ~len (fun f ->
      let lend off p =
        if Bytes.length p = chunk_size && off mod chunk_size = 0 then begin
          f.chunks.(off / chunk_size) <- p;
          f.lent.(off / chunk_size) <- true
        end
        else blit_in f ~off p;
        off + Bytes.length p
      in
      ignore (List.fold_left lend off pieces))

let alloc_vnode t ~body ~mode ?(uid = 0) ?(gid = 0) ~parent () =
  let i = t.next_ino in
  t.next_ino <- t.next_ino + 1;
  let ts = now t in
  let v =
    {
      v_ino = i;
      body;
      mode;
      nlink = 1;
      uid;
      gid;
      times = times_at ts;
      parent;
    }
  in
  Hashtbl.replace t.inodes i v;
  v

let add_entry t dirv name ino_ =
  let d = dir_of dirv in
  Hashtbl.replace d.names name ino_;
  d.order <- name :: d.order;
  dirv.times.mtime <- now t;
  dirv.times.ctime <- now t;
  (match t.namecache with
  | Some nc -> Namecache.enter nc ~dir:dirv.v_ino name ino_
  | None -> ());
  flush_dir_update t dirv

(* Operating through a vnode whose inode is gone (e.g. a directory
   removed behind the caller's back) is the stale-handle case. *)
let ensure_live t v =
  if not (Hashtbl.mem t.inodes v.v_ino) then raise (Err Estale)

let check_absent t dirv name =
  ensure_live t dirv;
  let d = dir_of dirv in
  if String.length name = 0 || String.contains name '/' then raise (Err Einval);
  if Hashtbl.mem d.names name then raise (Err Eexist)

let create_file t ~dir name ~mode ?uid ?gid () =
  charge t (base_op_instr +. inode_alloc_instr);
  check_absent t dir name;
  let v =
    alloc_vnode t ~body:(File { chunks = [||]; lent = [||]; len = 0 }) ~mode ?uid ?gid
      ~parent:dir.v_ino ()
  in
  Disk.write t.disk ~bytes:512 (* new inode *);
  add_entry t dir name v.v_ino;
  v

let mkdir t ~dir name ~mode ?uid ?gid () =
  charge t (base_op_instr +. inode_alloc_instr);
  check_absent t dir name;
  let v =
    alloc_vnode t
      ~body:(Directory { names = Hashtbl.create 8; order = [] })
      ~mode ?uid ?gid ~parent:dir.v_ino ()
  in
  v.nlink <- 2;
  dir.nlink <- dir.nlink + 1;
  Disk.write t.disk ~bytes:512;
  add_entry t dir name v.v_ino;
  v

let symlink t ~dir name ~target ?uid ?gid () =
  charge t (base_op_instr +. inode_alloc_instr);
  check_absent t dir name;
  let v =
    alloc_vnode t ~body:(Symlink target) ~mode:0o777 ?uid ?gid ~parent:dir.v_ino ()
  in
  Disk.write t.disk ~bytes:512;
  add_entry t dir name v.v_ino

let readlink t v =
  charge t base_op_instr;
  match v.body with
  | Symlink s -> s
  | File _ | Directory _ -> raise (Err Einval)

let find_entry t dirv name =
  ensure_live t dirv;
  let d = dir_of dirv in
  match Hashtbl.find_opt d.names name with
  | Some i -> i
  | None -> raise (Err Enoent)

let drop_entry t dirv name =
  let d = dir_of dirv in
  Hashtbl.remove d.names name;
  d.order <- List.filter (fun n -> not (String.equal n name)) d.order;
  (match t.namecache with
  | Some nc -> Namecache.remove nc ~dir:dirv.v_ino name
  | None -> ());
  dirv.times.mtime <- now t;
  dirv.times.ctime <- now t;
  flush_dir_update t dirv

let forget t v =
  Hashtbl.remove t.inodes v.v_ino;
  Bcache.invalidate_ino t.bcache v.v_ino;
  match t.namecache with
  | Some nc -> Namecache.invalidate_dir nc v.v_ino
  | None -> ()

let remove t ~dir name =
  charge t (base_op_instr +. 120.0);
  let i = find_entry t dir name in
  let v = vnode_by_ino t i in
  (match v.body with Directory _ -> raise (Err Eisdir) | File _ | Symlink _ -> ());
  drop_entry t dir name;
  v.nlink <- v.nlink - 1;
  if v.nlink <= 0 then forget t v
  else Disk.write t.disk ~bytes:512

let rmdir t ~dir name =
  charge t (base_op_instr +. 120.0);
  let i = find_entry t dir name in
  let v = vnode_by_ino t i in
  let d = dir_of v in
  if Hashtbl.length d.names > 0 then raise (Err Enotempty);
  drop_entry t dir name;
  dir.nlink <- dir.nlink - 1;
  forget t v

let rename t ~src_dir name ~dst_dir new_name =
  charge t (base_op_instr +. 200.0);
  ensure_live t dst_dir;
  let i = find_entry t src_dir name in
  let moved = vnode_by_ino t i in
  let is_dir v = match v.body with Directory _ -> true | File _ | Symlink _ -> false in
  (* Remove a displaced destination first, as rename(2) does. *)
  (let d = dir_of dst_dir in
   match Hashtbl.find_opt d.names new_name with
   | Some j when j <> i ->
       let victim = vnode_by_ino t j in
       (match victim.body with
       | Directory dd when Hashtbl.length dd.names > 0 -> raise (Err Enotempty)
       | _ -> ());
       drop_entry t dst_dir new_name;
       if is_dir victim then begin
         (* An empty directory victim: its parent loses the ".." link
            and the directory itself is gone. *)
         dst_dir.nlink <- dst_dir.nlink - 1;
         forget t victim
       end
       else begin
         victim.nlink <- victim.nlink - 1;
         if victim.nlink <= 0 then forget t victim
       end
   | _ -> ());
  drop_entry t src_dir name;
  add_entry t dst_dir new_name i;
  (* A directory changing parents carries its ".." link with it. *)
  if is_dir moved && src_dir.v_ino <> dst_dir.v_ino then begin
    src_dir.nlink <- src_dir.nlink - 1;
    dst_dir.nlink <- dst_dir.nlink + 1
  end;
  moved.parent <- dst_dir.v_ino;
  moved.times.ctime <- now t

let link t ~src ~dir name =
  charge t (base_op_instr +. 120.0);
  ensure_live t src;
  (match src.body with Directory _ -> raise (Err Eisdir) | File _ | Symlink _ -> ());
  check_absent t dir name;
  src.nlink <- src.nlink + 1;
  src.times.ctime <- now t;
  add_entry t dir name src.v_ino

let readdir t v ~cookie ~count =
  charge t base_op_instr;
  let d = dir_of v in
  if cookie < 0 || count <= 0 then raise (Err Einval);
  let all = List.rev d.order in
  let total = List.length all in
  touch_dir_blocks t v ~upto_entry:(max 0 (min (cookie + count) total - 1));
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
  let rec take n l =
    if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r
  in
  let page = take count (drop cookie all) in
  charge t (dirent_instr *. float_of_int (List.length page));
  let entries =
    List.map (fun n -> (n, Hashtbl.find d.names n)) page
  in
  (entries, cookie + List.length page >= total)

let statfs t =
  charge t base_op_instr;
  let used =
    Hashtbl.fold
      (fun _ v acc ->
        acc + ((size_of v + block_size - 1) / block_size))
      t.inodes 0
  in
  {
    total_blocks = 65536;
    free_blocks = max 0 (65536 - used);
    block_size = block_size;
  }

let namecache t = t.namecache

let fsck t =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* Count references from directory entries. *)
  let refs = Hashtbl.create 64 in
  let bump i = Hashtbl.replace refs i (1 + Option.value ~default:0 (Hashtbl.find_opt refs i)) in
  Hashtbl.iter
    (fun ino_ v ->
      match v.body with
      | Directory d ->
          Hashtbl.iter
            (fun name target ->
              match Hashtbl.find_opt t.inodes target with
              | None -> complain "entry %d/%s points at dead inode %d" ino_ name target
              | Some child -> (
                  bump target;
                  match child.body with
                  | Directory _ when child.parent <> ino_ ->
                      complain "directory %d has parent %d but lives in %d" target
                        child.parent ino_
                  | _ -> ()))
            d.names;
          (* The order list and the name table must agree. *)
          if List.length d.order <> Hashtbl.length d.names then
            complain "directory %d order/table mismatch (%d vs %d)" ino_
              (List.length d.order) (Hashtbl.length d.names);
          List.iter
            (fun n ->
              if not (Hashtbl.mem d.names n) then
                complain "directory %d order lists ghost entry %s" ino_ n)
            d.order
      | File _ | Symlink _ -> ())
    t.inodes;
  (* Link counts. *)
  Hashtbl.iter
    (fun ino_ v ->
      let entry_refs = Option.value ~default:0 (Hashtbl.find_opt refs ino_) in
      match v.body with
      | File _ | Symlink _ ->
          if ino_ <> root_ino && entry_refs = 0 then
            complain "inode %d is orphaned (no directory entry)" ino_;
          if v.nlink <> entry_refs then
            complain "inode %d nlink %d but %d directory references" ino_ v.nlink
              entry_refs
      | Directory d ->
          (* nlink = 2 (self + entry) + one per child directory. *)
          let subdirs =
            Hashtbl.fold
              (fun _ child acc ->
                match Hashtbl.find_opt t.inodes child with
                | Some c when (match c.body with Directory _ -> true | _ -> false) ->
                    acc + 1
                | _ -> acc)
              d.names 0
          in
          let expected = 2 + subdirs in
          if v.nlink <> expected then
            complain "directory %d nlink %d, expected %d" ino_ v.nlink expected;
          if ino_ <> root_ino && entry_refs <> 1 then
            complain "directory %d has %d entries pointing at it" ino_ entry_refs)
    t.inodes;
  List.rev !problems
