open Renofs_vfs
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu

(* Run [body] as the only process of a fresh world and return its result. *)
let in_world ?(config = Fs.reno_config) body =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  let disk = Disk.create sim in
  let fs = Fs.create sim cpu disk config in
  let result = ref None in
  Proc.spawn sim (fun () -> result := Some (body sim fs));
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "world did not finish"

let check_err expected f =
  match f () with
  | exception Fs.Err e when e = expected -> ()
  | exception Fs.Err _ -> Alcotest.fail "wrong error"
  | _ -> Alcotest.fail "expected an error"

(* ------------------------------------------------------------------ *)
(* Disk                                                               *)
(* ------------------------------------------------------------------ *)

let test_disk_latency () =
  let sim = Sim.create () in
  let disk = Disk.create sim in
  let t_done = ref 0.0 in
  Proc.spawn sim (fun () ->
      Disk.read disk ~bytes:8192;
      t_done := Sim.now sim);
  Sim.run sim;
  (* 30 ms seek + 8.3 ms rotation + 8192/0.6MB/s = 13.6 ms transfer. *)
  Alcotest.(check bool) "tens of ms" true (!t_done > 0.045 && !t_done < 0.06);
  Alcotest.(check int) "counted" 1 (Disk.reads disk)

let test_disk_serializes () =
  let sim = Sim.create () in
  let disk = Disk.create sim in
  let done_times = ref [] in
  for _ = 1 to 3 do
    Proc.spawn sim (fun () ->
        Disk.write disk ~bytes:512;
        done_times := Sim.now sim :: !done_times)
  done;
  Sim.run sim;
  match List.sort compare !done_times with
  | [ a; b; c ] ->
      Alcotest.(check bool) "spread out" true (b > a +. 0.02 && c > b +. 0.02)
  | _ -> Alcotest.fail "expected three completions"

(* ------------------------------------------------------------------ *)
(* Namecache                                                          *)
(* ------------------------------------------------------------------ *)

let test_namecache_basics () =
  let nc = Namecache.create () in
  Alcotest.(check (option int)) "miss" None (Namecache.lookup nc ~dir:2 "a");
  Namecache.enter nc ~dir:2 "a" 10;
  Alcotest.(check (option int)) "hit" (Some 10) (Namecache.lookup nc ~dir:2 "a");
  Alcotest.(check (option int)) "other dir" None (Namecache.lookup nc ~dir:3 "a");
  Namecache.remove nc ~dir:2 "a";
  Alcotest.(check (option int)) "removed" None (Namecache.lookup nc ~dir:2 "a")

let test_namecache_31_char_limit () =
  let nc = Namecache.create () in
  let long = String.make 32 'x' in
  Namecache.enter nc ~dir:2 long 10;
  Alcotest.(check (option int)) "not cached" None (Namecache.lookup nc ~dir:2 long);
  Alcotest.(check int) "too_long counted" 1 (Namecache.stats nc).Namecache.too_long;
  let exactly31 = String.make 31 'y' in
  Namecache.enter nc ~dir:2 exactly31 11;
  Alcotest.(check (option int)) "31 chars cached" (Some 11)
    (Namecache.lookup nc ~dir:2 exactly31)

let test_namecache_eviction () =
  let nc = Namecache.create ~capacity:4 () in
  for i = 1 to 8 do
    Namecache.enter nc ~dir:2 (Printf.sprintf "f%d" i) i
  done;
  Alcotest.(check (option int)) "oldest evicted" None (Namecache.lookup nc ~dir:2 "f1");
  Alcotest.(check (option int)) "newest kept" (Some 8) (Namecache.lookup nc ~dir:2 "f8")

let test_namecache_invalidate_dir () =
  let nc = Namecache.create () in
  Namecache.enter nc ~dir:2 "a" 10;
  Namecache.enter nc ~dir:3 "b" 11;
  Namecache.invalidate_dir nc 2;
  Alcotest.(check (option int)) "dir 2 gone" None (Namecache.lookup nc ~dir:2 "a");
  Alcotest.(check (option int)) "dir 3 kept" (Some 11) (Namecache.lookup nc ~dir:3 "b")

(* ------------------------------------------------------------------ *)
(* Bcache                                                             *)
(* ------------------------------------------------------------------ *)

let test_bcache_hit_miss_lru () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  let bc = Bcache.create sim cpu ~blocks:2 ~search:Bcache.Vnode_chained () in
  let outcome = ref [] in
  Proc.spawn sim (fun () ->
      outcome := Bcache.lookup bc ~ino:1 ~blk:0 :: !outcome;
      Bcache.insert bc ~ino:1 ~blk:0;
      Bcache.insert bc ~ino:1 ~blk:1;
      outcome := Bcache.lookup bc ~ino:1 ~blk:0 :: !outcome;
      (* Insert a third block: LRU victim is (1,1). *)
      Bcache.insert bc ~ino:2 ~blk:0;
      outcome := Bcache.lookup bc ~ino:1 ~blk:1 :: !outcome);
  Sim.run sim;
  Alcotest.(check (list bool)) "miss, hit, evicted" [ false; true; false ]
    (List.rev !outcome);
  Alcotest.(check int) "resident" 2 (Bcache.resident bc)

let test_bcache_scan_costs_more () =
  let run search =
    let sim = Sim.create () in
    let cpu = Cpu.create sim ~mips:0.9 in
    let bc = Bcache.create sim cpu ~blocks:300 ~search () in
    Proc.spawn sim (fun () ->
        for i = 1 to 250 do
          Bcache.insert bc ~ino:i ~blk:0
        done;
        for i = 1 to 250 do
          ignore (Bcache.lookup bc ~ino:i ~blk:0)
        done);
    Sim.run sim;
    Cpu.busy_time cpu
  in
  let chained = run Bcache.Vnode_chained and scan = run Bcache.Global_scan in
  Alcotest.(check bool) "global scan much dearer" true (scan > chained *. 5.0)

let test_bcache_invalidate_ino () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let bc = Bcache.create sim cpu ~blocks:8 ~search:Bcache.Vnode_chained () in
  Bcache.insert bc ~ino:1 ~blk:0;
  Bcache.insert bc ~ino:1 ~blk:1;
  Bcache.insert bc ~ino:2 ~blk:0;
  Bcache.invalidate_ino bc 1;
  Alcotest.(check int) "only ino 2 left" 1 (Bcache.resident bc)

(* Reference model: the stamp-scan LRU, whose victim is the block with
   the oldest lookup hit or insert. *)
type model = {
  m_capacity : int;
  mutable m_clock : int;
  mutable m_stamps : ((int * int) * int) list;
  mutable m_hits : int;
  mutable m_misses : int;
}

let model_stamp m key =
  m.m_clock <- m.m_clock + 1;
  m.m_stamps <- (key, m.m_clock) :: List.remove_assoc key m.m_stamps

let model_lookup m key =
  if List.mem_assoc key m.m_stamps then begin
    model_stamp m key;
    m.m_hits <- m.m_hits + 1;
    true
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    false
  end

let model_insert m key =
  if (not (List.mem_assoc key m.m_stamps)) && List.length m.m_stamps >= m.m_capacity
  then begin
    let oldest =
      List.fold_left
        (fun (k, s) (k', s') -> if s' < s then (k', s') else (k, s))
        (List.hd m.m_stamps) m.m_stamps
    in
    m.m_stamps <- List.remove_assoc (fst oldest) m.m_stamps
  end;
  model_stamp m key

let model_invalidate m ino =
  m.m_stamps <- List.filter (fun ((i, _), _) -> i <> ino) m.m_stamps

type bcache_op = Lookup of int * int | Insert of int * int | Invalidate of int

let show_bcache_op = function
  | Lookup (i, b) -> Printf.sprintf "lookup(%d,%d)" i b
  | Insert (i, b) -> Printf.sprintf "insert(%d,%d)" i b
  | Invalidate i -> Printf.sprintf "invalidate(%d)" i

(* Property: at every step the cache agrees with the reference model on
   hit or miss, residency and the hit/miss counters.  Four inodes of
   four blocks against capacities of 1-8 keep evictions frequent. *)
let prop_bcache_matches_stamp_lru =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun i b -> Lookup (i, b)) (int_bound 3) (int_bound 3));
          (5, map2 (fun i b -> Insert (i, b)) (int_bound 3) (int_bound 3));
          (1, map (fun i -> Invalidate i) (int_bound 3));
        ])
  in
  QCheck.Test.make ~name:"bcache matches a stamp-scan LRU" ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat " " (List.map show_bcache_op ops)))
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 80) op)))
    (fun (capacity, ops) ->
      let sim = Sim.create () in
      let cpu = Cpu.create sim ~mips:1.0 in
      let bc = Bcache.create sim cpu ~blocks:capacity ~search:Bcache.Vnode_chained () in
      let m =
        { m_capacity = capacity; m_clock = 0; m_stamps = []; m_hits = 0; m_misses = 0 }
      in
      let agree = ref true in
      Proc.spawn sim (fun () ->
          List.iter
            (fun op ->
              let same =
                match op with
                | Lookup (ino, blk) ->
                    Bcache.lookup bc ~ino ~blk = model_lookup m (ino, blk)
                | Insert (ino, blk) ->
                    Bcache.insert bc ~ino ~blk;
                    model_insert m (ino, blk);
                    true
                | Invalidate ino ->
                    Bcache.invalidate_ino bc ino;
                    model_invalidate m ino;
                    true
              in
              let st = Bcache.stats bc in
              if
                not
                  (same
                  && Bcache.resident bc = List.length m.m_stamps
                  && st.Bcache.hits = m.m_hits
                  && st.Bcache.misses = m.m_misses)
              then agree := false)
            ops);
      Sim.run sim;
      !agree)

(* ------------------------------------------------------------------ *)
(* Fs                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fs_create_lookup_read_write () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "hello.txt" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.of_string "hello, world");
      let v = Fs.lookup fs root "hello.txt" in
      Alcotest.(check int) "same inode" (Fs.ino f) (Fs.ino v);
      let data = Fs.read fs v ~off:0 ~len:100 in
      Alcotest.(check string) "content" "hello, world" (Bytes.to_string data);
      let a = Fs.getattr fs v in
      Alcotest.(check int) "size" 12 a.Fs.size;
      Alcotest.(check bool) "regular" true (a.Fs.kind = Fs.Reg))

let test_fs_sparse_write_and_overwrite () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "sparse" ~mode:0o644 () in
      Fs.write fs f ~off:10000 (Bytes.of_string "end");
      Alcotest.(check int) "size" 10003 (Fs.getattr fs f).Fs.size;
      let hole = Fs.read fs f ~off:5000 ~len:4 in
      Alcotest.(check string) "hole zero-filled" "\000\000\000\000" (Bytes.to_string hole);
      Fs.write fs f ~off:0 (Bytes.of_string "begin");
      let head = Fs.read fs f ~off:0 ~len:5 in
      Alcotest.(check string) "overwrite" "begin" (Bytes.to_string head))

let test_fs_read_past_eof () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "short" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.of_string "abc");
      Alcotest.(check int) "short read" 2 (Bytes.length (Fs.read fs f ~off:1 ~len:100));
      Alcotest.(check int) "empty at eof" 0 (Bytes.length (Fs.read fs f ~off:3 ~len:10));
      (* Offsets past the file's length but inside its storage (a
         100-byte file holds a whole 8 KiB chunk), and past both (an
         empty file holds none). *)
      let small = Fs.create_file fs ~dir:root "small" ~mode:0o644 () in
      Fs.write fs small ~off:0 (Bytes.make 100 'x');
      Alcotest.(check int) "past the buffer" 0
        (Bytes.length (Fs.read fs small ~off:1025 ~len:10));
      let empty = Fs.create_file fs ~dir:root "empty" ~mode:0o644 () in
      Alcotest.(check int) "empty file" 0
        (Bytes.length (Fs.read fs empty ~off:8192 ~len:8192)))

let test_fs_errors () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      check_err Fs.Enoent (fun () -> Fs.lookup fs root "missing");
      let f = Fs.create_file fs ~dir:root "f" ~mode:0o644 () in
      check_err Fs.Eexist (fun () -> Fs.create_file fs ~dir:root "f" ~mode:0o644 ());
      check_err Fs.Enotdir (fun () -> Fs.lookup fs f "x");
      check_err Fs.Eisdir (fun () -> Fs.read fs root ~off:0 ~len:1);
      let d = Fs.mkdir fs ~dir:root "d" ~mode:0o755 () in
      let _ = Fs.create_file fs ~dir:d "inner" ~mode:0o644 () in
      check_err Fs.Enotempty (fun () -> Fs.rmdir fs ~dir:root "d");
      check_err Fs.Eisdir (fun () -> Fs.remove fs ~dir:root "d");
      check_err Fs.Einval (fun () -> Fs.create_file fs ~dir:root "a/b" ~mode:0o644 ()))

let test_fs_remove_and_stale () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "doomed" ~mode:0o644 () in
      let i = Fs.ino f in
      Fs.remove fs ~dir:root "doomed";
      check_err Fs.Enoent (fun () -> Fs.lookup fs root "doomed");
      check_err Fs.Estale (fun () -> Fs.vnode_by_ino fs i))

let test_fs_hard_link () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "orig" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.of_string "shared");
      Fs.link fs ~src:f ~dir:root "alias";
      Alcotest.(check int) "nlink 2" 2 (Fs.getattr fs f).Fs.nlink;
      Fs.remove fs ~dir:root "orig";
      let v = Fs.lookup fs root "alias" in
      Alcotest.(check string) "data survives" "shared"
        (Bytes.to_string (Fs.read fs v ~off:0 ~len:10));
      Alcotest.(check int) "nlink 1" 1 (Fs.getattr fs v).Fs.nlink)

let test_fs_rename () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let d1 = Fs.mkdir fs ~dir:root "d1" ~mode:0o755 () in
      let d2 = Fs.mkdir fs ~dir:root "d2" ~mode:0o755 () in
      let f = Fs.create_file fs ~dir:d1 "a" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.of_string "payload");
      Fs.rename fs ~src_dir:d1 "a" ~dst_dir:d2 "b";
      check_err Fs.Enoent (fun () -> Fs.lookup fs d1 "a");
      let v = Fs.lookup fs d2 "b" in
      Alcotest.(check string) "moved intact" "payload"
        (Bytes.to_string (Fs.read fs v ~off:0 ~len:10));
      (* Rename over an existing file unlinks the victim. *)
      let _ = Fs.create_file fs ~dir:d2 "c" ~mode:0o644 () in
      Fs.rename fs ~src_dir:d2 "b" ~dst_dir:d2 "c";
      let v2 = Fs.lookup fs d2 "c" in
      Alcotest.(check int) "same inode" (Fs.ino v) (Fs.ino v2))

let test_fs_symlink () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      Fs.symlink fs ~dir:root "ln" ~target:"/some/where" ();
      let v = Fs.lookup fs root "ln" in
      Alcotest.(check string) "target" "/some/where" (Fs.readlink fs v);
      Alcotest.(check bool) "kind" true ((Fs.getattr fs v).Fs.kind = Fs.Lnk))

let test_fs_readdir_paging () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      for i = 0 to 24 do
        ignore (Fs.create_file fs ~dir:root (Printf.sprintf "f%02d" i) ~mode:0o644 ())
      done;
      let page1, eof1 = Fs.readdir fs root ~cookie:0 ~count:10 in
      Alcotest.(check int) "page1" 10 (List.length page1);
      Alcotest.(check bool) "not eof" false eof1;
      let page2, _ = Fs.readdir fs root ~cookie:10 ~count:10 in
      let page3, eof3 = Fs.readdir fs root ~cookie:20 ~count:10 in
      Alcotest.(check int) "page3" 5 (List.length page3);
      Alcotest.(check bool) "eof" true eof3;
      let all = List.map fst (page1 @ page2 @ page3) in
      Alcotest.(check int) "no dup" 25 (List.length (List.sort_uniq compare all)))

let test_fs_dot_and_dotdot () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let d = Fs.mkdir fs ~dir:root "sub" ~mode:0o755 () in
      Alcotest.(check int) "." (Fs.ino d) (Fs.ino (Fs.lookup fs d "."));
      Alcotest.(check int) ".." (Fs.ino root) (Fs.ino (Fs.lookup fs d "..")))

let test_fs_setattr_truncate () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let f = Fs.create_file fs ~dir:root "t" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.of_string "0123456789");
      let a = Fs.setattr fs f ~size:4 () in
      Alcotest.(check int) "truncated" 4 a.Fs.size;
      Alcotest.(check string) "data cut" "0123"
        (Bytes.to_string (Fs.read fs f ~off:0 ~len:100));
      let a2 = Fs.setattr fs f ~size:8 () in
      Alcotest.(check int) "extended" 8 a2.Fs.size;
      Alcotest.(check string) "zero filled" "0123\000\000\000\000"
        (Bytes.to_string (Fs.read fs f ~off:0 ~len:100)))

let test_fs_sync_writes_hit_disk () =
  let disk_writes config =
    let sim = Sim.create () in
    let cpu = Cpu.create sim ~mips:0.9 in
    let disk = Disk.create sim in
    let fs = Fs.create sim cpu disk config in
    Proc.spawn sim (fun () ->
        let f = Fs.create_file fs ~dir:(Fs.root fs) "w" ~mode:0o644 () in
        Fs.write fs f ~off:0 (Bytes.make 8192 'x'));
    Sim.run sim;
    Disk.writes disk
  in
  let sync = disk_writes Fs.reno_config in
  let local = disk_writes Fs.local_config in
  (* Both pay synchronous metadata for the create; only the NFS-server
     configuration also pushes the data block and inode on write. *)
  Alcotest.(check bool) "nfs server pays data writes" true (sync >= local + 2);
  Alcotest.(check bool) "local still pays metadata" true (local >= 2)

let test_fs_lookup_uses_name_cache () =
  (* Second lookup of the same name must be cheaper with the cache. *)
  let lookup_cost config =
    let sim = Sim.create () in
    let cpu = Cpu.create sim ~mips:0.9 in
    let disk = Disk.create sim in
    let fs = Fs.create sim cpu disk config in
    let cost = ref 0.0 in
    Proc.spawn sim (fun () ->
        let root = Fs.root fs in
        (* Big directory so scans are expensive. *)
        for i = 0 to 399 do
          ignore (Fs.create_file fs ~dir:root (Printf.sprintf "file%03d" i) ~mode:0o644 ())
        done;
        ignore (Fs.lookup fs root "file399");
        let before = Cpu.busy_time cpu in
        for _ = 1 to 50 do
          ignore (Fs.lookup fs root "file399")
        done;
        cost := Cpu.busy_time cpu -. before);
    Sim.run sim;
    !cost
  in
  let with_cache = lookup_cost Fs.reno_config in
  let without = lookup_cost { Fs.reno_config with Fs.name_cache = false } in
  Alcotest.(check bool) "cache accelerates lookups" true
    (with_cache < without /. 3.0)

let test_fs_statfs () =
  in_world (fun _sim fs ->
      let st = Fs.statfs fs in
      Alcotest.(check int) "block size" 8192 st.Fs.block_size;
      Alcotest.(check bool) "free blocks sane" true
        (st.Fs.free_blocks > 0 && st.Fs.free_blocks <= st.Fs.total_blocks))

let test_fsck_clean_after_operations () =
  in_world (fun _sim fs ->
      let root = Fs.root fs in
      let d1 = Fs.mkdir fs ~dir:root "d1" ~mode:0o755 () in
      let d2 = Fs.mkdir fs ~dir:d1 "d2" ~mode:0o755 () in
      let f = Fs.create_file fs ~dir:d2 "f" ~mode:0o644 () in
      Fs.write fs f ~off:0 (Bytes.make 100 'x');
      Fs.link fs ~src:f ~dir:root "hard";
      Fs.symlink fs ~dir:root "soft" ~target:"d1/d2/f" ();
      Fs.rename fs ~src_dir:d2 "f" ~dst_dir:d1 "g";
      Fs.remove fs ~dir:root "hard";
      Alcotest.(check (list string)) "fsck clean" [] (Fs.fsck fs))

(* Property: after arbitrary sequences of namespace operations the
   filesystem invariants hold (fsck is clean). *)
let prop_fsck_random_ops =
  QCheck.Test.make ~name:"fsck clean after random namespace ops" ~count:60
    QCheck.(list_of_size Gen.(int_range 5 40) (int_bound 999))
    (fun seeds ->
      in_world (fun _sim fs ->
          let root = Fs.root fs in
          let dirs = ref [ root ] in
          let pick l n = List.nth l (n mod List.length l) in
          List.iteri
            (fun i seed ->
              let dir = pick !dirs seed in
              let name = Printf.sprintf "n%d" i in
              (* A picked directory may have been removed already; the
                 stale-handle error is the correct response then. *)
              try
                match seed mod 6 with
                | 0 -> dirs := Fs.mkdir fs ~dir name ~mode:0o755 () :: !dirs
                | 1 -> ignore (Fs.create_file fs ~dir name ~mode:0o644 ())
                | 2 -> Fs.symlink fs ~dir name ~target:"anywhere" ()
                | 3 -> (
                    (* remove a random entry if possible *)
                    match Fs.readdir fs dir ~cookie:0 ~count:100 with
                    | (victim, ino_) :: _, _ -> (
                        match (Fs.getattr fs (Fs.vnode_by_ino fs ino_)).Fs.kind with
                        | Fs.Dir -> (
                            try Fs.rmdir fs ~dir victim with Fs.Err _ -> ())
                        | Fs.Reg | Fs.Lnk -> Fs.remove fs ~dir victim
                        | exception Fs.Err _ -> ())
                    | [], _ -> ())
                | 4 -> (
                    (* hard link to a random file *)
                    match Fs.readdir fs dir ~cookie:0 ~count:100 with
                    | (existing, ino_) :: _, _ -> (
                        try
                          let v = Fs.vnode_by_ino fs ino_ in
                          if (Fs.getattr fs v).Fs.kind = Fs.Reg then
                            Fs.link fs ~src:v ~dir (existing ^ "L")
                        with Fs.Err _ -> ())
                    | [], _ -> ())
                | _ -> (
                    (* rename something into the root *)
                    match Fs.readdir fs dir ~cookie:0 ~count:100 with
                    | (victim, _) :: _, _ -> (
                        try Fs.rename fs ~src_dir:dir victim ~dst_dir:root (victim ^ "R")
                        with Fs.Err _ -> ())
                    | [], _ -> ())
              with Fs.Err Fs.Estale -> ())
            seeds;
          Fs.fsck fs = []))

(* Words allocated straight into the major heap while [f] runs: the
   [major_words] delta less what minor collections promoted into it. *)
let direct_major_words f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.major_words -. s0.Gc.major_words
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let test_fs_extend_allocates_nothing () =
  in_world (fun _sim fs ->
      let f = Fs.create_file fs ~dir:(Fs.root fs) "huge" ~mode:0o644 () in
      let max_file_size = 64 * 1024 * 1024 in
      let a, words =
        direct_major_words (fun () -> Fs.setattr fs f ~size:max_file_size ())
      in
      Alcotest.(check int) "extended" max_file_size a.Fs.size;
      Alcotest.(check bool)
        (Printf.sprintf "under 64 KiB direct to the major heap (%.0f words)" words)
        true (words < 8192.0);
      Alcotest.(check string) "tail reads as zeros" "\000\000\000\000"
        (Bytes.to_string (Fs.read fs f ~off:(max_file_size - 4) ~len:4)))

let test_fs_whole_chunk_read_lends () =
  in_world (fun _sim fs ->
      let f = Fs.create_file fs ~dir:(Fs.root fs) "chunks" ~mode:0o644 () in
      let body = Bytes.init 16384 (fun i -> Char.chr (i mod 251)) in
      Fs.write fs f ~off:0 body;
      let got, words =
        direct_major_words (fun () -> Fs.read fs f ~off:8192 ~len:8192)
      in
      Alcotest.(check bytes) "second chunk" (Bytes.sub body 8192 8192) got;
      Alcotest.(check bool)
        (Printf.sprintf "no 8 KiB copy (%.0f words)" words)
        true (words < 1025.0);
      (* The lent chunk is copied before it changes. *)
      Fs.write fs f ~off:9000 (Bytes.make 10 'W');
      Alcotest.(check bytes) "lent bytes unchanged" (Bytes.sub body 8192 8192) got)

(* Two files in one filesystem and a third in another, all written by
   [Fs.write_lent] from one list of pieces. *)
let test_fs_write_lent_shares_pieces () =
  let sim = Sim.create () in
  let make () =
    Fs.create sim (Cpu.create sim ~mips:0.9) (Disk.create sim) Fs.reno_config
  in
  let fs1 = make () and fs2 = make () in
  let p0 = Bytes.init 8192 (fun i -> Char.chr (i mod 251)) in
  let p1 = Bytes.init 8192 (fun i -> Char.chr (i mod 13)) in
  let pieces = [ p0; p1; p0 ] in
  let body = Bytes.concat Bytes.empty pieces in
  let held = List.map Bytes.copy pieces in
  let finished = ref false in
  Proc.spawn sim (fun () ->
      let file fs name =
        let v = Fs.create_file fs ~dir:(Fs.root fs) name ~mode:0o644 () in
        Fs.write_lent fs v ~off:0 pieces;
        (fs, v)
      in
      let a = file fs1 "a" and b = file fs1 "b" and c = file fs2 "c" in
      let all fs v = Fs.read fs v ~off:0 ~len:(Bytes.length body) in
      List.iter
        (fun (fs, v) ->
          Alcotest.(check bytes) "reads back" body (all fs v);
          Alcotest.(check bool) "whole chunk is the shared piece" true
            (Fs.read fs v ~off:8192 ~len:8192 == p1))
        [ a; b; c ];
      (* Change [a] every way a file changes. *)
      let fsa, va = a in
      let model = Bytes.copy body in
      Fs.write fsa va ~off:100 (Bytes.make 10 'P');
      Bytes.fill model 100 10 'P';
      Fs.write fsa va ~off:8192 (Bytes.make 8192 'W');
      Bytes.fill model 8192 8192 'W';
      ignore (Fs.setattr fsa va ~size:20000 ());
      Bytes.fill model 20000 (Bytes.length body - 20000) '\000';
      ignore (Fs.setattr fsa va ~size:(Bytes.length body) ());
      Alcotest.(check bytes) "changed file" model (all fsa va);
      List.iter
        (fun (fs, v) -> Alcotest.(check bytes) "other files unchanged" body (all fs v))
        [ b; c ];
      List.iter2
        (fun p h -> Alcotest.(check bytes) "shared pieces unchanged" h p)
        pieces held;
      (* A short piece is copied: changing it afterwards, as no caller
         may, leaves the file as written. *)
      let short = Bytes.make 5000 's' in
      let vs = Fs.create_file fs2 ~dir:(Fs.root fs2) "short" ~mode:0o644 () in
      Fs.write_lent fs2 vs ~off:0 [ short ];
      Bytes.fill short 0 5000 'X';
      Alcotest.(check string) "short piece copied" (String.make 5000 's')
        (Bytes.to_string (Fs.read fs2 vs ~off:0 ~len:8192));
      finished := true);
  Sim.run sim;
  Alcotest.(check bool) "finished" true !finished

let test_fs_write_lent_costs_as_write () =
  let pieces = [ Bytes.make 8192 'a'; Bytes.make 8192 'b'; Bytes.make 3000 'c' ] in
  let finish write =
    in_world (fun sim fs ->
        let v = Fs.create_file fs ~dir:(Fs.root fs) "f" ~mode:0o644 () in
        write fs v;
        Sim.now sim)
  in
  Alcotest.(check (float 0.0)) "same simulated time"
    (finish (fun fs v -> Fs.write fs v ~off:0 (Bytes.concat Bytes.empty pieces)))
    (finish (fun fs v -> Fs.write_lent fs v ~off:0 pieces))

(* Property: random writes, [setattr ~size] truncations and extensions,
   and reads behave like a reference byte array.  Reads favour 8 KiB
   chunk boundaries, whole aligned chunks (the lending path) and holes;
   every result must stay unchanged by everything that follows it. *)
type model_op = Write of int * int | Resize of int | Read of int * int

let model_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun off len -> Write (off, len)) (int_range 0 30000) (int_range 1 2000));
        (1, map (fun k -> Write (k * 8192, 8192)) (int_range 0 3));
        (1, map (fun size -> Resize size) (int_range 0 40000));
        (2, map2 (fun off len -> Read (off, len)) (int_range 0 40000) (int_range 1 3000));
        ( 2,
          map3
            (fun k d len -> Read (Int.max 0 ((k * 8192) + d), len))
            (int_range 1 4) (int_range (-300) 300) (int_range 1 1000) );
        (2, map (fun k -> Read (k * 8192, 8192)) (int_range 0 4));
      ])

let print_model_op = function
  | Write (off, len) -> Printf.sprintf "write %d+%d" off len
  | Resize size -> Printf.sprintf "resize %d" size
  | Read (off, len) -> Printf.sprintf "read %d+%d" off len

let prop_write_read_model =
  QCheck.Test.make ~name:"fs read/write matches flat-array model" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list print_model_op)
       QCheck.Gen.(list_size (int_range 1 30) model_op_gen))
    (fun ops ->
      in_world (fun _sim fs ->
          let f = Fs.create_file fs ~dir:(Fs.root fs) "model" ~mode:0o644 () in
          let model = Bytes.make 48000 '\000' in
          let model_len = ref 0 in
          let expect off len =
            if off >= !model_len then Bytes.empty
            else Bytes.sub model off (Int.min len (!model_len - off))
          in
          (* Every earlier read result with the bytes it held. *)
          let returned = ref [] in
          let ok = ref true in
          List.iteri
            (fun i op ->
              (match op with
              | Write (off, len) ->
                  let data = Bytes.make len (Char.chr (65 + (i mod 26))) in
                  Fs.write fs f ~off data;
                  Bytes.blit data 0 model off len;
                  model_len := Int.max !model_len (off + len)
              | Resize size ->
                  ignore (Fs.setattr fs f ~size ());
                  if size < !model_len then
                    Bytes.fill model size (!model_len - size) '\000';
                  model_len := size
              | Read (off, len) ->
                  let got = Fs.read fs f ~off ~len in
                  if not (Bytes.equal got (expect off len)) then ok := false;
                  returned := (got, Bytes.copy got) :: !returned);
              List.iter
                (fun (got, held) -> if not (Bytes.equal got held) then ok := false)
                !returned)
            ops;
          !ok
          && (Fs.getattr fs f).Fs.size = !model_len
          && Bytes.equal (Fs.read fs f ~off:0 ~len:!model_len) (expect 0 !model_len)))

let () =
  Alcotest.run "vfs"
    [
      ( "disk",
        [
          Alcotest.test_case "latency" `Quick test_disk_latency;
          Alcotest.test_case "serializes" `Quick test_disk_serializes;
        ] );
      ( "namecache",
        [
          Alcotest.test_case "basics" `Quick test_namecache_basics;
          Alcotest.test_case "31-char limit" `Quick test_namecache_31_char_limit;
          Alcotest.test_case "eviction" `Quick test_namecache_eviction;
          Alcotest.test_case "invalidate dir" `Quick test_namecache_invalidate_dir;
        ] );
      ( "bcache",
        [
          Alcotest.test_case "hit/miss/lru" `Quick test_bcache_hit_miss_lru;
          Alcotest.test_case "scan cost" `Quick test_bcache_scan_costs_more;
          Alcotest.test_case "invalidate ino" `Quick test_bcache_invalidate_ino;
        ] );
      ( "fs",
        [
          Alcotest.test_case "create/lookup/io" `Quick test_fs_create_lookup_read_write;
          Alcotest.test_case "sparse + overwrite" `Quick test_fs_sparse_write_and_overwrite;
          Alcotest.test_case "read past eof" `Quick test_fs_read_past_eof;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "remove + stale handle" `Quick test_fs_remove_and_stale;
          Alcotest.test_case "hard link" `Quick test_fs_hard_link;
          Alcotest.test_case "rename" `Quick test_fs_rename;
          Alcotest.test_case "symlink" `Quick test_fs_symlink;
          Alcotest.test_case "readdir paging" `Quick test_fs_readdir_paging;
          Alcotest.test_case "dot and dotdot" `Quick test_fs_dot_and_dotdot;
          Alcotest.test_case "setattr truncate" `Quick test_fs_setattr_truncate;
          Alcotest.test_case "extend allocates nothing" `Quick
            test_fs_extend_allocates_nothing;
          Alcotest.test_case "whole-chunk read lends" `Quick test_fs_whole_chunk_read_lends;
          Alcotest.test_case "lending write shares pieces" `Quick
            test_fs_write_lent_shares_pieces;
          Alcotest.test_case "lending write costs as write" `Quick
            test_fs_write_lent_costs_as_write;
          Alcotest.test_case "sync writes hit disk" `Quick test_fs_sync_writes_hit_disk;
          Alcotest.test_case "name cache accelerates" `Quick test_fs_lookup_uses_name_cache;
          Alcotest.test_case "statfs" `Quick test_fs_statfs;
          Alcotest.test_case "fsck clean" `Quick test_fsck_clean_after_operations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_write_read_model; prop_fsck_random_ops; prop_bcache_matches_stamp_lru ] );
    ]
