module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Node = Renofs_net.Node
module Nic = Renofs_net.Nic
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Namecache = Renofs_vfs.Namecache
module Trace = Renofs_trace.Trace
module Metrics = Renofs_metrics.Metrics
module P = Nfs_proto

type write_policy = Write_through | Async | Delayed

type consistency =
  | Close_to_open
  | Close_to_open_nopush
  | Trusts_own_writes
  | Noconsist
  | Leases

type mount_opts = {
  transport : [ `Udp_fixed | `Udp_dynamic | `Tcp ];
  timeo : float;
  mss : int;
  bsize : int;
  num_biods : int;
  write_policy : write_policy;
  consistency : consistency;
  name_cache : bool;
  read_ahead : int;
  use_readdirlook : bool;
  soft : bool;
      (** soft mount: fail operations with an I/O error after [retrans]
          retransmissions instead of retrying forever *)
  retrans : int;
  adaptive_transfer : bool;
      (** the paper's last-ditch option, made dynamic as its Section 4
          suggests: halve the read/write transfer size when
          retransmissions indicate fragment loss, and grow it back after
          a run of clean transfers *)
  v3 : bool;
      (** the v3-style protocol profile: WRITE goes out UNSTABLE (the
          server may buffer it volatile) and a COMMIT makes it durable
          before close/fsync return; a changed write verifier in any
          reply means the server rebooted and the client rewrites every
          uncommitted range *)
  uid : int;  (** AUTH_UNIX credentials presented to the server *)
  gid : int;
}

let reno_mount =
  {
    transport = `Udp_fixed;
    timeo = 1.0;
    mss = 1024;
    bsize = 8192;
    num_biods = 4;
    write_policy = Delayed;
    consistency = Close_to_open;
    name_cache = true;
    read_ahead = 1;
    use_readdirlook = false;
    soft = false;
    retrans = 4;
    adaptive_transfer = false;
    v3 = false;
    uid = 100;
    gid = 100;
  }

let reno_tcp_mount = { reno_mount with transport = `Tcp }
let reno_dynamic_mount = { reno_mount with transport = `Udp_dynamic }
let reno_nopush_mount = { reno_mount with consistency = Close_to_open_nopush }
let noconsist_mount = { reno_mount with consistency = Noconsist }
let lease_mount = { reno_mount with consistency = Leases }

(* The v3 profile: asynchronous writes with COMMIT, 32K transfers, and
   the bulk-lookup READDIR — the NFSv3 feature set grafted onto the Reno
   client structure. *)
let v3_mount =
  {
    reno_mount with
    v3 = true;
    bsize = P.max_data_v3;
    use_readdirlook = true;
  }

let ultrix_mount =
  {
    reno_mount with
    name_cache = false;
    consistency = Trusts_own_writes;
    (* The reference port starts a write RPC per write call rather than
       delaying and merging partial-block dirty regions. *)
    write_policy = Async;
  }

(* Fixed for every mount: the attribute cache's lifetime, and the
   block cache's size (48 x 8K = 384 KB, the scale of a MicroVAXII
   buffer cache). *)
let attr_timeout = 5.0
let cache_blocks = 48

exception Nfs_error of P.stat

let fail st = raise (Nfs_error st)

(* A cached block.  [valid] means the whole block's contents (up to the
   file size) are known; a block created by a partial write is *not*
   valid but carries a dirty region — the no-preread behaviour of the
   Reno buf structure. *)
type cblock = {
  b_blk : int;
  mutable data : Bytes.t;
      (* [Bytes.empty] until the block is first written or fetched; a
         fetch installs new storage, often the READ reply's own bytes *)
  mutable lent : bool;
      (* someone else may hold [data] ([read] returned it, a WRITE lent
         it, or it is a READ reply's lent buffer): copy it before any
         change *)
  mutable valid : bool;
  mutable dirty : (int * int) option;
  mutable lru : int;
  mutable fetching : unit Proc.Ivar.t option;
  mutable pushing : bool;
      (* a write RPC for this block is in flight (B_BUSY): further
         pushes must chain behind it or the server could apply them out
         of order *)
  mutable needs_commit : (int * int) option;
      (* the write-behind ledger (B_NEEDCOMMIT): the block-relative
         range acknowledged UNSTABLE by a v3 server and not yet covered
         by a successful COMMIT — the only client-side record of data
         the server may be holding in volatile memory *)
}

type cfile = {
  c_fh : int;
  blocks : (int, cblock) Hashtbl.t;
  mutable cached_mtime : float;
  mutable csize : int;
  mutable dirty_count : int;
  mutable last_seq_blk : int;
  mutable outstanding : int; (* async write RPCs in flight *)
  mutable waiters : (unit -> unit) list;
  mutable write_error : P.stat option;
  mutable commit_verf : int option;
      (* the write verifier the file's unstable writes were acked under;
         a different verifier in any later reply means the server
         rebooted and the uncommitted ranges must be rewritten *)
  mutable lease : (P.lease_mode * float) option; (* (mode, expiry) *)
  mutable open_count : int;
  mutable silly : (int * string) option;
      (* unlinked while open: renamed server-side to .nfsNNNN in
         (directory, name), removed at last close — the classic BSD
         silly rename *)
}

type fd = cfile

type t = {
  sim : Sim.t;
  node : Node.t;
  opts : mount_opts;
  xport : Client_transport.t;
  root : int;
  files : (int, cfile) Hashtbl.t;
  attrs : Attrcache.t;
  names : Namecache.t option;
  name_stamps : (int, float) Hashtbl.t;
      (* directory mtime under which its cached names were entered; a
         changed mtime invalidates them, as the BSD cache_purge on
         directory change does *)
  biods : Biod.t;
  mutable lru_clock : int;
  mutable total_blocks : int;
  mutable xfer_size : int; (* current read/write transfer size *)
  mutable clean_transfers : int;
  mutable seen_retransmits : int;
}

let transport t = t.xport
let sim t = t.sim
let node t = t.node

let syscall_instructions = 180.0

let charge t instructions =
  Cpu.consume (Node.cpu t.node) (Cpu.seconds_of_instructions (Node.cpu t.node) instructions)

let charge_copy t bytes =
  let bw = (Node.nic t.node).Nic.copy_bandwidth in
  Cpu.consume (Node.cpu t.node) (float_of_int bytes /. bw)

let mtime_of (a : P.fattr) = P.float_of_time a.P.mtime

(* Issue one RPC, folding any returned attributes into the attribute
   cache (the piggyback updates that keep Getattr rare). *)
let rpc t call =
  let reply =
    try Client_transport.call t.xport call
    with Client_transport.Rpc_timed_out _ ->
      (* Soft mount semantics: the operation fails with EIO. *)
      fail P.NFSERR_IO
  in
  (match (reply, call) with
  | P.Rattr (Ok a), P.Getattr fh
  | P.Rattr (Ok a), P.Setattr (fh, _)
  | P.Rattr (Ok a), P.Write { P.write_file = fh; _ } ->
      Attrcache.update t.attrs fh a
  | P.Rdirop (Ok (fh, a)), _ -> Attrcache.update t.attrs fh a
  | P.Rread (Ok (a, _)), P.Read r -> Attrcache.update t.attrs r.P.read_file a
  | P.Rlease (Ok (Some ok)), P.Getlease la ->
      Attrcache.update t.attrs la.P.lease_file ok.P.lease_attr
  | P.Rwrite3 (Ok ok), P.Write3 { P.w3_file = fh; _ } ->
      Attrcache.update t.attrs fh ok.P.w3_attr
  | P.Rcommit (Ok ok), P.Commit { P.cm_file = fh; _ } ->
      Attrcache.update t.attrs fh ok.P.cmo_attr
  | _ -> ());
  reply

(* [rpc] for callers that must record a failure or clean up before
   raising it: a soft mount's give-up comes back as an EIO reply. *)
let try_rpc t call = try rpc t call with Nfs_error st -> P.Rstat st

(* The status a failed reply carries; a reply of the wrong shape is an
   I/O error. *)
let error_of = function
  | P.Rstat st | P.Rattr (Error st) | P.Rdirop (Error st) | P.Rreadlink (Error st)
  | P.Rread (Error st) | P.Rreaddir (Error st) | P.Rstatfs (Error st)
  | P.Rreaddirlook (Error st) | P.Rlease (Error st) | P.Rwrite3 (Error st)
  | P.Rcommit (Error st)
    when st <> P.NFS_OK ->
      st
  | _ -> P.NFSERR_IO

(* The reply checks of the directory operations: [status] for those
   whose reply is a bare status, [dirop] for those returning a handle
   and its attributes. *)
let status t call =
  match rpc t call with P.Rstat P.NFS_OK -> () | failed -> fail (error_of failed)

let dirop t call =
  match rpc t call with P.Rdirop (Ok r) -> r | failed -> fail (error_of failed)

let getattr_rpc t fh =
  match rpc t (P.Getattr fh) with P.Rattr (Ok a) -> a | failed -> fail (error_of failed)

let get_attrs t fh =
  match Attrcache.get t.attrs fh with Some a -> a | None -> getattr_rpc t fh

(* ------------------------------------------------------------------ *)
(* Pathname resolution                                                *)
(* ------------------------------------------------------------------ *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

(* Record a name under the directory's currently-believed mtime; a
   different stamp means older entries are stale, so purge them. *)
let name_enter t ~dir name fh =
  match t.names with
  | None -> ()
  | Some nc ->
      let dir_mtime =
        match Attrcache.peek t.attrs dir with Some a -> mtime_of a | None -> 0.0
      in
      (match Hashtbl.find_opt t.name_stamps dir with
      | Some stamp when stamp <> dir_mtime -> Namecache.invalidate_dir nc dir
      | _ -> ());
      Hashtbl.replace t.name_stamps dir dir_mtime;
      Namecache.enter nc ~dir name fh

let name_remove t ~dir name =
  match t.names with Some nc -> Namecache.remove nc ~dir name | None -> ()

let lookup_component t dir name =
  let cached =
    match t.names with
    | Some nc -> (
        match Namecache.lookup nc ~dir name with
        | None -> None
        | Some fh -> (
            (* Validate against the directory's modify time (through the
               attribute cache, so at most one getattr per timeout). *)
            let da = get_attrs t dir in
            let m = mtime_of da in
            match Hashtbl.find_opt t.name_stamps dir with
            | Some stamp when stamp = m -> Some fh
            | _ ->
                Namecache.invalidate_dir nc dir;
                Hashtbl.replace t.name_stamps dir m;
                None))
    | None -> None
  in
  match cached with
  | Some fh -> fh
  | None ->
      let fh, _ = dirop t (P.Lookup { P.dir; name }) in
      name_enter t ~dir name fh;
      fh

let readlink_rpc t fh =
  match rpc t (P.Readlink fh) with
  | P.Rreadlink (Ok target) -> target
  | failed -> fail (error_of failed)

(* An inode's type never changes, so a stale cache entry is still good
   enough to decide whether to follow; only an unknown handle costs a
   getattr. *)
let kind_of_fh t fh =
  match Attrcache.peek t.attrs fh with
  | Some a -> a.P.ftype
  | None -> (get_attrs t fh).P.ftype

(* namei: resolve components from [dir], following symbolic links (up to
   a loop budget; the final component only when [follow_last]). *)
let rec resolve t ~fuel dir components ~follow_last =
  match components with
  | [] -> dir
  | name :: rest -> (
      let fh = lookup_component t dir name in
      let is_last = rest = [] in
      match kind_of_fh t fh with
      | P.NFLNK when (not is_last) || follow_last ->
          if fuel = 0 then fail P.NFSERR_IO (* symlink loop *);
          let target = readlink_rpc t fh in
          let tcomps = split_path target in
          let base = if String.length target > 0 && target.[0] = '/' then t.root else dir in
          resolve t ~fuel:(fuel - 1) base (tcomps @ rest) ~follow_last
      | _ -> resolve t ~fuel fh rest ~follow_last)

let walk t path = resolve t ~fuel:8 t.root (split_path path) ~follow_last:true

(* Resolve a path into (parent directory handle, final component);
   intermediate links are followed, the final name is taken literally. *)
let walk_parent t path =
  match List.rev (split_path path) with
  | [] -> fail P.NFSERR_NOENT
  | name :: rev_dirs ->
      let dir = resolve t ~fuel:8 t.root (List.rev rev_dirs) ~follow_last:true in
      (dir, name)

(* ------------------------------------------------------------------ *)
(* Block cache                                                        *)
(* ------------------------------------------------------------------ *)

let cfile_of t fh (a : P.fattr) =
  match Hashtbl.find_opt t.files fh with
  | Some cf -> cf
  | None ->
      let cf =
        {
          c_fh = fh;
          blocks = Hashtbl.create 16;
          cached_mtime = mtime_of a;
          csize = a.P.size;
          dirty_count = 0;
          last_seq_blk = -2;
          outstanding = 0;
          waiters = [];
          write_error = None;
          commit_verf = None;
          lease = None;
          open_count = 0;
          silly = None;
        }
      in
      Hashtbl.replace t.files fh cf;
      cf

let set_dirty cf b range =
  (match (b.dirty, range) with
  | None, Some _ -> cf.dirty_count <- cf.dirty_count + 1
  | Some _, None -> cf.dirty_count <- cf.dirty_count - 1
  | _ -> ());
  b.dirty <- range

(* Adaptive transfer feedback: any retransmission since the last look
   is read as fragment loss (the paper's suggested signal), halving the
   transfer size; a run of clean transfers grows it back. *)
let note_transfer t =
  if t.opts.adaptive_transfer then begin
    let r = Client_transport.retransmits t.xport in
    if r > t.seen_retransmits then begin
      t.seen_retransmits <- r;
      t.clean_transfers <- 0;
      t.xfer_size <- max 1024 (t.xfer_size / 2)
    end
    else begin
      t.clean_transfers <- t.clean_transfers + 1;
      if t.clean_transfers >= 25 && t.xfer_size < t.opts.bsize then begin
        t.xfer_size <- min t.opts.bsize (t.xfer_size * 2);
        t.clean_transfers <- 0
      end
    end
  end

let lease_valid t cf mode =
  match cf.lease with
  | Some (held, expiry) when Sim.now t.sim < expiry ->
      held = P.Lease_write || mode = P.Lease_read
  | _ -> false

let wait_outstanding cf =
  let rec wait () =
    if cf.outstanding > 0 then begin
      Proc.suspend (fun resume -> cf.waiters <- cf.waiters @ [ resume ]);
      wait ()
    end
  in
  wait ()

let uncommitted_blocks cf =
  Hashtbl.fold
    (fun _ b acc -> if b.needs_commit <> None then b :: acc else acc)
    cf.blocks []

(* Fold a write verifier from a v3 reply into the file's ledger.  A
   changed verifier under uncommitted data means the server rebooted and
   dropped its unstable buffer: trace the detection and re-dirty every
   uncommitted range so the normal push machinery rewrites it. *)
let note_verf t cf verf =
  match cf.commit_verf with
  | Some v when v <> verf ->
      cf.commit_verf <- Some verf;
      let lost = uncommitted_blocks cf in
      if lost <> [] then begin
        (match Node.trace t.node with
        | Some tr ->
            Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
              (Trace.Verf_mismatch { file = cf.c_fh; expected = v; got = verf })
        | None -> ());
        List.iter
          (fun b ->
            match b.needs_commit with
            | None -> ()
            | Some (lo, hi) ->
                b.needs_commit <- None;
                let range =
                  match b.dirty with
                  | Some (dlo, dhi) -> (min lo dlo, max hi dhi)
                  | None -> (lo, hi)
                in
                set_dirty cf b (Some range))
          lost
      end
  | _ -> cf.commit_verf <- Some verf

(* Fold a write reply's attributes into the file.  The rule decides
   whether the new modify time is taken as this client's own, leaving
   the cache valid under it; under a write lease nobody else can be
   writing. *)
let note_written t cf (a : P.fattr) =
  let own =
    match t.opts.consistency with
    | Trusts_own_writes -> true
    | Leases -> lease_valid t cf P.Lease_write
    | Close_to_open | Close_to_open_nopush | Noconsist -> false
  in
  if own then cf.cached_mtime <- mtime_of a;
  cf.csize <- max cf.csize a.P.size

(* Write [lo, hi) of block [b], one WRITE (v2) or WRITE3 (v3) per current
   transfer size: under adaptive transfer a big dirty region goes out in
   smaller, fragment-safe pieces.  A failure is recorded in the file for
   the next fsync or close to report. *)
let rec write_range t cf b ~lo ~hi =
  if lo < hi then begin
    let n = min (hi - lo) (max 1024 t.xfer_size) in
    let off = (b.b_blk * t.opts.bsize) + lo in
    (* A whole block is lent to the WRITE (and, through it, to the
       server's file) and marked so, so a write landing while the RPC is
       queued or in flight copies the block first; a partial range is
       copied. *)
    let payload =
      if lo = 0 && n = Bytes.length b.data then begin
        b.lent <- true;
        b.data
      end
      else Bytes.sub b.data lo n
    in
    let call =
      if t.opts.v3 then
        (* Write-through demands stability now; everything else goes
           out UNSTABLE and is made durable by the COMMIT at
           fsync/close. *)
        let stable =
          match t.opts.write_policy with
          | Write_through -> P.File_sync
          | Async | Delayed -> P.Unstable
        in
        P.Write3
          { P.w3_file = cf.c_fh; w3_offset = off; w3_stable = stable; w3_data = payload }
      else P.Write { P.write_file = cf.c_fh; write_offset = off; data = payload }
    in
    (match try_rpc t call with
    | P.Rattr (Ok a) -> note_written t cf a
    | P.Rwrite3 (Ok ok) ->
        note_written t cf ok.P.w3_attr;
        (if ok.P.w3_committed = P.Unstable then
           (* Enter the range in the write-behind ledger: only a
              covering COMMIT under the same verifier releases it. *)
           let range =
             match b.needs_commit with
             | Some (clo, chi) -> (min lo clo, max (lo + n) chi)
             | None -> (lo, lo + n)
           in
           b.needs_commit <- Some range);
        note_verf t cf ok.P.w3_verf
    | failed -> cf.write_error <- Some (error_of failed));
    note_transfer t;
    write_range t cf b ~lo:(lo + n) ~hi
  end

(* Push a busy block's dirty range, then whatever was re-dirtied while
   the RPCs were in flight, still holding the block busy. *)
let rec push_busy t cf b ~lo ~hi =
  write_range t cf b ~lo ~hi;
  match b.dirty with
  | Some (lo, hi) ->
      set_dirty cf b None;
      push_busy t cf b ~lo ~hi
  | None ->
      b.pushing <- false;
      cf.outstanding <- cf.outstanding - 1;
      if cf.outstanding = 0 then begin
        let waiters = cf.waiters in
        cf.waiters <- [];
        List.iter (fun resume -> Sim.after t.sim 0.0 resume) waiters
      end

let push_block t cf b ~wait =
  match b.dirty with
  | None -> ()
  | Some _ when b.pushing ->
      (* The in-flight writer re-checks the dirty region when its RPC
         completes and will carry this data too. *)
      if wait then wait_outstanding cf
  | Some (lo, hi) ->
      b.pushing <- true;
      set_dirty cf b None;
      cf.outstanding <- cf.outstanding + 1;
      if wait then push_busy t cf b ~lo ~hi
      else Biod.submit t.biods (fun () -> push_busy t cf b ~lo ~hi)

let flush_file t cf ~wait =
  Hashtbl.iter (fun _ b -> push_block t cf b ~wait:false) cf.blocks;
  if wait then wait_outstanding cf

(* Make a file's acknowledged-unstable data durable: flush dirty blocks,
   COMMIT, and check the verifier.  A mismatch means the server rebooted
   under the data — [note_verf] has re-dirtied the lost ranges, so write
   them again and re-COMMIT until the ledger is clean.  Any COMMIT
   failure (including a soft mount's give-up) records the error and
   releases the ledger: a wedged ledger would block every later
   close/fsync forever, while the recorded error reaches the caller. *)
let rec commit_file t cf =
  flush_file t cf ~wait:true;
  if t.opts.v3 then
    match uncommitted_blocks cf with
    | [] -> ()
    | uncommitted -> (
        let expected = cf.commit_verf in
        match try_rpc t (P.Commit { P.cm_file = cf.c_fh; cm_offset = 0; cm_count = 0 }) with
        | P.Rcommit (Ok ok) -> (
            note_verf t cf ok.P.cmo_verf;
            match expected with
            | Some v when v <> ok.P.cmo_verf ->
                (* The data this COMMIT covered predates the reboot and
                   is gone; rewrite and try again. *)
                commit_file t cf
            | _ -> List.iter (fun b -> b.needs_commit <- None) uncommitted)
        | failed ->
            cf.write_error <- Some (error_of failed);
            List.iter (fun b -> b.needs_commit <- None) uncommitted)

(* Evict the least-recently-used block across all files, pushing it
   first if dirty.  Blocks in the write-behind ledger are passed over
   when possible — their contents may exist nowhere but here and the
   server's volatile buffer — and committed first when not. *)
let evict_one t =
  let victim = ref None in
  let consider cf b =
    match !victim with
    | Some (_, best) when best.lru <= b.lru -> ()
    | _ -> victim := Some (cf, b)
  in
  Hashtbl.iter
    (fun _ cf ->
      Hashtbl.iter
        (fun _ b -> if b.needs_commit = None then consider cf b)
        cf.blocks)
    t.files;
  if !victim = None then
    Hashtbl.iter
      (fun _ cf -> Hashtbl.iter (fun _ b -> consider cf b) cf.blocks)
      t.files;
  match !victim with
  | None -> ()
  | Some (cf, b) ->
      push_block t cf b ~wait:true;
      if b.needs_commit <> None then commit_file t cf;
      Hashtbl.remove cf.blocks b.b_blk;
      t.total_blocks <- t.total_blocks - 1

let get_or_create_block t cf blk =
  match Hashtbl.find_opt cf.blocks blk with
  | Some b ->
      t.lru_clock <- t.lru_clock + 1;
      b.lru <- t.lru_clock;
      b
  | None ->
      while t.total_blocks >= cache_blocks do
        evict_one t
      done;
      t.lru_clock <- t.lru_clock + 1;
      let b =
        {
          b_blk = blk;
          data = Bytes.empty;
          lent = false;
          valid = false;
          dirty = None;
          lru = t.lru_clock;
          fetching = None;
          pushing = false;
          needs_commit = None;
        }
      in
      Hashtbl.replace cf.blocks blk b;
      t.total_blocks <- t.total_blocks + 1;
      b

(* Invalidate the clean cached blocks of a file (dirty data survives:
   it still has to reach the server, and uncommitted data survives: it
   may still have to be rewritten after a server reboot). *)
let invalidate_clean t cf =
  let doomed =
    Hashtbl.fold
      (fun blk b acc ->
        if b.dirty = None && (not b.pushing) && b.needs_commit = None then
          blk :: acc
        else acc)
      cf.blocks []
  in
  List.iter
    (fun blk ->
      Hashtbl.remove cf.blocks blk;
      t.total_blocks <- t.total_blocks - 1)
    doomed

(* The file's size as the server reports it; locally written data past
   that size is not on the server yet. *)
let note_size cf (a : P.fattr) =
  cf.csize <- (if cf.dirty_count > 0 then max cf.csize a.P.size else a.P.size)

(* Cached data is valid only while the server's modify time matches the
   one it was cached under. *)
let revalidate t cf (a : P.fattr) =
  let m = mtime_of a in
  if m <> cf.cached_mtime then begin
    invalidate_clean t cf;
    cf.cached_mtime <- m
  end;
  note_size cf a

(* Check the cache against the server's attributes (through the
   attribute cache), as every rule but noconsist does.  A client that
   does not trust its own write replies cannot tell its own writes from
   another client's, so its own pushes invalidate its cache.  A valid
   read lease makes the check unnecessary: the server has promised
   nobody else is writing. *)
let validate t cf =
  match t.opts.consistency with
  | Noconsist -> ()
  | Leases when lease_valid t cf P.Lease_read -> ()
  | Close_to_open | Close_to_open_nopush | Trusts_own_writes | Leases ->
      revalidate t cf (get_attrs t cf.c_fh)

(* Acquire, renew or upgrade a lease.  A refusal is a vacate order:
   flush everything and stop caching until re-acquired. *)
let getlease t cf mode =
  match
    rpc t (P.Getlease { P.lease_file = cf.c_fh; lease_mode = mode; lease_duration = 6 })
  with
  | P.Rlease (Ok (Some ok)) ->
      revalidate t cf ok.P.lease_attr;
      let held =
        match (cf.lease, mode) with
        | Some (P.Lease_write, _), _ -> P.Lease_write
        | _, m -> m
      in
      (* A safety margin keeps us from acting on a lease the server is
         about to consider expired. *)
      cf.lease <-
        Some (held, Sim.now t.sim +. float_of_int ok.P.granted_duration -. 0.25);
      true
  | P.Rlease (Ok None) ->
      cf.lease <- None;
      flush_file t cf ~wait:true;
      invalidate_clean t cf;
      false
  | failed -> fail (error_of failed)

let ensure_lease t cf mode =
  if lease_valid t cf mode then true else getlease t cf mode

(* ------------------------------------------------------------------ *)
(* Mount                                                              *)
(* ------------------------------------------------------------------ *)

let syncer_interval = 30.0

let mount ~udp ?tcp ~server ~root opts =
  let node = Udp.node udp in
  let max_retries = if opts.soft then Some opts.retrans else None in
  let uid = opts.uid and gid = opts.gid in
  let xport =
    match opts.transport with
    | `Udp_fixed ->
        Client_transport.create_udp_fixed udp ~server ~timeo:opts.timeo
          ?max_retries ~uid ~gid ()
    | `Udp_dynamic ->
        Client_transport.create_udp_dynamic udp ~server ~timeo:opts.timeo
          ?max_retries ~uid ~gid ()
    | `Tcp -> (
        match tcp with
        | Some stack ->
            Client_transport.create_tcp stack ~server ~mss:opts.mss ~uid ~gid ()
        | None -> invalid_arg "Nfs_client.mount: TCP transport needs a tcp stack")
  in
  let t =
    {
      sim = Node.sim node;
      node;
      opts;
      xport;
      root;
      files = Hashtbl.create 64;
      attrs = Attrcache.create (Node.sim node) ~timeout:attr_timeout ();
      names = (if opts.name_cache then Some (Namecache.create ()) else None);
      name_stamps = Hashtbl.create 32;
      biods = Biod.create (Node.sim node) ~count:opts.num_biods;
      lru_clock = 0;
      total_blocks = 0;
      xfer_size = opts.bsize;
      clean_transfers = 0;
      seen_retransmits = 0;
    }
  in
  (* Client cache and biod sources for the run attached to this node,
     if any (the transport registered its own at creation). *)
  (match Node.metrics node with
  | None -> ()
  | Some run ->
      let p s = Node.name node ^ ".cli." ^ s in
      let fi = float_of_int in
      Metrics.register run ~name:(p "attrcache.hit_ratio") ~unit_:"percent"
        ~kind:Metrics.Gauge (fun () ->
          let total = Attrcache.hits t.attrs + Attrcache.misses t.attrs in
          if total = 0 then nan
          else 100.0 *. fi (Attrcache.hits t.attrs) /. fi total);
      (match t.names with
      | Some nc ->
          Metrics.register run ~name:(p "namecache.hit_ratio") ~unit_:"percent"
            ~kind:Metrics.Gauge (fun () ->
              let s = Namecache.stats nc in
              let total = s.Namecache.hits + s.Namecache.misses in
              if total = 0 then nan
              else 100.0 *. fi s.Namecache.hits /. fi total)
      | None -> ());
      Metrics.register run ~name:(p "biod.queued") ~unit_:"count"
        ~kind:Metrics.Gauge (fun () -> fi (Biod.queued t.biods));
      Metrics.register run ~name:(p "biod.jobs") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi (Biod.jobs_run t.biods)));
  ignore (getattr_rpc t root);
  (* Lease renewal: dirty files keep their leases alive (and get told to
     vacate as soon as they are contested); clean leases just lapse. *)
  (match opts.consistency with
  | Close_to_open | Close_to_open_nopush | Trusts_own_writes | Noconsist -> ()
  | Leases ->
      Proc.spawn t.sim (fun () ->
          let rec tick () =
            Proc.sleep t.sim 2.0;
            let snapshot = Hashtbl.fold (fun _ cf acc -> cf :: acc) t.files [] in
            List.iter
              (fun cf ->
                match cf.lease with
                | Some (_, expiry) when Sim.now t.sim >= expiry ->
                    (* The lease lapsed: exclusivity can no longer be
                       assumed (the server may even have rebooted and lost
                       the lease table), so dirty data must be written back
                       before anyone else is granted a lease. *)
                    cf.lease <- None;
                    if cf.dirty_count > 0 then flush_file t cf ~wait:false
                | Some (mode, expiry) ->
                    if
                      (cf.dirty_count > 0 || cf.outstanding > 0)
                      && expiry -. Sim.now t.sim < 4.0
                    then (
                      try ignore (getlease t cf mode)
                      with Nfs_error _ | Client_transport.Rpc_error _ -> ())
                | None ->
                    (* Dirty data that lost its lease must not linger. *)
                    if cf.dirty_count > 0 then flush_file t cf ~wait:false)
              snapshot;
            tick ()
          in
          tick ()));
  (* The 30-second sync that pushes delayed writes. *)
  Proc.spawn t.sim (fun () ->
      let rec tick () =
        Proc.sleep t.sim syncer_interval;
        Hashtbl.iter (fun _ cf -> flush_file t cf ~wait:false) t.files;
        tick ()
      in
      tick ());
  t

exception Mount_failed of string

(* One-shot RPC exchange with the mount daemon: its own little socket
   and a fixed-timeout retry loop (mount(8) does the same). *)
let mount_path ~udp ?tcp ~server ~path opts =
  let node = Udp.node udp in
  let sim = Node.sim node in
  let sock = Udp.bind_ephemeral udp in
  let reply = ref None in
  Proc.spawn sim (fun () ->
      let rec listen () =
        let dg = Udp.recv sock in
        reply := Some dg.Udp.payload;
        listen ()
      in
      try listen () with _ -> ());
  let call = Mount_proto.Mnt path in
  let xid = 77l in
  let attempt () =
    let enc =
      Renofs_rpc.Rpc_msg.encode_call
        {
          Renofs_rpc.Rpc_msg.xid;
          prog = Mount_proto.program;
          vers = Mount_proto.version;
          proc = Mount_proto.proc_of_call call;
          cred = Renofs_rpc.Rpc_msg.Auth_null;
        }
    in
    Mount_proto.encode_call enc call;
    Udp.sendto sock ~dst:server ~dst_port:Mount_proto.port
      (Renofs_xdr.Xdr.Enc.chain enc)
  in
  let rec wait_reply tries =
    if !reply <> None then ()
    else if tries = 0 then begin
      Udp.close sock;
      raise (Mount_failed "mount daemon not responding")
    end
    else begin
      attempt ();
      let deadline = Sim.now sim +. 1.0 in
      let rec poll () =
        if !reply = None && Sim.now sim < deadline then begin
          Proc.sleep sim 0.05;
          poll ()
        end
      in
      poll ();
      if !reply = None then wait_reply (tries - 1)
    end
  in
  wait_reply 5;
  Udp.close sock;
  match !reply with
  | None -> raise (Mount_failed "mount daemon not responding")
  | Some chain -> (
      match Renofs_rpc.Rpc_msg.decode_reply chain with
      | _, Renofs_rpc.Rpc_msg.Accepted Renofs_rpc.Rpc_msg.Success, dec -> (
          match Mount_proto.decode_reply ~proc:1 dec with
          | Mount_proto.Rmnt (Mount_proto.Mnt_ok root) -> mount ~udp ?tcp ~server ~root opts
          | Mount_proto.Rmnt (Mount_proto.Mnt_error errno) ->
              raise (Mount_failed (Printf.sprintf "mount denied (errno %d)" errno))
          | _ -> raise (Mount_failed "unexpected mount reply"))
      | _ -> raise (Mount_failed "mount RPC rejected")
      | exception _ -> raise (Mount_failed "garbled mount reply"))

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

(* The block's storage, ready to change: a lent block is copied first. *)
let own_data b =
  if b.lent then begin
    b.data <- Bytes.copy b.data;
    b.lent <- false
  end;
  b.data

(* Make [buf] the block's storage, [lent] when others may hold it.
   Locally-written bytes win over the server's copy until they are
   pushed, so the dirty range carries over. *)
let install_block b buf ~lent =
  let old = b.data in
  b.data <- buf;
  b.lent <- lent;
  b.valid <- true;
  match b.dirty with
  | Some (lo, hi) -> Bytes.blit old lo (own_data b) lo (hi - lo)
  | None -> ()

let rec ensure_block t cf blk =
  let b = get_or_create_block t cf blk in
  match b.fetching with
  | Some iv ->
      Proc.Ivar.read iv;
      ensure_block t cf blk
  | None ->
      if not b.valid then begin
        let iv = Proc.Ivar.create t.sim in
        b.fetching <- Some iv;
        let bs = t.opts.bsize in
        let base = blk * bs in
        let finish_err st =
          b.fetching <- None;
          Proc.Ivar.fill iv ();
          fail st
        in
        (* Fetch the block in [xfer_size] pieces; a short reply is EOF.
           A first reply holding the whole block becomes the block's
           storage, marked lent: it may be the server's own chunk, lent
           through the reply's mbufs.  Otherwise the pieces are staged
           in one buffer whose tail past EOF reads as zeros. *)
        let rec fetch buf pos =
          if pos >= bs then install_block b buf ~lent:false
          else begin
            let want = min (bs - pos) (max 1024 t.xfer_size) in
            match
              try_rpc t (P.Read { P.read_file = cf.c_fh; offset = base + pos; count = want })
            with
            | P.Rread (Ok (a, data)) ->
                let n = Bytes.length data in
                (* More bytes than were asked for is a broken reply. *)
                if n > want then finish_err P.NFSERR_IO;
                if cf.cached_mtime = 0.0 then cf.cached_mtime <- mtime_of a;
                note_size cf a;
                note_transfer t;
                if pos = 0 && n = bs then install_block b data ~lent:true
                else begin
                  let buf = if pos = 0 then Bytes.create bs else buf in
                  Bytes.blit data 0 buf pos n;
                  if n < want then begin
                    Bytes.fill buf (pos + n) (bs - pos - n) '\000';
                    install_block b buf ~lent:false
                  end
                  else fetch buf (pos + n)
                end
            | failed -> finish_err (error_of failed)
          end
        in
        fetch Bytes.empty 0;
        b.fetching <- None;
        Proc.Ivar.fill iv ()
      end;
      b

let read_ahead t cf blk =
  if t.opts.read_ahead > 0 && Biod.count t.biods > 0 then
    for k = 1 to t.opts.read_ahead do
      let target = blk + k in
      if target * t.opts.bsize < cf.csize then begin
        let already =
          match Hashtbl.find_opt cf.blocks target with
          | Some b -> b.valid || b.fetching <> None
          | None -> false
        in
        if not already then
          Biod.submit t.biods (fun () ->
              try ignore (ensure_block t cf target) with Nfs_error _ -> ())
      end
    done

let read t fd ~off ~len =
  charge t syscall_instructions;
  if off < 0 || len < 0 then fail P.NFSERR_IO;
  let cf = fd in
  (match t.opts.consistency with
  | Close_to_open | Close_to_open_nopush ->
      (* Push before read: the check below must see the server's modify
         time after this client's own writes. *)
      if cf.dirty_count > 0 then flush_file t cf ~wait:true;
      validate t cf
  | Leases when ensure_lease t cf P.Lease_read -> (
      (* Serving from cache on lease authority alone: the staleness the
         invariant checker audits against live write leases. *)
      match Node.trace t.node with
      | Some tr ->
          Trace.record tr
            ~time:(Sim.now t.sim)
            ~node:(Node.id t.node)
            (Trace.Cached_read
               { file = cf.c_fh; holder = Node.id t.node; mtime = cf.cached_mtime })
      | None -> ())
  | Trusts_own_writes | Noconsist | Leases -> validate t cf);
  let len = if off >= cf.csize then 0 else min len (cf.csize - off) in
  let bs = t.opts.bsize in
  (* One whole aligned block is lent, not copied. *)
  let whole = len = bs && off mod bs = 0 in
  let out = ref (if whole then Bytes.empty else Bytes.create len) in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / bs in
    let b = ensure_block t cf blk in
    let in_blk = abs mod bs in
    let n = min (bs - in_blk) (len - !pos) in
    if whole then begin
      b.lent <- true;
      out := b.data
    end
    else Bytes.blit b.data in_blk !out !pos n;
    pos := !pos + n;
    (* Sequential access triggers read-ahead. *)
    if blk = cf.last_seq_blk + 1 || blk = cf.last_seq_blk then read_ahead t cf blk;
    cf.last_seq_blk <- blk
  done;
  charge_copy t len;
  !out

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

let mergeable b lo hi =
  match b.dirty with
  | None -> true
  | Some (dlo, dhi) ->
      (* Overlapping or adjacent ranges always merge; disjoint ranges
         merge only when the block is fully valid (the gap bytes are
         then known data). *)
      b.valid || (lo <= dhi && hi >= dlo)

let write t fd ~off data =
  charge t syscall_instructions;
  let cf = fd in
  (* Dirty data may only be delayed under a write lease. *)
  (match t.opts.consistency with
  | Leases -> ignore (ensure_lease t cf P.Lease_write)
  | Close_to_open | Close_to_open_nopush | Trusts_own_writes | Noconsist -> ());
  let len = Bytes.length data in
  charge_copy t len;
  let bs = t.opts.bsize in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / bs in
    let lo = abs mod bs in
    let n = min (bs - lo) (len - !pos) in
    let hi = lo + n in
    let b = get_or_create_block t cf blk in
    (* A buf holds a single dirty region: push the old one first if the
       new range cannot merge with it. *)
    if not (mergeable b lo hi) then push_block t cf b ~wait:true;
    if Bytes.length b.data = 0 then b.data <- Bytes.make bs '\000';
    Bytes.blit data !pos (own_data b) lo n;
    let range =
      match b.dirty with
      | Some (dlo, dhi) -> (min lo dlo, max hi dhi)
      | None -> (lo, hi)
    in
    set_dirty cf b (Some range);
    if off + len > cf.csize then cf.csize <- off + len;
    (* A block dirtied from its start to its end — or to end-of-file —
       has fully known contents. *)
    (match b.dirty with
    | Some (0, dhi) when dhi = bs || (blk * bs) + dhi >= cf.csize -> b.valid <- true
    | _ -> ());
    (match t.opts.write_policy with
    | Write_through -> push_block t cf b ~wait:true
    | Async -> push_block t cf b ~wait:false
    | Delayed -> (
        (* Asynchronous for full blocks, delayed for partial ones —
           unless the rule delays everything: noconsist, and leases
           under their write lease. *)
        match t.opts.consistency with
        | Noconsist | Leases -> ()
        | Close_to_open | Close_to_open_nopush | Trusts_own_writes -> (
            match b.dirty with
            | Some (0, dhi) when dhi = bs -> push_block t cf b ~wait:false
            | _ -> ())));
    pos := !pos + n
  done

(* ------------------------------------------------------------------ *)
(* Open / close / attributes                                          *)
(* ------------------------------------------------------------------ *)

let stat t path =
  charge t syscall_instructions;
  let fh = walk t path in
  get_attrs t fh

let open_ t path =
  charge t syscall_instructions;
  let fh = walk t path in
  let a = get_attrs t fh in
  if a.P.ftype = P.NFDIR then fail P.NFSERR_ISDIR;
  let cf = cfile_of t fh a in
  validate t cf;
  cf.open_count <- cf.open_count + 1;
  cf

let create t path =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  let fh, a =
    dirop t
      (P.Create
         {
           P.where = { P.dir; name };
           attributes = { P.sattr_none with P.s_mode = 0o644; s_size = 0 };
         })
  in
  name_enter t ~dir name fh;
  (* Truncation by create: discard any cached data. *)
  (match Hashtbl.find_opt t.files fh with
  | Some old ->
      Hashtbl.iter
        (fun _ b ->
          set_dirty old b None;
          (* Truncation discards the ledger too: the data is gone by
             request, nothing is left to replay. *)
          b.needs_commit <- None)
        old.blocks;
      invalidate_clean t old
  | None -> ());
  let cf = cfile_of t fh a in
  cf.cached_mtime <- mtime_of a;
  cf.csize <- a.P.size;
  cf.open_count <- cf.open_count + 1;
  cf

(* Make the file's data durable and report the first write error since
   the last report. *)
let commit_and_report t fd =
  commit_file t fd;
  match fd.write_error with
  | Some st ->
      fd.write_error <- None;
      fail st
  | None -> ()

let fsync t fd =
  charge t syscall_instructions;
  commit_and_report t fd

(* Forget everything cached about a file (it is going away). *)
let drop_cfile t fh =
  match Hashtbl.find_opt t.files fh with
  | Some cf ->
      t.total_blocks <- t.total_blocks - Hashtbl.length cf.blocks;
      Hashtbl.remove t.files fh
  | None -> ()

let close t fd =
  charge t syscall_instructions;
  if fd.open_count > 0 then fd.open_count <- fd.open_count - 1;
  (* The last close of a silly-renamed file finally removes it. *)
  (if fd.open_count = 0 then
     match fd.silly with
     | Some (dir, name) ->
         fd.silly <- None;
         ignore (rpc t (P.Remove { P.dir; name }));
         name_remove t ~dir name;
         drop_cfile t fd.c_fh;
         Attrcache.invalidate t.attrs fd.c_fh
     | None -> ());
  match t.opts.consistency with
  | Close_to_open | Trusts_own_writes -> commit_and_report t fd
  | Close_to_open_nopush | Noconsist -> ()
  | Leases ->
      (* The write lease guarantees close/open consistency without the
         blocking push: a later opener's lease request forces our
         flush. *)
      ()

let fd_size t fd =
  validate t fd;
  fd.csize

let unlink t path =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  let cached =
    match t.names with Some nc -> Namecache.lookup nc ~dir name | None -> None
  in
  (* Unlinking a file some process still has open: the stateless server
     would free the inode and later reads would see ESTALE, so the BSD
     client renames it out of the way and removes it at the last close
     — the silly rename. *)
  let open_cfile =
    match cached with
    | Some fh -> (
        match Hashtbl.find_opt t.files fh with
        | Some cf when cf.open_count > 0 -> Some cf
        | _ -> None)
    | None -> None
  in
  match open_cfile with
  | Some cf ->
      let silly_name = Printf.sprintf ".nfs%04d" cf.c_fh in
      status t
        (P.Rename { P.from_dir = { P.dir; name }; to_dir = { P.dir; name = silly_name } });
      name_remove t ~dir name;
      cf.silly <- Some (dir, silly_name)
  | None -> (
      status t (P.Remove { P.dir; name });
      name_remove t ~dir name;
      match cached with
      | Some fh ->
          drop_cfile t fh;
          Attrcache.invalidate t.attrs fh
      | None -> ())

let mkdir t path =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  let fh, _ =
    dirop t
      (P.Mkdir
         { P.where = { P.dir; name }; attributes = { P.sattr_none with P.s_mode = 0o755 } })
  in
  name_enter t ~dir name fh

let rmdir t path =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  status t (P.Rmdir { P.dir; name });
  match t.names with
  | Some nc ->
      (match Namecache.lookup nc ~dir name with
      | Some fh ->
          Namecache.invalidate_dir nc fh;
          Hashtbl.remove t.name_stamps fh
      | None -> ());
      Namecache.remove nc ~dir name
  | None -> ()

let rename t src dst =
  charge t syscall_instructions;
  let sdir, sname = walk_parent t src in
  let ddir, dname = walk_parent t dst in
  status t
    (P.Rename
       { P.from_dir = { P.dir = sdir; name = sname }; to_dir = { P.dir = ddir; name = dname } });
  match t.names with
  | Some nc ->
      (match Namecache.lookup nc ~dir:sdir sname with
      | Some fh -> name_enter t ~dir:ddir dname fh
      | None -> ());
      Namecache.remove nc ~dir:sdir sname
  | None -> ()

let symlink t path ~target =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  status t
    (P.Symlink { P.sym_where = { P.dir; name }; sym_target = target; sym_attr = P.sattr_none })

let readlink t path =
  charge t syscall_instructions;
  let dir, name = walk_parent t path in
  let fh = lookup_component t dir name in
  readlink_rpc t fh

let link t ~existing path =
  charge t syscall_instructions;
  let src = walk t existing in
  let dir, name = walk_parent t path in
  status t (P.Link { P.link_from = src; link_to = { P.dir; name } });
  (* The v2 link reply carries no attributes and nlink changed:
     invalidate, as the BSD client zaps n_attrstamp here. *)
  Attrcache.invalidate t.attrs src;
  name_enter t ~dir name src

(* One page of a directory: its entries and whether it is the last.
   READDIRLOOK also returns each entry's handle and attributes, which
   feed the name and attribute caches and save later lookup/getattr
   RPCs. *)
let readdir_page t dir cookie =
  let args = { P.rd_dir = dir; cookie; rd_count = 8192 } in
  if t.opts.use_readdirlook then
    match rpc t (P.Readdirlook args) with
    | P.Rreaddirlook (Ok (ents, eof)) ->
        List.iter
          (fun le ->
            name_enter t ~dir le.P.le_entry.P.entry_name le.P.le_file;
            Attrcache.update t.attrs le.P.le_file le.P.le_attr)
          ents;
        (List.map (fun le -> le.P.le_entry) ents, eof)
    | failed -> fail (error_of failed)
  else
    match rpc t (P.Readdir args) with
    | P.Rreaddir (Ok page) -> page
    | failed -> fail (error_of failed)

let readdir t path =
  charge t syscall_instructions;
  let dir = walk t path in
  let rec page cookie acc =
    let entries, eof = readdir_page t dir cookie in
    let acc = List.rev_append (List.map (fun e -> e.P.entry_name) entries) acc in
    if eof then List.rev acc
    else
      match List.rev entries with
      | last :: _ -> page last.P.entry_cookie acc
      | [] -> page cookie acc
  in
  page 0 []

let statfs t =
  charge t syscall_instructions;
  match rpc t (P.Statfs t.root) with
  | P.Rstatfs (Ok s) -> s
  | failed -> fail (error_of failed)

let flush_all t =
  Hashtbl.iter (fun _ cf -> flush_file t cf ~wait:false) t.files;
  Hashtbl.iter (fun _ cf -> wait_outstanding cf) t.files;
  if t.opts.v3 then
    Hashtbl.iter (fun _ cf -> commit_file t cf) t.files

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

let current_transfer_size t = t.xfer_size

let dirty_blocks t = Hashtbl.fold (fun _ cf acc -> acc + cf.dirty_count) t.files 0
