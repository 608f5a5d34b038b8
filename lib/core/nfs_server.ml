module Sim = Renofs_engine.Sim
module Probe = Renofs_engine.Probe
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Stats = Renofs_engine.Stats
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Record_mark = Renofs_rpc.Record_mark
module Node = Renofs_net.Node
module Nic = Renofs_net.Nic
module Trace = Renofs_trace.Trace
module Metrics = Renofs_metrics.Metrics
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module Disk = Renofs_vfs.Disk
module P = Nfs_proto

type profile = Reno | Reno_no_name_cache | Reference_port

let reno_profile = Reno
let reference_port_profile = Reference_port

(* What every profile shares: four nfsds, and the per-RPC cost of
   decoding the request and building the reply in mbufs. *)
let nfsd_count = 4
let decode_instructions = 320.0
let encode_instructions = 280.0

let duplicate_cache = function
  | Reno | Reno_no_name_cache -> true
  | Reference_port -> false

(* The user-mode RPC/XDR runtime ported into the kernel: extra buffer
   management and dispatch layers on every RPC. *)
let xdr_layer_instructions = function
  | Reno | Reno_no_name_cache -> 0.0
  | Reference_port -> 900.0

(* Buffer-cache search and the server name cache. *)
let fs_config = function
  | Reno -> Fs.reno_config
  | Reno_no_name_cache -> { Fs.reno_config with name_cache = false }
  | Reference_port ->
      {
        Fs.reno_config with
        bcache_search = Renofs_vfs.Bcache.Global_scan;
        name_cache = false;
      }

(* A recent-request cache entry [Juszczak89]: requests still executing
   must also be recognised, or a retransmission arriving mid-execution
   would re-run a non-idempotent operation. *)
type dup_entry = In_progress | Done of { at : float; reply : Mbuf.t }

(* One client's hold on a file lease. *)
type lease_holder = {
  lh_client : int * int; (* (host, port) identity *)
  lh_mode : P.lease_mode;
  mutable lh_expiry : float;
  mutable lh_contested : bool;
      (* someone is waiting for a conflicting lease: renewals are
         refused so the holder flushes and the wait is bounded *)
}

(* One buffered unstable extent: data a v3 WRITE left in volatile
   memory, in arrival order, awaiting COMMIT.  [ue_digest] is the data's
   [Trace.digest], computed on first use (-1 until then), so a traced
   UNSTABLE write and its COMMIT echo hash the bytes once between them. *)
type uext = { ue_off : int; ue_data : bytes; mutable ue_digest : int }

type t = {
  node : Node.t;
  profile : profile;
  fs : Fs.t;
  udp : Udp.stack;
  tcp : Tcp.stack option;
  mutable served : int;
  mutable dups : int;
  mutable in_service : int; (* RPCs currently inside [execute] *)
  mutable service_hist : Stats.Hist.t option; (* ms; only with metrics *)
  dup_table : (int32 * int * int, dup_entry) Hashtbl.t;
  dup_order : (int32 * int * int) Queue.t;
  leases : (int, lease_holder list ref) Hashtbl.t; (* per fhandle *)
  mutable up : bool;
  mutable no_leases_before : float; (* reboot grace period *)
  unstable : (int, uext list ref) Hashtbl.t;
      (* per-fhandle unstable-write buffer, newest extent first; dies
         with the machine on crash *)
  mutable boots : int;
  mutable write_verf : int;
  mutable lie_on_commit : bool;
      (* fault-injection hook: ack COMMIT without flushing, so the
         committed_durable invariant has a guilty server to convict *)
}

let dup_window = 6.0
let dup_capacity = 128

(* Deterministic per-boot write verifier: a 30-bit fold of node id and
   boot count.  Real servers use boot time; ours must be reproducible at
   any [--jobs], and 30 bits survives the XDR int and JSONL number
   round-trips exactly. *)
let verf_of ~node_id ~boots =
  (((node_id + 1) * 0x9E3779B1) + ((boots + 1) * 0x85EBCA77)) land 0x3FFFFFFF

let lease_duration = 6.0
(* Short, as NQNFS leases are: the bound on both staleness after a
   partition and the wait for a contested grant. *)

(* Sampled sources for the run attached to the server's node, if any:
   throughput and duplicate counters, the service-concurrency gauge,
   the name-cache hit ratio, and a per-RPC service-time histogram
   (created here so the data path pays nothing without metrics). *)
let register_metrics t =
  match Node.metrics t.node with
  | None -> ()
  | Some run ->
      let p s = Node.name t.node ^ ".srv." ^ s in
      (* Per-shard series carry a server label so fleet plots can split
         imbalance across shards without parsing series names. *)
      let labels = [ ("server", Node.name t.node) ] in
      let fi = float_of_int in
      Metrics.register ~labels run ~name:(p "served") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi t.served);
      Metrics.register run ~name:(p "dups") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi t.dups);
      Metrics.register run ~name:(p "inflight") ~unit_:"count"
        ~kind:Metrics.Gauge (fun () -> fi t.in_service);
      (match Fs.namecache t.fs with
      | Some nc ->
          Metrics.register run ~name:(p "namecache.hit_ratio") ~unit_:"percent"
            ~kind:Metrics.Gauge (fun () ->
              let s = Renofs_vfs.Namecache.stats nc in
              let total = s.Renofs_vfs.Namecache.hits + s.Renofs_vfs.Namecache.misses in
              if total = 0 then nan
              else 100.0 *. fi s.Renofs_vfs.Namecache.hits /. fi total)
      | None -> ());
      let hist = Stats.Hist.create ~bucket_width:0.5 ~buckets:200 in
      t.service_hist <- Some hist;
      Metrics.register_hist run ~name:(p "service_ms") ~unit_:"ms" hist

let create node ?(profile = reno_profile) ~udp ?tcp () =
  let sim = Node.sim node in
  let disk = Disk.create sim in
  let fs = Fs.create sim (Node.cpu node) disk (fs_config profile) in
  let t =
    {
      node;
      profile;
      fs;
      udp;
      tcp;
      served = 0;
      dups = 0;
      in_service = 0;
      service_hist = None;
      dup_table = Hashtbl.create dup_capacity;
      dup_order = Queue.create ();
      leases = Hashtbl.create 64;
      up = true;
      no_leases_before = 0.0;
      unstable = Hashtbl.create 16;
      boots = 0;
      write_verf = verf_of ~node_id:(Node.id node) ~boots:0;
      lie_on_commit = false;
    }
  in
  register_metrics t;
  t

let fs t = t.fs
let is_up t = t.up
let udp_stack t = t.udp
let tcp_stack t = t.tcp
let node t = t.node
let root_fhandle t = Fs.ino (Fs.root t.fs)
let rpcs_served t = t.served
let duplicates_dropped t = t.dups
let write_verf t = t.write_verf
let set_lie_on_commit t v = t.lie_on_commit <- v

(* --- v3 unstable-write overlay -------------------------------------- *)

let uext_end e = e.ue_off + Bytes.length e.ue_data

let uext_digest e =
  if e.ue_digest < 0 then e.ue_digest <- Trace.digest e.ue_data;
  e.ue_digest

(* [fh]'s list in a per-fhandle table, added empty on first use. *)
let list_of tbl fh =
  match Hashtbl.find_opt tbl fh with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace tbl fh r;
      r

let unstable_append t fh ~off data =
  let r = list_of t.unstable fh in
  let e = { ue_off = off; ue_data = data; ue_digest = -1 } in
  r := e :: !r;
  e

let unstable_size t fh =
  match Hashtbl.find_opt t.unstable fh with
  | None -> 0
  | Some r -> List.fold_left (fun acc e -> max acc (uext_end e)) 0 !r

let unstable_bytes t =
  Hashtbl.fold
    (fun _ r acc ->
      List.fold_left (fun a e -> a + Bytes.length e.ue_data) acc !r)
    t.unstable 0

(* Reads must see buffered unstable data: lay intersecting extents,
   oldest first, over what stable storage returned. *)
let overlay_read t fh ~off ~len base =
  match Hashtbl.find_opt t.unstable fh with
  | None -> base
  | Some r ->
      let inter =
        List.filter (fun e -> e.ue_off < off + len && uext_end e > off) !r
      in
      if inter = [] then base
      else begin
        let ov_end =
          List.fold_left (fun acc e -> max acc (uext_end e)) 0 inter
        in
        let want = max (Bytes.length base) (min len (ov_end - off)) in
        let buf = Bytes.make want '\000' in
        Bytes.blit base 0 buf 0 (Bytes.length base);
        List.iter
          (fun e ->
            let s = max e.ue_off off and e_ = min (uext_end e) (off + len) in
            if e_ > s then
              Bytes.blit e.ue_data (s - e.ue_off) buf (s - off) (e_ - s))
          (List.rev inter);
        buf
      end

(* As in [Fs.charge]: the consume suspends, so when probed rebind the
   resumed segment (decode/encode/DRC work) to the server slot with a
   deliberately unmatched enter — the event fire boundary truncates it. *)
let charge t instructions =
  Cpu.consume (Node.cpu t.node)
    (Cpu.seconds_of_instructions (Node.cpu t.node) instructions);
  match Sim.probe (Node.sim t.node) with
  | None -> ()
  | Some p -> ignore (p.Probe.enter Probe.server)

let charge_copy t bytes =
  let bw = (Node.nic t.node).Nic.copy_bandwidth in
  Cpu.consume (Node.cpu t.node) (float_of_int bytes /. bw)

let stat_of_fs_err : Fs.err -> P.stat = function
  | Fs.Enoent -> P.NFSERR_NOENT
  | Fs.Eexist -> P.NFSERR_EXIST
  | Fs.Enotdir -> P.NFSERR_NOTDIR
  | Fs.Eisdir -> P.NFSERR_ISDIR
  | Fs.Enotempty -> P.NFSERR_NOTEMPTY
  | Fs.Estale -> P.NFSERR_STALE
  | Fs.Einval -> P.NFSERR_IO
  | Fs.Efbig -> P.NFSERR_FBIG

let fattr_of_attrs (a : Fs.attrs) : P.fattr =
  {
    P.ftype =
      (match a.Fs.kind with Fs.Reg -> P.NFREG | Fs.Dir -> P.NFDIR | Fs.Lnk -> P.NFLNK);
    mode = a.Fs.mode;
    nlink = a.Fs.nlink;
    uid = a.Fs.uid;
    gid = a.Fs.gid;
    size = a.Fs.size;
    blocksize = 8192;
    rdev = 0;
    blocks = (a.Fs.size + 511) / 512;
    fsid = 1;
    fileid = a.Fs.ino;
    atime = P.time_of_float a.Fs.atime;
    mtime = P.time_of_float a.Fs.mtime;
    ctime = P.time_of_float a.Fs.ctime;
  }

let sattr_to_fs (s : P.sattr) =
  let opt v = if v < 0 then None else Some v in
  (opt s.P.s_mode, opt s.P.s_uid, opt s.P.s_gid, opt s.P.s_size,
   Option.map P.float_of_time s.P.s_mtime)

(* --- lease machinery ------------------------------------------------ *)

let purge_expired t holders =
  let now = Sim.now (Node.sim t.node) in
  holders := List.filter (fun h -> h.lh_expiry > now) !holders

let conflicts_with ~client ~mode h =
  h.lh_client <> client && (mode = P.Lease_write || h.lh_mode = P.Lease_write)

(* Grant (or renew) a lease, waiting out conflicting holders.  A
   contested holder is refused renewal, so the wait is bounded by one
   lease duration.  Runs in the serving nfsd's process. *)
let rec obtain_lease t ~client ~mode fh =
  let holders = list_of t.leases fh in
  purge_expired t holders;
  let mine = List.find_opt (fun h -> h.lh_client = client) !holders in
  (match mine with
  | Some h when h.lh_contested ->
      (* Refuse renewal: the holder must flush and vacate. *)
      holders := List.filter (fun x -> x != h) !holders;
      `Vacate
  | _ -> (
      let others = List.filter (fun h -> conflicts_with ~client ~mode h) !holders in
      match others with
      | [] ->
          let now = Sim.now (Node.sim t.node) in
          let expiry = now +. lease_duration in
          (match mine with
          | Some h ->
              h.lh_expiry <- expiry;
              (* An upgrade replaces the mode. *)
              if mode = P.Lease_write && h.lh_mode = P.Lease_read then
                holders :=
                  { h with lh_mode = P.Lease_write }
                  :: List.filter (fun x -> x != h) !holders
          | None ->
              holders :=
                { lh_client = client; lh_mode = mode; lh_expiry = expiry;
                  lh_contested = false }
                :: !holders);
          `Granted
      | _ ->
          List.iter (fun h -> h.lh_contested <- true) others;
          let earliest =
            List.fold_left (fun acc h -> Float.min acc h.lh_expiry) infinity others
          in
          Proc.sleep (Node.sim t.node) (Float.max 0.01 (earliest -. Sim.now (Node.sim t.node)) +. 0.001);
          obtain_lease t ~client ~mode fh))
  [@@warning "-57"]

exception Access_denied

let r_ok = 4
let w_ok = 2
let x_ok = 1

let trace_event t ev =
  match Node.trace t.node with
  | Some tr ->
      Trace.record tr ~time:(Sim.now (Node.sim t.node)) ~node:(Node.id t.node) ev
  | None -> ()

(* Whether [trace_event] would record.  The write events carry a digest
   of the data, so they are built only then: an untraced server hashes
   nothing. *)
let tracing t =
  match Node.trace t.node with Some tr -> Trace.enabled tr | None -> false

(* Trace [data], just written through at [off] of [file], as committed;
   the digest is computed only when traced.  [mtime] is the caller's own
   read-back after the write: v2 WRITE traces its reply's wire mtime,
   WRITE3 and COMMIT the file system's. *)
let trace_committed t ~file ~off data ~mtime digest =
  if tracing t then
    trace_event t
      (Trace.Write_committed
         { file; off; len = Bytes.length data; digest = digest (); mtime })

let vn t fh = Fs.vnode_by_ino t.fs fh

(* Attributes reflect buffered unstable data too: a client that just
   wrote UNSTABLE past EOF must see the grown size. *)
let attr t v =
  let a = fattr_of_attrs (Fs.getattr t.fs v) in
  let os = unstable_size t a.P.fileid in
  if os > a.P.size then { a with P.size = os; blocks = (os + 511) / 512 }
  else a

(* Classic Unix permission bits against the AUTH_UNIX credential; uid 0
   bypasses, as the kernel's VOP_ACCESS does. *)
let check t ~uid ~gid v ~want =
  let a = Fs.getattr t.fs v in
  let bits =
    if uid = a.Fs.uid then (a.Fs.mode lsr 6) land 7
    else if gid = a.Fs.gid then (a.Fs.mode lsr 3) land 7
    else a.Fs.mode land 7
  in
  if uid <> 0 && bits land want <> want then raise Access_denied

(* One page of directory [v] from [cookie]: the entries that fit
   [rd_count] reply bytes at [per_entry] bytes each, numbered from
   [cookie + 1] and passed through [f] in order. *)
let readdir_page t v ~cookie ~rd_count ~per_entry f =
  let entries, eof =
    Fs.readdir t.fs v ~cookie ~count:(max 1 (rd_count / per_entry))
  in
  ( List.mapi
      (fun i (name, ino) ->
        f { P.fileid = ino; entry_name = name; entry_cookie = cookie + i + 1 })
      entries,
    eof )

(* Execute one NFS call against the filesystem.  Every [Fs] operation
   charges its own CPU and disk costs.  A failure raises [Fs.Err] or
   [Access_denied], which {!reply} turns into the failed reply. *)
let execute t ~client ~uid ~gid (call : P.call) : P.reply =
  match call with
  | P.Null -> P.Rnull
  | P.Getattr fh -> P.Rattr (Ok (attr t (vn t fh)))
  | P.Setattr (fh, s) ->
      let v = vn t fh in
      (* Only the owner (or root) may change attributes. *)
      let a = Fs.getattr t.fs v in
      if uid <> 0 && uid <> a.Fs.uid then raise Access_denied;
      let mode, s_uid, s_gid, size, mtime = sattr_to_fs s in
      P.Rattr
        (Ok
           (fattr_of_attrs
              (Fs.setattr t.fs v ?mode ?uid:s_uid ?gid:s_gid ?size ?mtime ())))
  | P.Lookup { P.dir; name } ->
      let d = vn t dir in
      check t ~uid ~gid d ~want:x_ok;
      let v = Fs.lookup t.fs d name in
      P.Rdirop (Ok (Fs.ino v, attr t v))
  | P.Readlink fh -> P.Rreadlink (Ok (Fs.readlink t.fs (vn t fh)))
  | P.Read { P.read_file; offset; count } ->
      let v = vn t read_file in
      check t ~uid ~gid v ~want:r_ok;
      let fsize = (Fs.getattr t.fs v).Fs.size in
      let data =
        if offset >= fsize then Bytes.empty
        else Fs.read t.fs v ~off:offset ~len:count
      in
      let data = overlay_read t read_file ~off:offset ~len:count data in
      (* Buffer cache to mbuf copy: the residual bottleneck of
         Section 3. *)
      charge_copy t (Bytes.length data);
      P.Rread (Ok (attr t v, data))
  | P.Write { P.write_file; write_offset; data } ->
      let v = vn t write_file in
      check t ~uid ~gid v ~want:w_ok;
      (* mbuf to buffer cache copy before the synchronous write; the
         host adopts a whole aligned chunk instead. *)
      charge_copy t (Bytes.length data);
      Fs.write_lent t.fs v ~off:write_offset [ data ];
      let a = attr t v in
      trace_committed t ~file:write_file ~off:write_offset data
        ~mtime:(P.float_of_time a.P.mtime) (fun () -> Trace.digest data);
      P.Rattr (Ok a)
  | P.Create { P.where = { P.dir; name }; attributes } ->
      let mode, _, _, size, _ = sattr_to_fs attributes in
      let parent = vn t dir in
      check t ~uid ~gid parent ~want:w_ok;
      let v =
        try
          Fs.create_file t.fs ~dir:parent name
            ~mode:(Option.value mode ~default:0o644) ~uid ~gid ()
        with Fs.Err Fs.Eexist ->
          (* NFS create of an existing file truncates per [size]. *)
          Fs.lookup t.fs parent name
      in
      (match size with Some s -> ignore (Fs.setattr t.fs v ~size:s ()) | None -> ());
      P.Rdirop (Ok (Fs.ino v, attr t v))
  | P.Remove { P.dir; name } ->
      let d = vn t dir in
      check t ~uid ~gid d ~want:w_ok;
      Fs.remove t.fs ~dir:d name;
      P.Rstat P.NFS_OK
  | P.Rename { P.from_dir; to_dir } ->
      let src_dir = vn t from_dir.P.dir and dst_dir = vn t to_dir.P.dir in
      check t ~uid ~gid src_dir ~want:w_ok;
      check t ~uid ~gid dst_dir ~want:w_ok;
      Fs.rename t.fs ~src_dir from_dir.P.name ~dst_dir to_dir.P.name;
      P.Rstat P.NFS_OK
  | P.Link { P.link_from; link_to } ->
      let d = vn t link_to.P.dir in
      check t ~uid ~gid d ~want:w_ok;
      Fs.link t.fs ~src:(vn t link_from) ~dir:d link_to.P.name;
      P.Rstat P.NFS_OK
  | P.Symlink { P.sym_where = { P.dir; name }; sym_target; _ } ->
      let d = vn t dir in
      check t ~uid ~gid d ~want:w_ok;
      Fs.symlink t.fs ~dir:d name ~target:sym_target ~uid ~gid ();
      P.Rstat P.NFS_OK
  | P.Mkdir { P.where = { P.dir; name }; attributes } ->
      let mode, _, _, _, _ = sattr_to_fs attributes in
      let parent = vn t dir in
      check t ~uid ~gid parent ~want:w_ok;
      let v =
        Fs.mkdir t.fs ~dir:parent name ~mode:(Option.value mode ~default:0o755)
          ~uid ~gid ()
      in
      P.Rdirop (Ok (Fs.ino v, attr t v))
  | P.Rmdir { P.dir; name } ->
      let d = vn t dir in
      check t ~uid ~gid d ~want:w_ok;
      Fs.rmdir t.fs ~dir:d name;
      P.Rstat P.NFS_OK
  | P.Readdir { P.rd_dir; cookie; rd_count } ->
      let v = vn t rd_dir in
      check t ~uid ~gid v ~want:r_ok;
      (* ~16 bytes of framing plus the name, per entry. *)
      P.Rreaddir (Ok (readdir_page t v ~cookie ~rd_count ~per_entry:24 Fun.id))
  | P.Statfs fh ->
      ignore (vn t fh);
      let st = Fs.statfs t.fs in
      P.Rstatfs
        (Ok
           {
             P.tsize = P.max_data;
             bsize = st.Fs.block_size;
             blocks_total = st.Fs.total_blocks;
             blocks_free = st.Fs.free_blocks;
             blocks_avail = st.Fs.free_blocks;
           })
  | P.Getlease { P.lease_file; lease_mode; lease_duration = want } -> (
      let v = vn t lease_file in
      (* Grace period after a reboot: the lease table died with the
         kernel, so leases issued before the crash may still live in
         client memories.  Refuse grants (a vacate) until they must all
         have expired; the refusal also makes lapsed holders flush their
         delayed writes promptly. *)
      if Sim.now (Node.sim t.node) < t.no_leases_before then P.Rlease (Ok None)
      else
        match obtain_lease t ~client ~mode:lease_mode lease_file with
        | `Granted ->
            let dur = min (max 1 want) (int_of_float lease_duration) in
            trace_event t
              (Trace.Lease_grant
                 {
                   file = lease_file;
                   mode =
                     (match lease_mode with
                     | P.Lease_read -> "read"
                     | P.Lease_write -> "write");
                   holder = fst client;
                   duration = float_of_int dur;
                 });
            P.Rlease (Ok (Some { P.granted_duration = dur; lease_attr = attr t v }))
        | `Vacate -> P.Rlease (Ok None))
  | P.Readdirlook { P.rd_dir; cookie; rd_count } ->
      let v = vn t rd_dir in
      check t ~uid ~gid v ~want:r_ok;
      P.Rreaddirlook
        (Ok
           (readdir_page t v ~cookie ~rd_count ~per_entry:96 (fun e ->
                {
                  P.le_entry = e;
                  le_file = e.P.fileid;
                  le_attr = fattr_of_attrs (Fs.getattr t.fs (vn t e.P.fileid));
                })))
  | P.Write3 { P.w3_file; w3_offset; w3_stable; w3_data } ->
      let v = vn t w3_file in
      check t ~uid ~gid v ~want:w_ok;
      (* mbuf to buffer cache copy; for UNSTABLE that is the whole
         cost — no disk until COMMIT, the v3 write-behind win. *)
      charge_copy t (Bytes.length w3_data);
      let committed =
        match w3_stable with
        | P.Unstable ->
            let e = unstable_append t w3_file ~off:w3_offset w3_data in
            if tracing t then
              trace_event t
                (Trace.Write_unstable
                   {
                     file = w3_file;
                     off = w3_offset;
                     len = Bytes.length w3_data;
                     digest = uext_digest e;
                     verf = t.write_verf;
                   });
            P.Unstable
        | P.Data_sync | P.File_sync ->
            Fs.write_lent t.fs v ~off:w3_offset [ w3_data ];
            trace_committed t ~file:w3_file ~off:w3_offset w3_data
              ~mtime:(Fs.getattr t.fs v).Fs.mtime (fun () -> Trace.digest w3_data);
            P.File_sync
      in
      P.Rwrite3
        (Ok
           {
             P.w3_attr = attr t v;
             w3_count = Bytes.length w3_data;
             w3_committed = committed;
             w3_verf = t.write_verf;
           })
  | P.Commit { P.cm_file; cm_offset; cm_count } ->
      let v = vn t cm_file in
      check t ~uid ~gid v ~want:w_ok;
      let upto = if cm_count = 0 then max_int else cm_offset + cm_count in
      (* A lying server skips the flush but still acknowledges: the
         committed_durable invariant must convict it at read-back. *)
      (if not t.lie_on_commit then
         match Hashtbl.find_opt t.unstable cm_file with
         | None -> ()
         | Some r ->
             let covered, kept =
               List.partition
                 (fun e -> e.ue_off < upto && uext_end e > cm_offset)
                 !r
             in
             r := kept;
             if kept = [] then Hashtbl.remove t.unstable cm_file;
             (* Flush in arrival order so overlaps resolve
                last-writer-wins, matching reads through the overlay. *)
             List.iter
               (fun e ->
                 Fs.write_lent t.fs v ~off:e.ue_off [ e.ue_data ];
                 trace_committed t ~file:cm_file ~off:e.ue_off e.ue_data
                   ~mtime:(Fs.getattr t.fs v).Fs.mtime (fun () -> uext_digest e))
               (List.rev covered));
      trace_event t
        (Trace.Commit_ok
           {
             file = cm_file;
             off = cm_offset;
             count = cm_count;
             verf = t.write_verf;
           });
      P.Rcommit (Ok { P.cmo_attr = attr t v; cmo_verf = t.write_verf })

(* The one reply path: whatever [execute] raises becomes the failed
   reply of [call]'s procedure. *)
let reply t ~client ~cred call =
  let uid, gid =
    match cred with
    | Rpc_msg.Auth_unix { uid; gid; _ } -> (uid, gid)
    | Rpc_msg.Auth_null -> (65534, 65534) (* nobody *)
  in
  try execute t ~client ~uid ~gid call with
  | Fs.Err e -> P.error_reply call (stat_of_fs_err e)
  | Access_denied -> P.error_reply call P.NFSERR_ACCES

(* [`Execute]: new request, marked in-progress.  [`Drop]: a duplicate of
   a request still executing.  [`Replay r]: a duplicate of a completed
   request whose cached reply should be resent. *)
let dup_check t key =
  match Hashtbl.find_opt t.dup_table key with
  | Some In_progress -> `Drop
  | Some (Done e) when Sim.now (Node.sim t.node) -. e.at <= dup_window ->
      `Replay e.reply
  | Some (Done _) | None ->
      if not (Hashtbl.mem t.dup_table key) then begin
        while Queue.length t.dup_order >= dup_capacity do
          match Queue.take_opt t.dup_order with
          | Some victim -> Hashtbl.remove t.dup_table victim
          | None -> ()
        done;
        Queue.add key t.dup_order
      end;
      Hashtbl.replace t.dup_table key In_progress;
      `Execute

let dup_store t key reply =
  if Hashtbl.mem t.dup_table key then
    Hashtbl.replace t.dup_table key
      (Done
         {
           at = Sim.now (Node.sim t.node);
           reply =
             Mbuf.sub_copy ?pool:(Node.pool t.node) reply ~pos:0
               ~len:(Mbuf.length reply);
         })

(* Whether the server is up in the boot [boots] was noted in. *)
let alive t boots = t.up && t.boots = boots

(* Handle one RPC message; returns the reply chain, or [None] for
   undecodable garbage (dropped, as a datagram server does).
   [arrived_at] is when the request entered the socket queue (UDP only):
   it turns into the [Srv_queue] wait-time trace event.  A request dies
   with its server: if the server is down when it arrives, or is down or
   has rebooted by the end of its decode or its execution, it leaves no
   service record, no duplicate-cache entry and no reply. *)
let handle_message_inner t ?arrived_at chain ~src ~src_port =
  let boots = t.boots in
  if not t.up then None
  else begin
  charge t (decode_instructions +. xdr_layer_instructions t.profile);
  match Rpc_msg.decode_call chain with
  | _ when not (alive t boots) -> None
  | exception (Rpc_msg.Bad_message _ | Xdr.Decode_error _) -> None
  | hdr, dec -> (
      (match arrived_at with
      | Some at when tracing t ->
          let wait = Sim.now (Node.sim t.node) -. at in
          trace_event t
            (Trace.Srv_queue { xid = hdr.Rpc_msg.xid; proc = hdr.Rpc_msg.proc; wait })
      | _ -> ());
      let key = (hdr.Rpc_msg.xid, src, src_port) in
      let tracked =
        duplicate_cache t.profile && not (P.is_idempotent hdr.Rpc_msg.proc)
      in
      let verdict = if tracked then dup_check t key else `Execute_untracked in
      (match verdict with
      | `Drop | `Replay _ -> trace_event t (Trace.Cache_hit { cache = "drc" })
      | `Execute -> trace_event t (Trace.Cache_miss { cache = "drc" })
      | `Execute_untracked -> ());
      match verdict with
      | `Drop ->
          t.dups <- t.dups + 1;
          None
      | `Replay reply ->
          t.dups <- t.dups + 1;
          Some
            (Mbuf.sub_copy ?pool:(Node.pool t.node) reply ~pos:0
               ~len:(Mbuf.length reply))
      | `Execute | `Execute_untracked ->
          let reply_body =
            match P.decode_call ~proc:hdr.Rpc_msg.proc dec with
            | exception Xdr.Decode_error _ -> None
            | call ->
                t.served <- t.served + 1;
                let t0 = Sim.now (Node.sim t.node) in
                t.in_service <- t.in_service + 1;
                let body = reply t ~client:(src, src_port) ~cred:hdr.Rpc_msg.cred call in
                t.in_service <- t.in_service - 1;
                let elapsed = Sim.now (Node.sim t.node) -. t0 in
                if alive t boots then begin
                  (match t.service_hist with
                  | Some h -> Stats.Hist.add h (elapsed *. 1e3)
                  | None -> ());
                  if tracing t then
                    trace_event t
                      (Trace.Srv_service
                         {
                           xid = hdr.Rpc_msg.xid;
                           proc = hdr.Rpc_msg.proc;
                           service = elapsed;
                         })
                end;
                Some body
          in
          if not (alive t boots) then None
          else begin
            charge t (encode_instructions +. xdr_layer_instructions t.profile);
            let status =
              match reply_body with
              | Some _ -> Rpc_msg.Success
              | None -> Rpc_msg.Garbage_args
            in
            let enc =
              Rpc_msg.encode_reply ~ctr:(Node.copy_counters t.node)
                ?pool:(Node.pool t.node) ~xid:hdr.Rpc_msg.xid
                (Rpc_msg.Accepted status)
            in
            (match reply_body with Some body -> P.encode_reply enc body | None -> ());
            let reply = Xdr.Enc.chain enc in
            (match reply_body with
            | _ when not tracked -> ()
            | Some _ -> dup_store t key reply
            | None -> Hashtbl.remove t.dup_table key);
            Some reply
          end)
  end

(* Request service is fiber code ([execute] suspends on the simulated
   CPU and disk), so the server scope relies on the probe's truncating
   depth tokens: the segment up to the first suspension is charged to
   the server slot, resumed segments are charged by their resume sites,
   and the final [leave] is a harmless no-op if the stack was already
   truncated at an event boundary. *)
let handle_message t ?arrived_at chain ~src ~src_port =
  match Sim.probe (Node.sim t.node) with
  | None -> handle_message_inner t ?arrived_at chain ~src ~src_port
  | Some p ->
      let d = p.Probe.enter Probe.server in
      let r =
        try handle_message_inner t ?arrived_at chain ~src ~src_port
        with e -> p.Probe.leave d; raise e
      in
      p.Probe.leave d;
      r

let crash t =
  t.up <- false;
  (* Volatile state dies with the machine. *)
  Hashtbl.reset t.dup_table;
  Queue.clear t.dup_order;
  Hashtbl.reset t.leases;
  (* Acknowledged-but-uncommitted v3 data legally vanishes here; the
     regenerated verifier (see [reboot]) tells clients to rewrite it. *)
  Hashtbl.reset t.unstable;
  (match Fs.namecache t.fs with Some nc -> Renofs_vfs.Namecache.purge nc | None -> ());
  (* A rebooting host's TCP resets every connection. *)
  (match t.tcp with Some stack -> Tcp.reset_all stack | None -> ());
  trace_event t Trace.Srv_crash

let reboot t =
  (* Grace period: 1.5 lease terms, covering a pre-crash lease plus the
     holder's write-back slack. *)
  t.no_leases_before <- Sim.now (Node.sim t.node) +. (1.5 *. lease_duration);
  t.boots <- t.boots + 1;
  t.write_verf <- verf_of ~node_id:(Node.id t.node) ~boots:t.boots;
  t.up <- true;
  trace_event t Trace.Srv_reboot

let crash_and_reboot t ~downtime =
  crash t;
  Proc.sleep (Node.sim t.node) downtime;
  reboot t

let start_udp t =
  let sock = Udp.bind t.udp ~port:P.port in
  (* The receive-queue depth the paper's Section 4 watches back up
     behind the 56K link; registered here because the socket only
     exists once the server starts. *)
  (match Node.metrics t.node with
  | Some run ->
      Metrics.register
        ~labels:[ ("server", Node.name t.node) ]
        run
        ~name:(Node.name t.node ^ ".srv.qdepth")
        ~unit_:"count" ~kind:Metrics.Gauge
        (fun () -> float_of_int (Udp.pending sock))
  | None -> ());
  for _ = 1 to nfsd_count do
    Proc.spawn (Node.sim t.node) (fun () ->
        let rec serve () =
          let dg = Udp.recv sock in
          (match
             handle_message t ~arrived_at:dg.Udp.arrived_at dg.Udp.payload
               ~src:dg.Udp.src ~src_port:dg.Udp.src_port
           with
          | Some reply -> Udp.sendto sock ~dst:dg.Udp.src ~dst_port:dg.Udp.src_port reply
          | None -> ());
          (* The request chain is fully decoded (every extracted value is
             a fresh copy, or lent data that release leaves alone) and
             any cached reply was copied, so this worker is done with
             it: drop its references to the storage the client's
             encoder allocated. *)
          Mbuf.release ?pool:(Node.pool t.node) dg.Udp.payload;
          serve ()
        in
        serve ())
  done

let start_tcp t stack =
  (* Each connection gets a reader that reassembles records; requests are
     served by up to [nfsd_count] concurrent workers per connection. *)
  Tcp.listen stack ~port:P.port (fun conn ->
      let sim = Node.sim t.node in
      let slots = Proc.Semaphore.create sim nfsd_count in
      let reader = Record_mark.Reader.create () in
      let rec pump () =
        match Tcp.recv conn ~max:65536 with
        | chunk ->
            Record_mark.Reader.push reader chunk;
            let rec drain () =
              match Record_mark.Reader.pop reader with
              | Some record ->
                  Proc.spawn sim (fun () ->
                      Proc.Semaphore.acquire slots;
                      if not t.up then
                        (* A down host's TCP answers with a reset. *)
                        Tcp.abort conn
                      else begin
                        (* Duplicate-cache identity must be per
                           connection: xids from different clients
                           collide. *)
                        match
                          handle_message t record ~src:(Tcp.peer conn)
                            ~src_port:(Tcp.peer_port conn)
                        with
                        | Some reply -> (
                            try Tcp.send conn (Record_mark.frame reply)
                            with Tcp.Connection_closed -> ())
                        | None -> ()
                      end;
                      Proc.Semaphore.release slots);
                  drain ()
              | None -> ()
            in
            (* A corrupt record mark means this connection's framing is
               unrecoverable: reset it, as a real server's RPC layer
               does; the client reconnects and replays. *)
            (match drain () with
            | () -> pump ()
            | exception Record_mark.Reader.Corrupt _ -> Tcp.abort conn)
        | exception Tcp.Connection_closed -> ()
      in
      pump ())

let start t =
  start_udp t;
  match t.tcp with Some stack -> start_tcp t stack | None -> ()
