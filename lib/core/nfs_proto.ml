module Xdr = Renofs_xdr.Xdr

let program = 100003
let version = 2
let port = 2049
let max_data = 8192
let max_data_v3 = 32768
let fhandle_size = 32
let max_name = 255
let max_path = 1024

type fhandle = int

type stat =
  | NFS_OK
  | NFSERR_PERM
  | NFSERR_NOENT
  | NFSERR_IO
  | NFSERR_ACCES
  | NFSERR_EXIST
  | NFSERR_NOTDIR
  | NFSERR_ISDIR
  | NFSERR_FBIG
  | NFSERR_NOSPC
  | NFSERR_NAMETOOLONG
  | NFSERR_NOTEMPTY
  | NFSERR_STALE

let int_of_stat = function
  | NFS_OK -> 0
  | NFSERR_PERM -> 1
  | NFSERR_NOENT -> 2
  | NFSERR_IO -> 5
  | NFSERR_ACCES -> 13
  | NFSERR_EXIST -> 17
  | NFSERR_NOTDIR -> 20
  | NFSERR_ISDIR -> 21
  | NFSERR_FBIG -> 27
  | NFSERR_NOSPC -> 28
  | NFSERR_NAMETOOLONG -> 63
  | NFSERR_NOTEMPTY -> 66
  | NFSERR_STALE -> 70

let stat_of_int = function
  | 0 -> NFS_OK
  | 1 -> NFSERR_PERM
  | 2 -> NFSERR_NOENT
  | 5 -> NFSERR_IO
  | 13 -> NFSERR_ACCES
  | 17 -> NFSERR_EXIST
  | 20 -> NFSERR_NOTDIR
  | 21 -> NFSERR_ISDIR
  | 27 -> NFSERR_FBIG
  | 28 -> NFSERR_NOSPC
  | 63 -> NFSERR_NAMETOOLONG
  | 66 -> NFSERR_NOTEMPTY
  | 70 -> NFSERR_STALE
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad nfsstat %d" n))

type ftype = NFNON | NFREG | NFDIR | NFBLK | NFCHR | NFLNK

let int_of_ftype = function
  | NFNON -> 0
  | NFREG -> 1
  | NFDIR -> 2
  | NFBLK -> 3
  | NFCHR -> 4
  | NFLNK -> 5

let ftype_of_int = function
  | 0 -> NFNON
  | 1 -> NFREG
  | 2 -> NFDIR
  | 3 -> NFBLK
  | 4 -> NFCHR
  | 5 -> NFLNK
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad ftype %d" n))

type time = { seconds : int; useconds : int }

let time_of_float f =
  let s = int_of_float f in
  { seconds = s; useconds = int_of_float ((f -. float_of_int s) *. 1e6) }

let float_of_time t = float_of_int t.seconds +. (float_of_int t.useconds /. 1e6)

type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  blocksize : int;
  rdev : int;
  blocks : int;
  fsid : int;
  fileid : int;
  atime : time;
  mtime : time;
  ctime : time;
}

type sattr = {
  s_mode : int;
  s_uid : int;
  s_gid : int;
  s_size : int;
  s_atime : time option;
  s_mtime : time option;
}

let sattr_none =
  { s_mode = -1; s_uid = -1; s_gid = -1; s_size = -1; s_atime = None; s_mtime = None }

type diropargs = { dir : fhandle; name : string }
type readargs = { read_file : fhandle; offset : int; count : int }
type writeargs = { write_file : fhandle; write_offset : int; data : bytes }
type createargs = { where : diropargs; attributes : sattr }
type renameargs = { from_dir : diropargs; to_dir : diropargs }
type linkargs = { link_from : fhandle; link_to : diropargs }
type symlinkargs = { sym_where : diropargs; sym_target : string; sym_attr : sattr }
type readdirargs = { rd_dir : fhandle; cookie : int; rd_count : int }
type entry = { fileid : int; entry_name : string; entry_cookie : int }

type statfsok = {
  tsize : int;
  bsize : int;
  blocks_total : int;
  blocks_free : int;
  blocks_avail : int;
}

type lookent = { le_entry : entry; le_file : fhandle; le_attr : fattr }

type lease_mode = Lease_read | Lease_write

type leaseargs = {
  lease_file : fhandle;
  lease_mode : lease_mode;
  lease_duration : int;
}

type leaseok = { granted_duration : int; lease_attr : fattr }

(* NFSv3-style asynchronous writes.  UNSTABLE lets the server buffer
   the data volatile; DATA_SYNC/FILE_SYNC demand stability before the
   reply.  The reply's [verf] is the server's per-boot write verifier:
   a change between an unstable WRITE and its covering COMMIT tells the
   client the buffer died in a crash and the range must be rewritten. *)
type stable_how = Unstable | Data_sync | File_sync

type write3args = {
  w3_file : fhandle;
  w3_offset : int;
  w3_stable : stable_how;
  w3_data : bytes;
}

type commitargs = { cm_file : fhandle; cm_offset : int; cm_count : int }
(** [cm_count = 0] commits from [cm_offset] to the end of the file. *)

type write3ok = {
  w3_attr : fattr;
  w3_count : int;
  w3_committed : stable_how;  (** may be stronger than requested *)
  w3_verf : int;
}

type commitok = { cmo_attr : fattr; cmo_verf : int }

type call =
  | Null
  | Getattr of fhandle
  | Setattr of fhandle * sattr
  | Lookup of diropargs
  | Readlink of fhandle
  | Read of readargs
  | Write of writeargs
  | Create of createargs
  | Remove of diropargs
  | Rename of renameargs
  | Link of linkargs
  | Symlink of symlinkargs
  | Mkdir of createargs
  | Rmdir of diropargs
  | Readdir of readdirargs
  | Statfs of fhandle
  | Readdirlook of readdirargs
  | Getlease of leaseargs
  | Write3 of write3args
  | Commit of commitargs

type reply =
  | Rnull
  | Rattr of (fattr, stat) result
  | Rdirop of (fhandle * fattr, stat) result
  | Rreadlink of (string, stat) result
  | Rread of (fattr * bytes, stat) result
  | Rstat of stat
  | Rreaddir of (entry list * bool, stat) result
  | Rstatfs of (statfsok, stat) result
  | Rreaddirlook of (lookent list * bool, stat) result
  | Rlease of (leaseok option, stat) result
  | Rwrite3 of (write3ok, stat) result
  | Rcommit of (commitok, stat) result

let proc_of_call = function
  | Null -> 0
  | Getattr _ -> 1
  | Setattr _ -> 2
  | Lookup _ -> 4
  | Readlink _ -> 5
  | Read _ -> 6
  | Write _ -> 8
  | Create _ -> 9
  | Remove _ -> 10
  | Rename _ -> 11
  | Link _ -> 12
  | Symlink _ -> 13
  | Mkdir _ -> 14
  | Rmdir _ -> 15
  | Readdir _ -> 16
  | Statfs _ -> 17
  | Readdirlook _ -> 18
  | Getlease _ -> 19
  | Write3 _ -> 20
  | Commit _ -> 21

let n_procs = 22
let proc_name = Renofs_trace.Trace.proc_name

let error_reply call stat =
  match call with
  | Null -> Rnull
  | Getattr _ | Setattr _ | Write _ -> Rattr (Error stat)
  | Lookup _ | Create _ | Mkdir _ -> Rdirop (Error stat)
  | Readlink _ -> Rreadlink (Error stat)
  | Read _ -> Rread (Error stat)
  | Remove _ | Rename _ | Link _ | Symlink _ | Rmdir _ -> Rstat stat
  | Readdir _ -> Rreaddir (Error stat)
  | Statfs _ -> Rstatfs (Error stat)
  | Readdirlook _ -> Rreaddirlook (Error stat)
  | Getlease _ -> Rlease (Error stat)
  | Write3 _ -> Rwrite3 (Error stat)
  | Commit _ -> Rcommit (Error stat)

(* COMMIT (21) is idempotent: re-flushing already-stable data changes
   nothing.  WRITE3 (20) is too in the overwrite sense, but is kept out
   of the list to match v2 WRITE's treatment in the duplicate cache. *)
let is_idempotent = function
  | 0 | 1 | 4 | 5 | 6 | 16 | 17 | 18 | 19 | 21 -> true
  | _ -> false

let int_of_stable_how = function Unstable -> 0 | Data_sync -> 1 | File_sync -> 2

let stable_how_of_int = function
  | 0 -> Unstable
  | 1 -> Data_sync
  | 2 -> File_sync
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad stable_how %d" n))

(* ------------------------------------------------------------------ *)
(* XDR pieces                                                         *)
(* ------------------------------------------------------------------ *)

let enc_fhandle enc fh =
  let b = Bytes.make fhandle_size '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int fh);
  Xdr.Enc.opaque_fixed enc b

let dec_fhandle dec =
  let b = Xdr.Dec.opaque_fixed dec fhandle_size in
  Int32.to_int (Bytes.get_int32_be b 0) land 0xFFFFFFFF

let enc_time enc t =
  Xdr.Enc.int enc t.seconds;
  Xdr.Enc.int enc t.useconds

let dec_time dec =
  let seconds = Xdr.Dec.int dec in
  let useconds = Xdr.Dec.int dec in
  { seconds; useconds }

let enc_fattr enc a =
  Xdr.Enc.enum enc (int_of_ftype a.ftype);
  Xdr.Enc.int enc a.mode;
  Xdr.Enc.int enc a.nlink;
  Xdr.Enc.int enc a.uid;
  Xdr.Enc.int enc a.gid;
  Xdr.Enc.int enc a.size;
  Xdr.Enc.int enc a.blocksize;
  Xdr.Enc.int enc a.rdev;
  Xdr.Enc.int enc a.blocks;
  Xdr.Enc.int enc a.fsid;
  Xdr.Enc.int enc a.fileid;
  enc_time enc a.atime;
  enc_time enc a.mtime;
  enc_time enc a.ctime

let dec_fattr dec =
  let ftype = ftype_of_int (Xdr.Dec.enum dec) in
  let mode = Xdr.Dec.int dec in
  let nlink = Xdr.Dec.int dec in
  let uid = Xdr.Dec.int dec in
  let gid = Xdr.Dec.int dec in
  let size = Xdr.Dec.int dec in
  let blocksize = Xdr.Dec.int dec in
  let rdev = Xdr.Dec.int dec in
  let blocks = Xdr.Dec.int dec in
  let fsid = Xdr.Dec.int dec in
  let fileid = Xdr.Dec.int dec in
  let atime = dec_time dec in
  let mtime = dec_time dec in
  let ctime = dec_time dec in
  { ftype; mode; nlink; uid; gid; size; blocksize; rdev; blocks; fsid; fileid;
    atime; mtime; ctime }

(* -1 on the wire means "do not set". *)
let enc_u32_or_neg enc v =
  if v < 0 then Xdr.Enc.u32 enc (-1l) else Xdr.Enc.int enc v

let dec_u32_or_neg dec =
  let v = Xdr.Dec.u32 dec in
  if v = -1l then -1 else Int32.to_int v land 0xFFFFFFFF

let enc_time_or_neg enc = function
  | Some t -> enc_time enc t
  | None ->
      Xdr.Enc.u32 enc (-1l);
      Xdr.Enc.u32 enc (-1l)

let dec_time_or_neg dec =
  let s = Xdr.Dec.u32 dec in
  let u = Xdr.Dec.u32 dec in
  if s = -1l then None
  else
    Some
      {
        seconds = Int32.to_int s land 0xFFFFFFFF;
        useconds = Int32.to_int u land 0xFFFFFFFF;
      }

let enc_sattr enc s =
  enc_u32_or_neg enc s.s_mode;
  enc_u32_or_neg enc s.s_uid;
  enc_u32_or_neg enc s.s_gid;
  enc_u32_or_neg enc s.s_size;
  enc_time_or_neg enc s.s_atime;
  enc_time_or_neg enc s.s_mtime

let dec_sattr dec =
  let s_mode = dec_u32_or_neg dec in
  let s_uid = dec_u32_or_neg dec in
  let s_gid = dec_u32_or_neg dec in
  let s_size = dec_u32_or_neg dec in
  let s_atime = dec_time_or_neg dec in
  let s_mtime = dec_time_or_neg dec in
  { s_mode; s_uid; s_gid; s_size; s_atime; s_mtime }

let enc_diropargs enc d =
  enc_fhandle enc d.dir;
  Xdr.Enc.string enc d.name

let dec_diropargs dec =
  let dir = dec_fhandle dec in
  let name = Xdr.Dec.string dec ~max:max_name in
  { dir; name }

(* ------------------------------------------------------------------ *)
(* Calls                                                              *)
(* ------------------------------------------------------------------ *)

let encode_call enc call =
  match call with
  | Null -> ()
  | Getattr fh | Readlink fh | Statfs fh -> enc_fhandle enc fh
  | Setattr (fh, s) ->
      enc_fhandle enc fh;
      enc_sattr enc s
  | Lookup d | Remove d | Rmdir d -> enc_diropargs enc d
  | Read r ->
      enc_fhandle enc r.read_file;
      Xdr.Enc.int enc r.offset;
      Xdr.Enc.int enc r.count;
      Xdr.Enc.int enc 0 (* totalcount, unused *)
  | Write w ->
      enc_fhandle enc w.write_file;
      Xdr.Enc.int enc 0 (* beginoffset, unused *);
      Xdr.Enc.int enc w.write_offset;
      Xdr.Enc.int enc 0 (* totalcount, unused *);
      Xdr.Enc.opaque enc w.data
  | Create c | Mkdir c ->
      enc_diropargs enc c.where;
      enc_sattr enc c.attributes
  | Rename r ->
      enc_diropargs enc r.from_dir;
      enc_diropargs enc r.to_dir
  | Link l ->
      enc_fhandle enc l.link_from;
      enc_diropargs enc l.link_to
  | Symlink s ->
      enc_diropargs enc s.sym_where;
      Xdr.Enc.string enc s.sym_target;
      enc_sattr enc s.sym_attr
  | Readdir r | Readdirlook r ->
      enc_fhandle enc r.rd_dir;
      Xdr.Enc.int enc r.cookie;
      Xdr.Enc.int enc r.rd_count
  | Getlease l ->
      enc_fhandle enc l.lease_file;
      Xdr.Enc.enum enc (match l.lease_mode with Lease_read -> 0 | Lease_write -> 1);
      Xdr.Enc.int enc l.lease_duration
  | Write3 w ->
      enc_fhandle enc w.w3_file;
      Xdr.Enc.int enc w.w3_offset;
      Xdr.Enc.int enc (Bytes.length w.w3_data);
      Xdr.Enc.enum enc (int_of_stable_how w.w3_stable);
      Xdr.Enc.opaque enc w.w3_data
  | Commit c ->
      enc_fhandle enc c.cm_file;
      Xdr.Enc.int enc c.cm_offset;
      Xdr.Enc.int enc c.cm_count

let decode_call ~proc dec =
  match proc with
  | 0 -> Null
  | 1 -> Getattr (dec_fhandle dec)
  | 2 ->
      let fh = dec_fhandle dec in
      Setattr (fh, dec_sattr dec)
  | 4 -> Lookup (dec_diropargs dec)
  | 5 -> Readlink (dec_fhandle dec)
  | 6 ->
      let read_file = dec_fhandle dec in
      let offset = Xdr.Dec.int dec in
      let count = Xdr.Dec.int dec in
      let _total = Xdr.Dec.int dec in
      (* v3 mounts read in 32K-class transfers over the same READ proc. *)
      if count > max_data_v3 then raise (Xdr.Decode_error "read count too large");
      Read { read_file; offset; count }
  | 8 ->
      let write_file = dec_fhandle dec in
      let _begin = Xdr.Dec.int dec in
      let write_offset = Xdr.Dec.int dec in
      let _total = Xdr.Dec.int dec in
      let data = Xdr.Dec.opaque dec ~max:max_data in
      Write { write_file; write_offset; data }
  | 9 ->
      let where = dec_diropargs dec in
      Create { where; attributes = dec_sattr dec }
  | 10 -> Remove (dec_diropargs dec)
  | 11 ->
      let from_dir = dec_diropargs dec in
      Rename { from_dir; to_dir = dec_diropargs dec }
  | 12 ->
      let link_from = dec_fhandle dec in
      Link { link_from; link_to = dec_diropargs dec }
  | 13 ->
      let sym_where = dec_diropargs dec in
      let sym_target = Xdr.Dec.string dec ~max:max_path in
      Symlink { sym_where; sym_target; sym_attr = dec_sattr dec }
  | 14 ->
      let where = dec_diropargs dec in
      Mkdir { where; attributes = dec_sattr dec }
  | 15 -> Rmdir (dec_diropargs dec)
  | 16 | 18 ->
      let rd_dir = dec_fhandle dec in
      let cookie = Xdr.Dec.int dec in
      let rd_count = Xdr.Dec.int dec in
      let args = { rd_dir; cookie; rd_count } in
      if proc = 16 then Readdir args else Readdirlook args
  | 17 -> Statfs (dec_fhandle dec)
  | 19 ->
      let lease_file = dec_fhandle dec in
      let lease_mode =
        match Xdr.Dec.enum dec with
        | 0 -> Lease_read
        | 1 -> Lease_write
        | n -> raise (Xdr.Decode_error (Printf.sprintf "bad lease mode %d" n))
      in
      let lease_duration = Xdr.Dec.int dec in
      Getlease { lease_file; lease_mode; lease_duration }
  | 20 ->
      let w3_file = dec_fhandle dec in
      let w3_offset = Xdr.Dec.int dec in
      let count = Xdr.Dec.int dec in
      let w3_stable = stable_how_of_int (Xdr.Dec.enum dec) in
      let w3_data = Xdr.Dec.opaque dec ~max:max_data_v3 in
      if count <> Bytes.length w3_data then
        raise (Xdr.Decode_error "write3 count does not match data");
      Write3 { w3_file; w3_offset; w3_stable; w3_data }
  | 21 ->
      let cm_file = dec_fhandle dec in
      let cm_offset = Xdr.Dec.int dec in
      let cm_count = Xdr.Dec.int dec in
      Commit { cm_file; cm_offset; cm_count }
  | n -> raise (Xdr.Decode_error (Printf.sprintf "unknown NFS procedure %d" n))

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

let enc_status enc st = Xdr.Enc.enum enc (int_of_stat st)

let enc_result enc r enc_ok =
  match r with
  | Ok v ->
      enc_status enc NFS_OK;
      enc_ok v
  | Error st -> enc_status enc st

let dec_result dec dec_ok =
  match stat_of_int (Xdr.Dec.enum dec) with
  | NFS_OK -> Ok (dec_ok ())
  | st -> Error st

let encode_reply enc reply =
  match reply with
  | Rnull -> ()
  | Rattr r -> enc_result enc r (fun a -> enc_fattr enc a)
  | Rdirop r ->
      enc_result enc r (fun (fh, a) ->
          enc_fhandle enc fh;
          enc_fattr enc a)
  | Rreadlink r -> enc_result enc r (fun s -> Xdr.Enc.string enc s)
  | Rread r ->
      enc_result enc r (fun (a, data) ->
          enc_fattr enc a;
          (* The data copy out of the buffer cache into mbufs, counted by
             the encoder's copy counters. *)
          Xdr.Enc.opaque enc data)
  | Rstat st -> enc_status enc st
  | Rreaddir r ->
      enc_result enc r (fun (entries, eof) ->
          List.iter
            (fun e ->
              Xdr.Enc.bool enc true;
              Xdr.Enc.int enc e.fileid;
              Xdr.Enc.string enc e.entry_name;
              Xdr.Enc.int enc e.entry_cookie)
            entries;
          Xdr.Enc.bool enc false;
          Xdr.Enc.bool enc eof)
  | Rstatfs r ->
      enc_result enc r (fun s ->
          Xdr.Enc.int enc s.tsize;
          Xdr.Enc.int enc s.bsize;
          Xdr.Enc.int enc s.blocks_total;
          Xdr.Enc.int enc s.blocks_free;
          Xdr.Enc.int enc s.blocks_avail)
  | Rreaddirlook r ->
      enc_result enc r (fun (ents, eof) ->
          List.iter
            (fun le ->
              Xdr.Enc.bool enc true;
              Xdr.Enc.int enc le.le_entry.fileid;
              Xdr.Enc.string enc le.le_entry.entry_name;
              Xdr.Enc.int enc le.le_entry.entry_cookie;
              enc_fhandle enc le.le_file;
              enc_fattr enc le.le_attr)
            ents;
          Xdr.Enc.bool enc false;
          Xdr.Enc.bool enc eof)
  | Rlease r ->
      enc_result enc r (fun granted ->
          match granted with
          | Some ok ->
              Xdr.Enc.bool enc true;
              Xdr.Enc.int enc ok.granted_duration;
              enc_fattr enc ok.lease_attr
          | None -> Xdr.Enc.bool enc false)
  | Rwrite3 r ->
      enc_result enc r (fun ok ->
          enc_fattr enc ok.w3_attr;
          Xdr.Enc.int enc ok.w3_count;
          Xdr.Enc.enum enc (int_of_stable_how ok.w3_committed);
          Xdr.Enc.int enc ok.w3_verf)
  | Rcommit r ->
      enc_result enc r (fun ok ->
          enc_fattr enc ok.cmo_attr;
          Xdr.Enc.int enc ok.cmo_verf)

let dec_entries dec dec_one =
  let rec go acc =
    if Xdr.Dec.bool dec then go (dec_one () :: acc) else List.rev acc
  in
  let entries = go [] in
  let eof = Xdr.Dec.bool dec in
  (entries, eof)

let decode_reply ~proc dec =
  match proc with
  | 0 -> Rnull
  | 1 | 2 | 8 -> Rattr (dec_result dec (fun () -> dec_fattr dec))
  | 4 | 9 | 14 ->
      Rdirop
        (dec_result dec (fun () ->
             let fh = dec_fhandle dec in
             (fh, dec_fattr dec)))
  | 5 -> Rreadlink (dec_result dec (fun () -> Xdr.Dec.string dec ~max:max_path))
  | 6 ->
      Rread
        (dec_result dec (fun () ->
             let a = dec_fattr dec in
             (* v3 mounts read in 32K-class transfers over the same
                READ proc, so replies carry up to [max_data_v3]. *)
             (a, Xdr.Dec.opaque dec ~max:max_data_v3)))
  | 10 | 11 | 12 | 13 | 15 -> Rstat (stat_of_int (Xdr.Dec.enum dec))
  | 16 ->
      Rreaddir
        (dec_result dec (fun () ->
             dec_entries dec (fun () ->
                 let fileid = Xdr.Dec.int dec in
                 let entry_name = Xdr.Dec.string dec ~max:max_name in
                 let entry_cookie = Xdr.Dec.int dec in
                 { fileid; entry_name; entry_cookie })))
  | 17 ->
      Rstatfs
        (dec_result dec (fun () ->
             let tsize = Xdr.Dec.int dec in
             let bsize = Xdr.Dec.int dec in
             let blocks_total = Xdr.Dec.int dec in
             let blocks_free = Xdr.Dec.int dec in
             let blocks_avail = Xdr.Dec.int dec in
             { tsize; bsize; blocks_total; blocks_free; blocks_avail }))
  | 18 ->
      Rreaddirlook
        (dec_result dec (fun () ->
             dec_entries dec (fun () ->
                 let fileid = Xdr.Dec.int dec in
                 let entry_name = Xdr.Dec.string dec ~max:max_name in
                 let entry_cookie = Xdr.Dec.int dec in
                 let le_file = dec_fhandle dec in
                 let le_attr = dec_fattr dec in
                 { le_entry = { fileid; entry_name; entry_cookie }; le_file; le_attr })))
  | 19 ->
      Rlease
        (dec_result dec (fun () ->
             if Xdr.Dec.bool dec then
               let granted_duration = Xdr.Dec.int dec in
               Some { granted_duration; lease_attr = dec_fattr dec }
             else None))
  | 20 ->
      Rwrite3
        (dec_result dec (fun () ->
             let w3_attr = dec_fattr dec in
             let w3_count = Xdr.Dec.int dec in
             let w3_committed = stable_how_of_int (Xdr.Dec.enum dec) in
             let w3_verf = Xdr.Dec.int dec in
             { w3_attr; w3_count; w3_committed; w3_verf }))
  | 21 ->
      Rcommit
        (dec_result dec (fun () ->
             let cmo_attr = dec_fattr dec in
             let cmo_verf = Xdr.Dec.int dec in
             { cmo_attr; cmo_verf }))
  | n -> raise (Xdr.Decode_error (Printf.sprintf "unknown NFS procedure %d" n))
