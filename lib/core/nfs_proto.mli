(** The NFS version 2 protocol (RFC 1094), plus experimental
    extensions.

    Wire-faithful XDR encoding and decoding of every procedure's
    arguments and results, built directly in mbuf chains.  The first
    extension is the [Readdirlook] procedure the paper's Future
    Directions sketches ("a way of doing many name lookups per RPC,
    possibly by adding a readdir_and_lookup_files RPC"): a READDIR that
    also returns each entry's file handle and attributes — NFSv3's
    READDIRPLUS, five years early.  It is off unless a client asks for
    it.

    The v3 profile adds the asynchronous-write pair that shipped in
    NFSv3: [Write3] with a {!stable_how} stability demand and a
    per-boot write verifier in the reply, and [Commit] to make buffered
    unstable data durable — plus 32K-class transfers ({!max_data_v3}).
    The verifier contract: a server may acknowledge an UNSTABLE write
    before touching stable storage, but must return a verifier that
    changes whenever buffered data could have been lost (i.e. per
    boot); a client holding unstable writes that sees the verifier
    change must rewrite those ranges before reporting close/fsync
    success. *)

val program : int
(** 100003. *)

val version : int
(** 2. *)

val port : int
(** 2049. *)

val max_data : int
(** 8192, the largest v2 read/write transfer. *)

val max_data_v3 : int
(** 32768, the largest transfer under the v3 profile. *)

val fhandle_size : int
(** 32 bytes. *)

type fhandle = int
(** Opaque to clients; our servers put the inode number inside.  Encoded
    as the full 32-byte opaque on the wire. *)

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

type ftype = NFNON | NFREG | NFDIR | NFBLK | NFCHR | NFLNK

type time = { seconds : int; useconds : int }

val time_of_float : float -> time
val float_of_time : time -> float

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

(** Settable attributes; [-1] fields are left unchanged, as on the wire. *)
type sattr = {
  s_mode : int;
  s_uid : int;
  s_gid : int;
  s_size : int;
  s_atime : time option;
  s_mtime : time option;
}

val sattr_none : sattr

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

(** One entry of the experimental bulk-lookup reply: a directory entry
    plus its handle and attributes. *)
type lookent = { le_entry : entry; le_file : fhandle; le_attr : fattr }

(** The second experimental extension: short-duration cache leases, the
    crash- and partition-tolerant consistency protocol the paper's
    Future Directions calls for (and which 4.4BSD shipped as NQNFS).
    A read lease makes cached data valid without attribute checks; a
    write lease makes {e delayed write without push on close} safe.
    Leases are never revoked by callback — they expire, and a holder
    whose lease is contested is simply refused renewal, so server
    crashes and partitions heal by timeout. *)
type lease_mode = Lease_read | Lease_write

type leaseargs = {
  lease_file : fhandle;
  lease_mode : lease_mode;
  lease_duration : int;  (** seconds requested *)
}

type leaseok = {
  granted_duration : int;
  lease_attr : fattr;  (** current attributes, so a grant refreshes caches *)
}

(** v3-style write stability: [Unstable] lets the server reply before
    the data reaches stable storage, [Data_sync]/[File_sync] do not. *)
type stable_how = Unstable | Data_sync | File_sync

type write3args = {
  w3_file : fhandle;
  w3_offset : int;
  w3_stable : stable_how;
  w3_data : bytes;
}

type commitargs = {
  cm_file : fhandle;
  cm_offset : int;
  cm_count : int;  (** 0 = from [cm_offset] to end of file *)
}

type write3ok = {
  w3_attr : fattr;
  w3_count : int;
  w3_committed : stable_how;
      (** the stability actually achieved (may exceed the request) *)
  w3_verf : int;  (** the server's per-boot write verifier *)
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
  | Rattr of (fattr, stat) result  (** getattr, setattr, write *)
  | Rdirop of (fhandle * fattr, stat) result  (** lookup, create, mkdir *)
  | Rreadlink of (string, stat) result
  | Rread of (fattr * bytes, stat) result
  | Rstat of stat  (** remove, rename, link, symlink, rmdir *)
  | Rreaddir of (entry list * bool, stat) result
  | Rstatfs of (statfsok, stat) result
  | Rreaddirlook of (lookent list * bool, stat) result
  | Rlease of (leaseok option, stat) result
      (** [Ok None] = vacate: the lease is contested and will not be
          renewed; flush and stop caching *)
  | Rwrite3 of (write3ok, stat) result
  | Rcommit of (commitok, stat) result

val proc_of_call : call -> int
(** The procedure number, below {!n_procs}. *)

val n_procs : int
(** 22: procedures 0 to 21, NFSv2's 18 and the four extensions. *)

val proc_name : int -> string
(** e.g. "read", "lookup"; "proc22" for unknown numbers.
    {!Renofs_trace.Trace.proc_name}'s table. *)

val error_reply : call -> stat -> reply
(** The failed reply to [call]: its procedure's result carrying [stat]
    ([Rnull] for [Null], which cannot fail). *)

val is_idempotent : int -> bool
(** Getattr/lookup/read-style procedures may be repeated harmlessly;
    remove/create/rename-style ones may not [Juszczak89]. *)

val encode_call : Renofs_xdr.Xdr.Enc.t -> call -> unit

val decode_call : proc:int -> Renofs_xdr.Xdr.Dec.t -> call
(** Raises [Xdr.Decode_error] on malformed input or unknown [proc]. *)

val encode_reply : Renofs_xdr.Xdr.Enc.t -> reply -> unit

val decode_reply : proc:int -> Renofs_xdr.Xdr.Dec.t -> reply
