(** An in-memory Unix filesystem with kernel-shaped cost behaviour.

    Data is real (reads return what writes stored), while timing flows
    through the {!Bcache}, {!Namecache} and {!Disk} models: directory
    scans cost CPU per entry, block misses cost disk I/Os, and
    synchronous metadata updates cost the 1-3 disk writes per operation
    that make NFS server writes expensive.  The same filesystem serves as
    the NFS server's backing store and as the "Local" baseline in the
    Create-Delete benchmark (Table 5). *)

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
      (** push data blocks to disk before returning, as a stateless NFS
          server must *)
}
(** Every configuration has a 256-buffer cache of 8K blocks and writes
    inode and directory updates synchronously (both NFS servers and
    local FFS do). *)

val reno_config : config
(** Vnode-chained buffers, name cache on, synchronous writes. *)

val local_config : config
(** {!reno_config} with delayed data writes — local FFS behaviour, the
    "Local" baseline of Table 5. *)

type t
type vnode

val create :
  Renofs_engine.Sim.t ->
  Renofs_engine.Cpu.t ->
  Disk.t ->
  config ->
  t

val root : t -> vnode
val ino : vnode -> int

val vnode_by_ino : t -> int -> vnode
(** File-handle resolution; raises [Err Estale] for dead inodes. *)

val getattr : t -> vnode -> attrs

val setattr :
  t ->
  vnode ->
  ?mode:int ->
  ?uid:int ->
  ?gid:int ->
  ?size:int ->
  ?mtime:float ->
  unit ->
  attrs

val lookup : t -> vnode -> string -> vnode
(** One pathname component.  Consults the name cache (if configured),
    then scans the directory through the buffer cache. *)

val chunk_size : int
(** 8192: a regular file's bytes are held in chunks of this size, the
    unit {!read} and {!write_lent} share. *)

val read : t -> vnode -> off:int -> len:int -> bytes
(** Short reads at EOF, and an empty result at or past it; raises
    [Err Eisdir] on directories.  The result may share the file's
    storage (a read of one whole aligned chunk returns the chunk itself,
    which the NFS server lends to its READ reply and a client may keep
    as its cached block) and must not be mutated; later writes,
    truncations and extensions never change it. *)

val write : t -> vnode -> off:int -> bytes -> unit

val write_lent : t -> vnode -> off:int -> bytes list -> unit
(** {!write} of the pieces' concatenation, at the same cost and in the
    same simulated time, but storing by reference where it can: a piece
    of exactly {!chunk_size} bytes that starts on a chunk boundary of the
    file becomes the file's storage there, and is copied before any
    write, truncation or extension changes it.  Every other piece is
    copied.  The caller must never mutate a piece afterwards; one piece
    may be lent to any number of files, filesystems and domains at once.
    The preload lends shared file bodies this way, and the NFS server
    the data of every WRITE, which may be the writing client's own
    cached block. *)

val create_file :
  t -> dir:vnode -> string -> mode:int -> ?uid:int -> ?gid:int -> unit -> vnode

val mkdir :
  t -> dir:vnode -> string -> mode:int -> ?uid:int -> ?gid:int -> unit -> vnode

val symlink :
  t -> dir:vnode -> string -> target:string -> ?uid:int -> ?gid:int -> unit -> unit
val readlink : t -> vnode -> string
val remove : t -> dir:vnode -> string -> unit
val rmdir : t -> dir:vnode -> string -> unit
val rename : t -> src_dir:vnode -> string -> dst_dir:vnode -> string -> unit
val link : t -> src:vnode -> dir:vnode -> string -> unit

val readdir : t -> vnode -> cookie:int -> count:int -> (string * int) list * bool
(** Entries from [cookie], at most [count]; [true] when the listing is
    complete.  The next cookie is [cookie + length returned]. *)

type fsstat = { total_blocks : int; free_blocks : int; block_size : int }

val statfs : t -> fsstat

val namecache : t -> Namecache.t option

val fsck : t -> string list
(** Invariant check, fsck-style: every directory entry points at a live
    inode; every live inode is reachable from the root (or still has
    links); link counts match reference counts; directory parents are
    consistent.  Returns human-readable violations (empty = clean). *)
