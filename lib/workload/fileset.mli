(** Test-subtree construction and preloading.

    The paper's appendix notes two Nhfsstone caveats this module
    implements: file names can be made long enough (> 31 characters) to
    defeat both client and server name caches, and the subtree must be
    preloaded with non-empty files before each run so reads do not hit
    empty files and bias the results. *)

type t = {
  dirs : string list;  (** directory paths, relative to the root *)
  files : string list;  (** file paths *)
  file_size : int;
}

val generate :
  dirs:int -> files_per_dir:int -> file_size:int -> long_names:bool -> t
(** Deterministic layout: [dirs] directories of [files_per_dir] files.
    With [long_names], file names exceed the 31-character name-cache
    limit (the Nhfsstone trick). *)

val preload_server : Renofs_core.Nfs_server.t -> t -> unit
(** Create the tree directly in the server's backing store, bypassing
    the wire, and fill every file with {!content}.  Every whole chunk
    ({!Renofs_vfs.Fs.chunk_size}) of a body is one of 256 pieces, one
    per {!content} base, each built once per process at its first
    preload in any domain.  {!Renofs_vfs.Fs.write_lent} lends them to
    the files, so every file, shard, server and world with one base
    shares one copy, which [Fs] copies before any change; a body's short
    tail is its own.  The writes pay the disk model's costs and advance
    simulated time as {!Renofs_vfs.Fs.write} does: about 112 simulated
    seconds for a graph5 cell's 400 16 KB files.  Everything else in
    the world (cross-traffic on a shared ring, for one) runs meanwhile,
    so call this before measurement starts.  Must run inside a
    process. *)

val preload_under : Renofs_core.Nfs_server.t -> path:string -> t -> unit
(** {!preload_server}, but rooted at [path] (["/home3"]-style export
    directory; created if absent) instead of the filesystem root — how
    fleet shards each get their own subtree.  Must run inside a
    process. *)

val content : path:string -> size:int -> bytes
(** The deterministic content every preloaded file holds; lets tests
    verify reads end-to-end.  It is {!periodic} with a base taken from
    the hash of [path] and a stride of 31, so it repeats every 256
    bytes. *)

val periodic : base:int -> stride:int -> size:int -> bytes
(** [size] bytes whose byte [i] is [(base + stride * i) land 255].  The
    sequence repeats every 256 bytes, so only the first period is
    computed byte by byte; the rest is block copies.  Every synthetic
    file body in the workloads comes from here. *)
