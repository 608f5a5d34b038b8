(** The mount daemon: serves the {!Mount_proto} program next to an NFS
    server, translating exported path names into file handles. *)

val start : Nfs_server.t -> unit
(** Bind port 635 on the server's UDP stack and serve forever. *)
