(** The MOUNT protocol (RFC 1094 Appendix A), program 100005.

    NFS itself has no way to turn a path name into an initial file
    handle — that is the mount protocol's job.  Our server registers it
    on the same UDP stack (port 635, as many systems did) and speaks the
    two procedures clients send: NULL, and MNT to obtain the file handle
    of an exported path.  DUMP, UMNT, UMNTALL and EXPORT are not
    modelled; a call to one of them fails to decode and is dropped. *)

val program : int
(** 100005. *)

val version : int
(** 1. *)

val port : int
(** 635. *)

type call = Mnt_null | Mnt of string  (** directory path -> file handle *)

type mnt_status = Mnt_ok of Nfs_proto.fhandle | Mnt_error of int

type reply = Rmnt_null | Rmnt of mnt_status

val proc_of_call : call -> int

val encode_call : Renofs_xdr.Xdr.Enc.t -> call -> unit
val decode_call : proc:int -> Renofs_xdr.Xdr.Dec.t -> call
val encode_reply : Renofs_xdr.Xdr.Enc.t -> reply -> unit
val decode_reply : proc:int -> Renofs_xdr.Xdr.Dec.t -> reply
