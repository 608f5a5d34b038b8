module Xdr = Renofs_xdr.Xdr

let program = 100005
let version = 1
let port = 635
let max_path = 1024

type call = Mnt_null | Mnt of string

type mnt_status = Mnt_ok of Nfs_proto.fhandle | Mnt_error of int

type reply = Rmnt_null | Rmnt of mnt_status

let proc_of_call = function Mnt_null -> 0 | Mnt _ -> 1

(* File handles share the NFS 32-byte representation. *)
let enc_fhandle enc fh =
  let b = Bytes.make Nfs_proto.fhandle_size '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int fh);
  Xdr.Enc.opaque_fixed enc b

let dec_fhandle dec =
  let b = Xdr.Dec.opaque_fixed dec Nfs_proto.fhandle_size in
  Int32.to_int (Bytes.get_int32_be b 0) land 0xFFFFFFFF

let encode_call enc = function
  | Mnt_null -> ()
  | Mnt path -> Xdr.Enc.string enc path

let decode_call ~proc dec =
  match proc with
  | 0 -> Mnt_null
  | 1 -> Mnt (Xdr.Dec.string dec ~max:max_path)
  | n -> raise (Xdr.Decode_error (Printf.sprintf "unknown MOUNT procedure %d" n))

let encode_reply enc = function
  | Rmnt_null -> ()
  | Rmnt (Mnt_ok fh) ->
      Xdr.Enc.enum enc 0;
      enc_fhandle enc fh
  | Rmnt (Mnt_error errno) -> Xdr.Enc.enum enc errno

let decode_reply ~proc dec =
  match proc with
  | 0 -> Rmnt_null
  | 1 -> (
      match Xdr.Dec.enum dec with
      | 0 -> Rmnt (Mnt_ok (dec_fhandle dec))
      | errno -> Rmnt (Mnt_error errno))
  | n -> raise (Xdr.Decode_error (Printf.sprintf "unknown MOUNT procedure %d" n))
