module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Node = Renofs_net.Node
module Udp = Renofs_transport.Udp
module Fs = Renofs_vfs.Fs
module MP = Mount_proto

(* Resolve an exported path to a file handle by walking the server's
   filesystem directly (mountd runs on the server host). *)
let resolve server path =
  let fs = Nfs_server.fs server in
  let components =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")
  in
  try
    let v = List.fold_left (fun dir c -> Fs.lookup fs dir c) (Fs.root fs) components in
    MP.Mnt_ok (Fs.ino v)
  with Fs.Err Fs.Enoent -> MP.Mnt_error 2 (* ENOENT *)
     | Fs.Err Fs.Enotdir -> MP.Mnt_error 20

let execute server : MP.call -> MP.reply = function
  | MP.Mnt_null -> MP.Rmnt_null
  | MP.Mnt path -> MP.Rmnt (resolve server path)

let start server =
  let node = Nfs_server.node server in
  let sock = Udp.bind (Nfs_server.udp_stack server) ~port:MP.port in
  Proc.spawn (Node.sim node) (fun () ->
      let rec serve () =
        let dg = Udp.recv sock in
        Cpu.consume (Node.cpu node)
          (Cpu.seconds_of_instructions (Node.cpu node) 500.0);
        (match Rpc_msg.decode_call dg.Udp.payload with
        | exception (Rpc_msg.Bad_message _ | Xdr.Decode_error _) -> ()
        | hdr, dec -> (
            match MP.decode_call ~proc:hdr.Rpc_msg.proc dec with
            | exception Xdr.Decode_error _ -> ()
            | call ->
                let reply = execute server call in
                let enc =
                  Rpc_msg.encode_reply ~xid:hdr.Rpc_msg.xid
                    (Rpc_msg.Accepted Rpc_msg.Success)
                in
                MP.encode_reply enc reply;
                Udp.sendto sock ~dst:dg.Udp.src ~dst_port:dg.Udp.src_port
                  (Xdr.Enc.chain enc)));
        serve ()
      in
      serve ())
