open Renofs_rpc
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr

let sample_cred =
  Rpc_msg.Auth_unix { stamp = 17; machine = "client1"; uid = 100; gid = 20 }

let sample_call proc =
  { Rpc_msg.xid = 0x1234l; prog = 100003; vers = 2; proc; cred = sample_cred }

let test_call_roundtrip () =
  let enc = Rpc_msg.encode_call (sample_call 6) in
  Xdr.Enc.int enc 8192;
  (* pretend argument *)
  let hdr, dec = Rpc_msg.decode_call (Xdr.Enc.chain enc) in
  Alcotest.(check int32) "xid" 0x1234l hdr.Rpc_msg.xid;
  Alcotest.(check int) "prog" 100003 hdr.Rpc_msg.prog;
  Alcotest.(check int) "vers" 2 hdr.Rpc_msg.vers;
  Alcotest.(check int) "proc" 6 hdr.Rpc_msg.proc;
  (match hdr.Rpc_msg.cred with
  | Rpc_msg.Auth_unix { machine; uid; gid; _ } ->
      Alcotest.(check string) "machine" "client1" machine;
      Alcotest.(check int) "uid" 100 uid;
      Alcotest.(check int) "gid" 20 gid
  | Rpc_msg.Auth_null -> Alcotest.fail "expected AUTH_UNIX");
  Alcotest.(check int) "args follow" 8192 (Xdr.Dec.int dec)

let test_call_auth_null () =
  let hdr = { (sample_call 1) with Rpc_msg.cred = Rpc_msg.Auth_null } in
  let enc = Rpc_msg.encode_call hdr in
  let got, _ = Rpc_msg.decode_call (Xdr.Enc.chain enc) in
  Alcotest.(check bool) "auth null" true (got.Rpc_msg.cred = Rpc_msg.Auth_null)

let test_reply_success () =
  let enc = Rpc_msg.encode_reply ~xid:7l (Rpc_msg.Accepted Rpc_msg.Success) in
  Xdr.Enc.int enc 0;
  (* NFS_OK status as result *)
  let xid, status, dec = Rpc_msg.decode_reply (Xdr.Enc.chain enc) in
  Alcotest.(check int32) "xid" 7l xid;
  (match status with
  | Rpc_msg.Accepted Rpc_msg.Success -> ()
  | _ -> Alcotest.fail "expected success");
  Alcotest.(check int) "results follow" 0 (Xdr.Dec.int dec)

let test_reply_errors () =
  let cases =
    [
      Rpc_msg.Accepted Rpc_msg.Prog_unavail;
      Rpc_msg.Accepted (Rpc_msg.Prog_mismatch { low = 2; high = 2 });
      Rpc_msg.Accepted Rpc_msg.Proc_unavail;
      Rpc_msg.Accepted Rpc_msg.Garbage_args;
      Rpc_msg.Accepted Rpc_msg.System_err;
      Rpc_msg.Denied Rpc_msg.Rpc_mismatch;
      Rpc_msg.Denied Rpc_msg.Auth_error;
    ]
  in
  List.iter
    (fun status ->
      let enc = Rpc_msg.encode_reply ~xid:9l status in
      let _, got, _ = Rpc_msg.decode_reply (Xdr.Enc.chain enc) in
      Alcotest.(check bool) "status roundtrip" true (got = status))
    cases

let test_call_is_not_reply () =
  let enc = Rpc_msg.encode_call (sample_call 1) in
  Alcotest.check_raises "call rejected as reply" (Rpc_msg.Bad_message "not a reply")
    (fun () -> ignore (Rpc_msg.decode_reply (Xdr.Enc.chain enc)))

let test_peek_xid () =
  let enc = Rpc_msg.encode_call (sample_call 4) in
  Alcotest.(check (option int32)) "peek" (Some 0x1234l)
    (Rpc_msg.peek_xid (Xdr.Enc.chain enc));
  Alcotest.(check (option int32)) "short chain" None (Rpc_msg.peek_xid (Mbuf.empty ()))

let test_garbage_rejected () =
  let chain = Mbuf.of_string "this is not an rpc message at all.." in
  match Rpc_msg.decode_call chain with
  | exception (Rpc_msg.Bad_message _ | Xdr.Decode_error _) -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* Truncation tables: every message type under every strict prefix.
   A truncated packet must surface as [Decode_error] (or [Bad_message]
   at the RPC layer) — never [Invalid_argument]/[Failure]/a bare
   [Underrun] — so the wire-corruption fault layer can only ever drive
   the GARBAGE_ARGS/drop/retransmit paths, not crash a peer.  A strict
   prefix that still decodes is fine: the missing tail was unread. *)

module Nfs_proto = Renofs_core.Nfs_proto
module Mount_proto = Renofs_core.Mount_proto

let check_prefixes ~what ~encode ~decode =
  let enc = Xdr.Enc.create () in
  encode enc;
  let whole = Mbuf.to_bytes (Xdr.Enc.chain enc) in
  for len = 0 to Bytes.length whole - 1 do
    let chain = Renofs_mbuf.Mbuf.of_bytes (Bytes.sub whole 0 len) in
    match decode chain with
    | _ -> ()
    | exception (Xdr.Decode_error _ | Rpc_msg.Bad_message _) -> ()
    | exception e ->
        Alcotest.failf "%s: %d-byte prefix raised %s" what len
          (Printexc.to_string e)
  done

let sample_fattr =
  {
    Nfs_proto.ftype = Nfs_proto.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 100;
    gid = 20;
    size = 4096;
    blocksize = 1024;
    rdev = 0;
    blocks = 8;
    fsid = 1;
    fileid = 42;
    atime = { Nfs_proto.seconds = 10; useconds = 0 };
    mtime = { Nfs_proto.seconds = 11; useconds = 0 };
    ctime = { Nfs_proto.seconds = 12; useconds = 0 };
  }

let sample_dirop = { Nfs_proto.dir = 7; name = "file.txt" }

let sample_sattr =
  { Nfs_proto.sattr_none with Nfs_proto.s_mode = 0o600; s_size = 100 }

let nfs_sample_calls =
  Nfs_proto.
    [
      Null;
      Getattr 7;
      Setattr (7, sample_sattr);
      Lookup sample_dirop;
      Readlink 7;
      Read { read_file = 7; offset = 0; count = 8192 };
      Write { write_file = 7; write_offset = 1024; data = Bytes.make 100 'w' };
      Create { where = sample_dirop; attributes = sample_sattr };
      Remove sample_dirop;
      Rename { from_dir = sample_dirop; to_dir = { dir = 8; name = "new" } };
      Link { link_from = 7; link_to = sample_dirop };
      Symlink
        { sym_where = sample_dirop; sym_target = "/tmp/t"; sym_attr = sample_sattr };
      Mkdir { where = sample_dirop; attributes = sample_sattr };
      Rmdir sample_dirop;
      Readdir { rd_dir = 7; cookie = 0; rd_count = 512 };
      Statfs 7;
      Readdirlook { rd_dir = 7; cookie = 0; rd_count = 512 };
      Getlease { lease_file = 7; lease_mode = Lease_read; lease_duration = 30 };
    ]

let nfs_sample_replies =
  Nfs_proto.
    [
      (0, Rnull);
      (1, Rattr (Ok sample_fattr));
      (1, Rattr (Error NFSERR_STALE));
      (4, Rdirop (Ok (7, sample_fattr)));
      (5, Rreadlink (Ok "/target"));
      (6, Rread (Ok (sample_fattr, Bytes.make 64 'r')));
      (10, Rstat NFS_OK);
      ( 16,
        Rreaddir
          (Ok ([ { fileid = 3; entry_name = "a"; entry_cookie = 1 } ], true)) );
      ( 17,
        Rstatfs
          (Ok
             {
               tsize = 8192;
               bsize = 1024;
               blocks_total = 1000;
               blocks_free = 500;
               blocks_avail = 400;
             }) );
      ( 18,
        Rreaddirlook
          (Ok
             ( [
                 {
                   le_entry = { fileid = 3; entry_name = "a"; entry_cookie = 1 };
                   le_file = 3;
                   le_attr = sample_fattr;
                 };
               ],
               true )) );
      (19, Rlease (Ok (Some { granted_duration = 30; lease_attr = sample_fattr })));
      (19, Rlease (Ok None));
    ]

let mount_sample_calls =
  Mount_proto.[ Mnt_null; Mnt "/export" ]

let mount_sample_replies =
  Mount_proto.
    [
      (0, Rmnt_null);
      (1, Rmnt (Mnt_ok 7));
      (1, Rmnt (Mnt_error 13));
    ]

let test_nfs_truncation () =
  List.iter
    (fun call ->
      let proc = Nfs_proto.proc_of_call call in
      check_prefixes
        ~what:("nfs call " ^ Nfs_proto.proc_name proc)
        ~encode:(fun enc -> Nfs_proto.encode_call enc call)
        ~decode:(fun chain ->
          ignore (Nfs_proto.decode_call ~proc (Xdr.Dec.create chain))))
    nfs_sample_calls;
  List.iter
    (fun (proc, reply) ->
      check_prefixes
        ~what:("nfs reply " ^ Nfs_proto.proc_name proc)
        ~encode:(fun enc -> Nfs_proto.encode_reply enc reply)
        ~decode:(fun chain ->
          ignore (Nfs_proto.decode_reply ~proc (Xdr.Dec.create chain))))
    nfs_sample_replies

let test_mount_truncation () =
  List.iter
    (fun call ->
      let proc = Mount_proto.proc_of_call call in
      check_prefixes
        ~what:(Printf.sprintf "mount call %d" proc)
        ~encode:(fun enc -> Mount_proto.encode_call enc call)
        ~decode:(fun chain ->
          ignore (Mount_proto.decode_call ~proc (Xdr.Dec.create chain))))
    mount_sample_calls;
  List.iter
    (fun (proc, reply) ->
      check_prefixes
        ~what:(Printf.sprintf "mount reply %d" proc)
        ~encode:(fun enc -> Mount_proto.encode_reply enc reply)
        ~decode:(fun chain ->
          ignore (Mount_proto.decode_reply ~proc (Xdr.Dec.create chain))))
    mount_sample_replies

let test_rpc_truncation () =
  check_prefixes ~what:"rpc call header"
    ~encode:(fun enc ->
      Xdr.Enc.append_chain enc
        (Xdr.Enc.chain (Rpc_msg.encode_call (sample_call 6))))
    ~decode:(fun chain -> ignore (Rpc_msg.decode_call chain));
  List.iter
    (fun status ->
      check_prefixes ~what:"rpc reply header"
        ~encode:(fun enc ->
          Xdr.Enc.append_chain enc
            (Xdr.Enc.chain (Rpc_msg.encode_reply ~xid:9l status)))
        ~decode:(fun chain -> ignore (Rpc_msg.decode_reply chain)))
    [
      Rpc_msg.Accepted Rpc_msg.Success;
      Rpc_msg.Accepted (Rpc_msg.Prog_mismatch { low = 2; high = 2 });
      Rpc_msg.Denied Rpc_msg.Auth_error;
    ]

(* Record marking *)

let test_frame_shape () =
  let body = Mbuf.of_string "abcd" in
  let framed = Record_mark.frame body in
  Alcotest.(check int) "marker + body" 8 (Mbuf.length framed);
  let b = Mbuf.to_bytes framed in
  let word = Int32.to_int (Bytes.get_int32_be b 0) land 0xFFFFFFFF in
  Alcotest.(check bool) "last flag" true (word land 0x80000000 <> 0);
  Alcotest.(check int) "length" 4 (word land 0x7FFFFFFF)

let test_reader_single_record () =
  let r = Record_mark.Reader.create () in
  Record_mark.Reader.push r (Record_mark.frame (Mbuf.of_string "hello"));
  (match Record_mark.Reader.pop r with
  | Some rec_ -> Alcotest.(check string) "record" "hello" (Bytes.to_string (Mbuf.to_bytes rec_))
  | None -> Alcotest.fail "no record");
  Alcotest.(check bool) "drained" true (Record_mark.Reader.pop r = None)

let test_reader_partial_then_complete () =
  let r = Record_mark.Reader.create () in
  let framed = Record_mark.frame (Mbuf.of_string "0123456789") in
  let first, second = Mbuf.split framed 6 in
  Record_mark.Reader.push r first;
  Alcotest.(check bool) "incomplete" true (Record_mark.Reader.pop r = None);
  Record_mark.Reader.push r second;
  match Record_mark.Reader.pop r with
  | Some rec_ ->
      Alcotest.(check string) "assembled" "0123456789"
        (Bytes.to_string (Mbuf.to_bytes rec_))
  | None -> Alcotest.fail "no record after completion"

let test_reader_back_to_back () =
  let r = Record_mark.Reader.create () in
  let joined = Record_mark.frame (Mbuf.of_string "first") in
  Mbuf.append_chain joined (Record_mark.frame (Mbuf.of_string "second!"));
  Record_mark.Reader.push r joined;
  let pop_str () =
    match Record_mark.Reader.pop r with
    | Some c -> Bytes.to_string (Mbuf.to_bytes c)
    | None -> Alcotest.fail "expected record"
  in
  Alcotest.(check string) "first" "first" (pop_str ());
  Alcotest.(check string) "second" "second!" (pop_str ());
  Alcotest.(check bool) "no extra" true (Record_mark.Reader.pop r = None)

(* A corrupt length word must raise [Corrupt] promptly, not leave the
   reader buffering toward 2 GB (or spinning on a zero-length
   fragment). *)
let test_reader_rejects_hostile_lengths () =
  let feed word =
    let r = Record_mark.Reader.create () in
    let b = Mbuf.empty () in
    Mbuf.add_u32 b word;
    Record_mark.Reader.push r b;
    match Record_mark.Reader.pop r with
    | exception Record_mark.Reader.Corrupt _ -> ()
    | _ -> Alcotest.failf "length word %x accepted" word
  in
  feed 0x80000000;
  (* a 2 GB claim *)
  feed 0xFFFFFFFF;
  (* just above the sane-fragment cap *)
  feed (0x80000000 lor (2 lsl 20))

let prop_reader_chunking =
  QCheck.Test.make ~name:"record reader handles arbitrary chunking" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (string_of_size Gen.(int_range 1 2000)))
        (list_of_size Gen.(int_range 1 30) (int_range 1 700)))
    (fun (messages, chunk_sizes) ->
      (* Frame all messages into one stream, then feed it in odd chunks. *)
      let stream = Mbuf.empty () in
      List.iter
        (fun m -> Mbuf.append_chain stream (Record_mark.frame (Mbuf.of_string m)))
        messages;
      let reader = Record_mark.Reader.create () in
      let received = ref [] in
      let drain () =
        let rec go () =
          match Record_mark.Reader.pop reader with
          | Some r ->
              received := Bytes.to_string (Mbuf.to_bytes r) :: !received;
              go ()
          | None -> ()
        in
        go ()
      in
      let rec feed stream sizes =
        if Mbuf.length stream > 0 then begin
          let n, rest_sizes =
            match sizes with
            | s :: rest -> (min s (Mbuf.length stream), rest)
            | [] -> (Mbuf.length stream, [])
          in
          let chunk, rest = Mbuf.split stream n in
          Record_mark.Reader.push reader chunk;
          drain ();
          feed rest rest_sizes
        end
      in
      feed stream chunk_sizes;
      List.rev !received = messages)

let prop_rpc_call_roundtrip =
  QCheck.Test.make ~name:"rpc call header roundtrip" ~count:200
    QCheck.(quad (map Int32.of_int int) (int_bound 20) (int_bound 1000) (string_of_size (Gen.int_bound 30)))
    (fun (xid, proc, uid, machine) ->
      let hdr =
        {
          Rpc_msg.xid;
          prog = 100003;
          vers = 2;
          proc;
          cred = Rpc_msg.Auth_unix { stamp = 1; machine; uid; gid = uid + 1 };
        }
      in
      let enc = Rpc_msg.encode_call hdr in
      let got, dec = Rpc_msg.decode_call (Xdr.Enc.chain enc) in
      got = hdr && Xdr.Dec.remaining dec = 0)

let () =
  Alcotest.run "rpc"
    [
      ( "messages",
        [
          Alcotest.test_case "call roundtrip" `Quick test_call_roundtrip;
          Alcotest.test_case "auth null" `Quick test_call_auth_null;
          Alcotest.test_case "reply success" `Quick test_reply_success;
          Alcotest.test_case "reply errors" `Quick test_reply_errors;
          Alcotest.test_case "call is not reply" `Quick test_call_is_not_reply;
          Alcotest.test_case "peek xid" `Quick test_peek_xid;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "rpc headers" `Quick test_rpc_truncation;
          Alcotest.test_case "nfs calls and replies" `Quick test_nfs_truncation;
          Alcotest.test_case "mount calls and replies" `Quick test_mount_truncation;
        ] );
      ( "record-marking",
        [
          Alcotest.test_case "frame shape" `Quick test_frame_shape;
          Alcotest.test_case "single record" `Quick test_reader_single_record;
          Alcotest.test_case "partial then complete" `Quick test_reader_partial_then_complete;
          Alcotest.test_case "back to back" `Quick test_reader_back_to_back;
          Alcotest.test_case "hostile length words" `Quick
            test_reader_rejects_hostile_lengths;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reader_chunking; prop_rpc_call_roundtrip ] );
    ]
