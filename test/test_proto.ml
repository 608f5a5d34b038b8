(* Wire-level tests for the NFSv2 protocol encoding: exhaustive
   call/reply roundtrips, golden byte layouts against RFC 1094, and
   malformed-input rejection. *)

open Renofs_core
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module P = Nfs_proto

let encode_call call =
  let enc = Xdr.Enc.create () in
  P.encode_call enc call;
  Xdr.Enc.chain enc

let roundtrip_call call =
  let chain = encode_call call in
  P.decode_call ~proc:(P.proc_of_call call) (Xdr.Dec.create chain)

let encode_reply reply =
  let enc = Xdr.Enc.create () in
  P.encode_reply enc reply;
  Xdr.Enc.chain enc

let roundtrip_reply ~proc reply =
  P.decode_reply ~proc (Xdr.Dec.create (encode_reply reply))

let sample_time = { P.seconds = 123456; useconds = 654321 }

let sample_fattr =
  {
    P.ftype = P.NFREG;
    mode = 0o644;
    nlink = 2;
    uid = 100;
    gid = 20;
    size = 8192;
    blocksize = 8192;
    rdev = 0;
    blocks = 16;
    fsid = 1;
    fileid = 42;
    atime = sample_time;
    mtime = sample_time;
    ctime = sample_time;
  }

let sample_sattr =
  { P.s_mode = 0o600; s_uid = 1; s_gid = 2; s_size = 100; s_atime = Some sample_time;
    s_mtime = None }

let all_calls =
  [
    P.Null;
    P.Getattr 7;
    P.Setattr (8, sample_sattr);
    P.Setattr (9, P.sattr_none);
    P.Lookup { P.dir = 2; name = "file.txt" };
    P.Readlink 11;
    P.Read { P.read_file = 12; offset = 16384; count = 8192 };
    P.Write { P.write_file = 13; write_offset = 4096; data = Bytes.make 1000 'w' };
    P.Create { P.where = { P.dir = 2; name = "new" }; attributes = sample_sattr };
    P.Remove { P.dir = 2; name = "gone" };
    P.Rename
      {
        P.from_dir = { P.dir = 2; name = "a" };
        to_dir = { P.dir = 3; name = "b" };
      };
    P.Link { P.link_from = 14; link_to = { P.dir = 2; name = "alias" } };
    P.Symlink
      { P.sym_where = { P.dir = 2; name = "ln" }; sym_target = "/else/where";
        sym_attr = P.sattr_none };
    P.Mkdir { P.where = { P.dir = 2; name = "d" }; attributes = P.sattr_none };
    P.Rmdir { P.dir = 2; name = "d" };
    P.Readdir { P.rd_dir = 2; cookie = 10; rd_count = 4096 };
    P.Statfs 2;
    P.Readdirlook { P.rd_dir = 2; cookie = 0; rd_count = 8192 };
    P.Getlease { P.lease_file = 5; lease_mode = P.Lease_write; lease_duration = 6 };
    P.Getlease { P.lease_file = 6; lease_mode = P.Lease_read; lease_duration = 30 };
    P.Write3
      { P.w3_file = 13; w3_offset = 65536; w3_stable = P.Unstable;
        w3_data = Bytes.make 32768 'u' };
    P.Write3
      { P.w3_file = 13; w3_offset = 0; w3_stable = P.Data_sync;
        w3_data = Bytes.make 1 'd' };
    P.Write3
      { P.w3_file = 14; w3_offset = 4096; w3_stable = P.File_sync;
        w3_data = Bytes.empty };
    P.Commit { P.cm_file = 13; cm_offset = 0; cm_count = 0 };
    P.Commit { P.cm_file = 13; cm_offset = 8192; cm_count = 32768 };
  ]

let all_replies =
  [
    (0, P.Rnull);
    (1, P.Rattr (Ok sample_fattr));
    (1, P.Rattr (Error P.NFSERR_STALE));
    (2, P.Rattr (Ok sample_fattr));
    (8, P.Rattr (Error P.NFSERR_FBIG));
    (4, P.Rdirop (Ok (99, sample_fattr)));
    (4, P.Rdirop (Error P.NFSERR_NOENT));
    (9, P.Rdirop (Ok (100, sample_fattr)));
    (14, P.Rdirop (Error P.NFSERR_EXIST));
    (5, P.Rreadlink (Ok "/target/path"));
    (5, P.Rreadlink (Error P.NFSERR_IO));
    (6, P.Rread (Ok (sample_fattr, Bytes.make 8192 'r')));
    (6, P.Rread (Ok (sample_fattr, Bytes.empty)));
    (6, P.Rread (Error P.NFSERR_STALE));
    (10, P.Rstat P.NFS_OK);
    (11, P.Rstat P.NFSERR_ACCES);
    (15, P.Rstat P.NFSERR_NOTEMPTY);
    ( 16,
      P.Rreaddir
        (Ok
           ( [
               { P.fileid = 3; entry_name = "x"; entry_cookie = 1 };
               { P.fileid = 4; entry_name = "a-much-longer-name"; entry_cookie = 2 };
             ],
             false )) );
    (16, P.Rreaddir (Ok ([], true)));
    (16, P.Rreaddir (Error P.NFSERR_NOTDIR));
    ( 17,
      P.Rstatfs
        (Ok { P.tsize = 8192; bsize = 8192; blocks_total = 1000; blocks_free = 400;
              blocks_avail = 400 }) );
    ( 18,
      P.Rreaddirlook
        (Ok
           ( [
               {
                 P.le_entry = { P.fileid = 3; entry_name = "x"; entry_cookie = 1 };
                 le_file = 3;
                 le_attr = sample_fattr;
               };
             ],
             true )) );
    (19, P.Rlease (Ok (Some { P.granted_duration = 6; lease_attr = sample_fattr })));
    (19, P.Rlease (Ok None));
    (19, P.Rlease (Error P.NFSERR_STALE));
    ( 20,
      P.Rwrite3
        (Ok
           { P.w3_attr = sample_fattr; w3_count = 32768;
             w3_committed = P.Unstable; w3_verf = 0x1234_5678 }) );
    ( 20,
      P.Rwrite3
        (Ok
           { P.w3_attr = sample_fattr; w3_count = 1; w3_committed = P.File_sync;
             w3_verf = 1 }) );
    (20, P.Rwrite3 (Error P.NFSERR_IO));
    (21, P.Rcommit (Ok { P.cmo_attr = sample_fattr; cmo_verf = 0x3FFF_FFFF }));
    (21, P.Rcommit (Error P.NFSERR_STALE));
  ]

let test_call_roundtrips () =
  List.iter
    (fun call ->
      let got = roundtrip_call call in
      Alcotest.(check bool)
        (Printf.sprintf "call %s roundtrips" (P.proc_name (P.proc_of_call call)))
        true (got = call))
    all_calls

let test_reply_roundtrips () =
  List.iter
    (fun (proc, reply) ->
      let got = roundtrip_reply ~proc reply in
      Alcotest.(check bool)
        (Printf.sprintf "reply for %s roundtrips" (P.proc_name proc))
        true (got = reply))
    all_replies

let test_alignment () =
  List.iter
    (fun call ->
      Alcotest.(check int) "call 4-aligned" 0 (Mbuf.length (encode_call call) mod 4))
    all_calls;
  List.iter
    (fun (_, reply) ->
      Alcotest.(check int) "reply 4-aligned" 0 (Mbuf.length (encode_reply reply) mod 4))
    all_replies

(* Golden wire layouts against RFC 1094. *)

let test_golden_getattr_call () =
  (* GETATTR args = one 32-byte fhandle. *)
  let b = Mbuf.to_bytes (encode_call (P.Getattr 0x0102)) in
  Alcotest.(check int) "length" 32 (Bytes.length b);
  Alcotest.(check int32) "ino in first word" 0x0102l (Bytes.get_int32_be b 0);
  for i = 4 to 31 do
    Alcotest.(check char) "zero padding" '\000' (Bytes.get b i)
  done

let test_golden_read_call () =
  (* READ args: fhandle(32) + offset(4) + count(4) + totalcount(4). *)
  let b =
    Mbuf.to_bytes (encode_call (P.Read { P.read_file = 5; offset = 8192; count = 4096 }))
  in
  Alcotest.(check int) "length" 44 (Bytes.length b);
  Alcotest.(check int32) "offset" 8192l (Bytes.get_int32_be b 32);
  Alcotest.(check int32) "count" 4096l (Bytes.get_int32_be b 36)

let test_golden_lookup_call () =
  (* LOOKUP: fhandle(32) + string length(4) + name + pad. *)
  let b = Mbuf.to_bytes (encode_call (P.Lookup { P.dir = 2; name = "abc" })) in
  Alcotest.(check int) "length 32+4+4" 40 (Bytes.length b);
  Alcotest.(check int32) "name length" 3l (Bytes.get_int32_be b 32);
  Alcotest.(check string) "name bytes" "abc" (Bytes.to_string (Bytes.sub b 36 3));
  Alcotest.(check char) "pad" '\000' (Bytes.get b 39)

let test_golden_error_reply () =
  (* An error attrstat is just the status word. *)
  let b = Mbuf.to_bytes (encode_reply (P.Rattr (Error P.NFSERR_NOENT))) in
  Alcotest.(check int) "length" 4 (Bytes.length b);
  Alcotest.(check int32) "ENOENT = 2" 2l (Bytes.get_int32_be b 0)

let test_golden_sattr_dont_set () =
  (* Unset sattr fields are 0xffffffff on the wire. *)
  let b = Mbuf.to_bytes (encode_call (P.Setattr (1, P.sattr_none))) in
  (* fhandle(32) + mode uid gid size (4 each) + atime(8) + mtime(8) *)
  Alcotest.(check int) "length" 64 (Bytes.length b);
  for word = 8 to 15 do
    Alcotest.(check int32) "all -1" (-1l) (Bytes.get_int32_be b (word * 4))
  done

(* Malformed input. *)

let test_unknown_proc_rejected () =
  let chain = encode_call P.Null in
  Alcotest.check_raises "proc 99" (Xdr.Decode_error "unknown NFS procedure 99")
    (fun () -> ignore (P.decode_call ~proc:99 (Xdr.Dec.create chain)))

let test_oversized_read_count_rejected () =
  let enc = Xdr.Enc.create () in
  P.encode_call enc (P.Read { P.read_file = 1; offset = 0; count = 8192 });
  (* Rebuild with an oversized count by hand. *)
  let enc2 = Xdr.Enc.create () in
  let b = Bytes.make 32 '\000' in
  Xdr.Enc.opaque_fixed enc2 b;
  Xdr.Enc.int enc2 0;
  Xdr.Enc.int enc2 1_000_000;
  Xdr.Enc.int enc2 0;
  match P.decode_call ~proc:6 (Xdr.Dec.create (Xdr.Enc.chain enc2)) with
  | exception Xdr.Decode_error _ -> ()
  | _ -> Alcotest.fail "giant read count accepted"

let test_truncated_call_rejected () =
  let chain = encode_call (P.Lookup { P.dir = 2; name = "abcdef" }) in
  let truncated, _ = Mbuf.split chain 20 in
  match P.decode_call ~proc:4 (Xdr.Dec.create truncated) with
  | exception Xdr.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated lookup accepted"

let test_bad_stat_rejected () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.enum enc 9999;
  match P.decode_reply ~proc:10 (Xdr.Dec.create (Xdr.Enc.chain enc)) with
  | exception Xdr.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad nfsstat accepted"

(* Classification tables. *)

let test_idempotency_table () =
  (* COMMIT is idempotent (re-flushing flushed data is harmless);
     WRITE3 is not — an UNSTABLE write replayed after an intervening
     overlapping write would resurrect old bytes, so the duplicate
     cache must absorb the retransmission. *)
  List.iter
    (fun proc ->
      Alcotest.(check bool) (P.proc_name proc ^ " idempotent") true (P.is_idempotent proc))
    [ 0; 1; 4; 5; 6; 16; 17; 18; 19; 21 ];
  List.iter
    (fun proc ->
      Alcotest.(check bool)
        (P.proc_name proc ^ " not idempotent")
        false (P.is_idempotent proc))
    [ 2; 8; 9; 10; 11; 12; 13; 14; 15; 20 ]

let test_time_conversion () =
  let t = P.time_of_float 12.25 in
  Alcotest.(check int) "seconds" 12 t.P.seconds;
  Alcotest.(check int) "useconds" 250000 t.P.useconds;
  Alcotest.(check (float 1e-6)) "roundtrip" 12.25 (P.float_of_time t)

(* Property: arbitrary read/write payloads round trip. *)

let prop_write_payload_roundtrip =
  QCheck.Test.make ~name:"write args roundtrip arbitrary payloads" ~count:200
    QCheck.(
      triple (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)
        (map Bytes.of_string (string_of_size (Gen.int_bound 8192))))
    (fun (fh, off, data) ->
      let call = P.Write { P.write_file = fh; write_offset = off; data } in
      roundtrip_call call = call)

let prop_readdir_entries_roundtrip =
  QCheck.Test.make ~name:"readdir entries roundtrip" ~count:100
    QCheck.(
      pair bool
        (list_of_size (Gen.int_bound 30)
           (pair (int_bound 100000) (string_of_size (Gen.int_range 1 64)))))
    (fun (eof, raw) ->
      let entries =
        List.mapi
          (fun i (fid, name) -> { P.fileid = fid; entry_name = name; entry_cookie = i })
          raw
      in
      let reply = P.Rreaddir (Ok (entries, eof)) in
      roundtrip_reply ~proc:16 reply = reply)

let () =
  Alcotest.run "proto"
    [
      ( "roundtrips",
        [
          Alcotest.test_case "all calls" `Quick test_call_roundtrips;
          Alcotest.test_case "all replies" `Quick test_reply_roundtrips;
          Alcotest.test_case "alignment" `Quick test_alignment;
        ] );
      ( "golden",
        [
          Alcotest.test_case "getattr call" `Quick test_golden_getattr_call;
          Alcotest.test_case "read call" `Quick test_golden_read_call;
          Alcotest.test_case "lookup call" `Quick test_golden_lookup_call;
          Alcotest.test_case "error reply" `Quick test_golden_error_reply;
          Alcotest.test_case "sattr don't-set" `Quick test_golden_sattr_dont_set;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "unknown proc" `Quick test_unknown_proc_rejected;
          Alcotest.test_case "oversized read" `Quick test_oversized_read_count_rejected;
          Alcotest.test_case "truncated call" `Quick test_truncated_call_rejected;
          Alcotest.test_case "bad stat" `Quick test_bad_stat_rejected;
        ] );
      ( "tables",
        [
          Alcotest.test_case "idempotency" `Quick test_idempotency_table;
          Alcotest.test_case "time conversion" `Quick test_time_conversion;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_write_payload_roundtrip; prop_readdir_entries_roundtrip ] );
    ]
