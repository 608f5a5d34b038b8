open Renofs_mbuf

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (int_bound 9000)))
let arb_bytes = QCheck.make ~print:(fun b -> Printf.sprintf "<%d bytes>" (Bytes.length b)) bytes_gen

let test_empty () =
  let c = Mbuf.empty () in
  Alcotest.(check int) "length" 0 (Mbuf.length c);
  Alcotest.(check int) "mbufs" 0 (Mbuf.num_mbufs c);
  Alcotest.(check bytes) "to_bytes" Bytes.empty (Mbuf.to_bytes c)

let test_small_append_stays_small () =
  let c = Mbuf.of_string "hello" in
  Alcotest.(check int) "one small mbuf" 1 (Mbuf.num_mbufs c);
  Alcotest.(check int) "no clusters" 0 (Mbuf.num_clusters c)

let test_large_append_uses_clusters () =
  let c = Mbuf.of_bytes (Bytes.make 8192 'x') in
  Alcotest.(check bool) "clusters used" true (Mbuf.num_clusters c >= 4);
  Alcotest.(check int) "length" 8192 (Mbuf.length c)

let test_counters_track_copies () =
  let ctr = Mbuf.Counters.create () in
  let c = Mbuf.empty () in
  Mbuf.add_string ~ctr c (String.make 5000 'y');
  Alcotest.(check int) "copied bytes" 5000 ctr.Mbuf.Counters.bytes_copied;
  Alcotest.(check bool) "clusters counted" true (ctr.Mbuf.Counters.clusters_allocated > 0);
  let _ = Mbuf.to_bytes ~ctr c in
  Alcotest.(check int) "linearise copies again" 10000 ctr.Mbuf.Counters.bytes_copied;
  Mbuf.Counters.reset ctr;
  Alcotest.(check int) "reset" 0 ctr.Mbuf.Counters.bytes_copied

let test_add_u32 () =
  let c = Mbuf.empty () in
  Mbuf.add_u32 c 0xDEADBEEF;
  let b = Mbuf.to_bytes c in
  Alcotest.(check int32) "big endian" 0xDEADBEEFl (Bytes.get_int32_be b 0)

let test_append_chain_moves () =
  let a = Mbuf.of_string "abc" and b = Mbuf.of_string "def" in
  Mbuf.append_chain a b;
  Alcotest.(check string) "joined" "abcdef" (Bytes.to_string (Mbuf.to_bytes a));
  Alcotest.(check int) "b drained" 0 (Mbuf.length b)

let test_split_boundaries () =
  let payload = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  List.iter
    (fun n ->
      let c = Mbuf.of_string payload in
      let front, back = Mbuf.split c n in
      Alcotest.(check int) "front length" n (Mbuf.length front);
      Alcotest.(check int) "back length" (5000 - n) (Mbuf.length back);
      let joined =
        Bytes.to_string (Mbuf.to_bytes front) ^ Bytes.to_string (Mbuf.to_bytes back)
      in
      Alcotest.(check string) "content preserved" payload joined)
    [ 0; 1; 111; 112; 2048; 2049; 4999; 5000 ]

let test_split_out_of_bounds () =
  let c = Mbuf.of_string "abc" in
  Alcotest.check_raises "past end" (Invalid_argument "Mbuf.split: index out of bounds")
    (fun () -> ignore (Mbuf.split c 4))

let test_sub_copy () =
  let c = Mbuf.of_string "0123456789" in
  let part = Mbuf.sub_copy c ~pos:3 ~len:4 in
  Alcotest.(check string) "middle" "3456" (Bytes.to_string (Mbuf.to_bytes part));
  (* original untouched *)
  Alcotest.(check int) "original intact" 10 (Mbuf.length c)

let test_checksum_known () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum 220d *)
  let c = Mbuf.of_bytes (Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7") in
  Alcotest.(check int) "rfc1071" 0x220D (Mbuf.checksum c)

let test_checksum_odd_length () =
  let even = Mbuf.of_bytes (Bytes.of_string "\xab\x00") in
  let odd = Mbuf.of_bytes (Bytes.of_string "\xab") in
  Alcotest.(check int) "odd zero-padded" (Mbuf.checksum even) (Mbuf.checksum odd)

let test_cursor_sequential () =
  let c = Mbuf.empty () in
  Mbuf.add_u32 c 7;
  Mbuf.add_string c "abcd";
  Mbuf.add_u32 c 9;
  let cur = Mbuf.Cursor.create c in
  Alcotest.(check int) "remaining" 12 (Mbuf.Cursor.remaining cur);
  Alcotest.(check int) "first" 7 (Mbuf.Cursor.u32 cur);
  Alcotest.(check string) "middle" "abcd" (Bytes.to_string (Mbuf.Cursor.bytes cur 4));
  Alcotest.(check int) "last" 9 (Mbuf.Cursor.u32 cur);
  Alcotest.(check int) "drained" 0 (Mbuf.Cursor.remaining cur)

let test_cursor_underrun () =
  let c = Mbuf.of_string "ab" in
  let cur = Mbuf.Cursor.create c in
  Alcotest.check_raises "underrun" Mbuf.Cursor.Underrun (fun () ->
      ignore (Mbuf.Cursor.u32 cur))

let test_cursor_skip () =
  let c = Mbuf.of_string (String.make 3000 'a' ^ "Z") in
  let cur = Mbuf.Cursor.create c in
  Mbuf.Cursor.skip cur 3000;
  Alcotest.(check string) "after skip" "Z" (Bytes.to_string (Mbuf.Cursor.bytes cur 1))

(* Regressions: hostile lengths (a garbage XDR count, for instance)
   must raise Underrun up front — never allocate first, never let a
   negative length grow the cursor. *)
let test_cursor_hostile_lengths () =
  let fresh () = Mbuf.Cursor.create (Mbuf.of_string "abcd") in
  let raises name f =
    Alcotest.check_raises name Mbuf.Cursor.Underrun (fun () -> ignore (f ()))
  in
  raises "bytes: huge" (fun () -> Mbuf.Cursor.bytes (fresh ()) max_int);
  raises "bytes: negative" (fun () -> Mbuf.Cursor.bytes (fresh ()) (-1));
  raises "skip: past end" (fun () -> Mbuf.Cursor.skip (fresh ()) 5);
  raises "skip: negative" (fun () -> Mbuf.Cursor.skip (fresh ()) (-1));
  (* A failed negative skip must not have manufactured extra length. *)
  let cur = fresh () in
  (try Mbuf.Cursor.skip cur (-2) with Mbuf.Cursor.Underrun -> ());
  Alcotest.(check int) "remaining unchanged" 4 (Mbuf.Cursor.remaining cur)

(* Property tests *)

let prop_roundtrip =
  QCheck.Test.make ~name:"of_bytes/to_bytes roundtrip" ~count:200 arb_bytes (fun b ->
      Bytes.equal (Mbuf.to_bytes (Mbuf.of_bytes b)) b)

let prop_split_rejoin =
  QCheck.Test.make ~name:"split preserves bytes" ~count:200
    QCheck.(pair arb_bytes (int_bound 10000))
    (fun (b, k) ->
      let n = Bytes.length b in
      let at = if n = 0 then 0 else k mod (n + 1) in
      let front, back = Mbuf.split (Mbuf.of_bytes b) at in
      let joined =
        Bytes.cat (Mbuf.to_bytes front) (Mbuf.to_bytes back)
      in
      Bytes.equal joined b && Mbuf.length front = at)

let prop_cursor_chunks =
  QCheck.Test.make ~name:"cursor chunked reads equal linear bytes" ~count:200
    QCheck.(pair arb_bytes (list_of_size Gen.(int_range 1 20) (int_range 1 500)))
    (fun (b, chunks) ->
      let cur = Mbuf.Cursor.create (Mbuf.of_bytes b) in
      let buf = Buffer.create (Bytes.length b) in
      let ok = ref true in
      (try
         List.iter
           (fun n ->
             let n = min n (Mbuf.Cursor.remaining cur) in
             Buffer.add_bytes buf (Mbuf.Cursor.bytes cur n))
           chunks;
         Buffer.add_bytes buf (Mbuf.Cursor.bytes cur (Mbuf.Cursor.remaining cur))
       with Mbuf.Cursor.Underrun -> ok := false);
      !ok && String.equal (Buffer.contents buf) (Bytes.to_string b))

let prop_checksum_split_invariant =
  QCheck.Test.make ~name:"checksum invariant under split+rejoin" ~count:100
    QCheck.(pair arb_bytes small_nat)
    (fun (b, k) ->
      let n = Bytes.length b in
      let at = if n = 0 then 0 else k mod (n + 1) in
      let whole = Mbuf.checksum (Mbuf.of_bytes b) in
      let front, back = Mbuf.split (Mbuf.of_bytes b) at in
      let rejoined = Mbuf.empty () in
      Mbuf.append_chain rejoined front;
      Mbuf.append_chain rejoined back;
      Mbuf.checksum rejoined = whole)

(* The definition the wide loop must match: one big-endian byte pair
   per step over linear bytes, the odd tail zero-padded, carries folded
   at the end. *)
let reference_checksum b =
  let n = Bytes.length b in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* Shared across cases, so storage comes back holding an earlier
   chain's bytes and a loop that reads past an mbuf's end sums them. *)
let checksum_pool = Mbuf.Pool.create ()

(* [len] random bytes as pooled pieces of 1 to 3000 bytes, joined
   without copying: every piece but the last ends in a partly filled
   mbuf, often of odd length. *)
let random_chain rng len =
  let chain = Mbuf.empty () in
  let left = ref len in
  while !left > 0 do
    let k = min !left (1 + Random.State.int rng 3000) in
    let piece = Bytes.init k (fun _ -> Char.chr (Random.State.int rng 256)) in
    Mbuf.append_chain chain (Mbuf.of_bytes ~pool:checksum_pool piece);
    left := !left - k
  done;
  chain

let prop_checksum_reference =
  QCheck.Test.make ~name:"checksum equals byte-pair reference" ~count:300
    (QCheck.make
       ~print:(fun (seed, len) -> Printf.sprintf "seed %d, %d bytes" seed len)
       QCheck.Gen.(pair int (frequency [ (1, int_bound 64); (3, int_bound 40_000) ])))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let cut c = Mbuf.split c (Random.State.int rng (Mbuf.length c + 1)) in
      (* Two cuts make views that start and end at odd offsets; each
         part and the rejoined whole must agree with the reference. *)
      let a, rest = cut (random_chain rng len) in
      let b, c = cut rest in
      let agrees ch = Mbuf.checksum ch = reference_checksum (Mbuf.to_bytes ch) in
      let parts_agree = agrees a && agrees b && agrees c in
      let whole = Mbuf.empty () in
      List.iter (Mbuf.append_chain whole) [ a; b; c ];
      let ok = parts_agree && Mbuf.length whole = len && agrees whole in
      Mbuf.release ~pool:checksum_pool whole;
      ok)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_roundtrip () =
  let pool = Mbuf.Pool.create () in
  let c = Mbuf.of_bytes ~pool (Bytes.make 4096 'a') in
  Alcotest.(check int) "first chain allocates fresh" 0 (Mbuf.Pool.hits pool);
  let clusters = Mbuf.num_clusters c in
  Mbuf.release ~pool c;
  Alcotest.(check int) "storage accepted back" clusters (Mbuf.Pool.recycled pool);
  Alcotest.(check int) "free list holds it" clusters (Mbuf.Pool.cluster_free pool);
  Alcotest.(check int) "released chain emptied" 0 (Mbuf.length c);
  let c2 = Mbuf.of_bytes ~pool (Bytes.make 4096 'b') in
  Alcotest.(check int) "second chain served from pool" clusters
    (Mbuf.Pool.hits pool);
  Alcotest.(check bytes) "recycled storage carries new bytes"
    (Bytes.make 4096 'b') (Mbuf.to_bytes c2)

let test_pool_release_never_aliases () =
  (* Once released, a chain holds no view of its old storage: refilling
     the recycled buffers from a new owner must not be observable
     through the released chain, and a double release must not donate
     the same storage twice. *)
  let pool = Mbuf.Pool.create () in
  let c1 = Mbuf.of_bytes ~pool (Bytes.make 2048 'x') in
  Mbuf.release ~pool c1;
  let donated = Mbuf.Pool.recycled pool in
  Mbuf.release ~pool c1;
  Alcotest.(check int) "double release is a no-op" donated
    (Mbuf.Pool.recycled pool);
  Alcotest.(check int) "no phantom view" 0 (Mbuf.num_mbufs c1);
  let c2 = Mbuf.of_bytes ~pool (Bytes.make 2048 'y') in
  Alcotest.(check bool) "reuse happened" true (Mbuf.Pool.hits pool > 0);
  Alcotest.(check bytes) "old owner reads nothing" Bytes.empty
    (Mbuf.to_bytes c1);
  Alcotest.(check bytes) "new owner reads its own bytes"
    (Bytes.make 2048 'y') (Mbuf.to_bytes c2)

let test_pool_split_refcount () =
  (* Split siblings share cluster storage; the shared cluster recycles
     only when the *last* sharer releases, so a released sibling can
     never hand bytes still visible to the survivor to a new writer. *)
  let pool = Mbuf.Pool.create () in
  let src = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let c = Mbuf.of_bytes ~pool src in
  let total = Mbuf.num_clusters c in
  let front, back = Mbuf.split c 1000 in
  Mbuf.release ~pool front;
  Alcotest.(check bool) "shared cluster stays out of the free list" true
    (Mbuf.Pool.cluster_free pool < total);
  let survivor = Mbuf.of_bytes ~pool (Bytes.make 2048 'z') in
  ignore survivor;
  Alcotest.(check bytes) "survivor still reads its bytes"
    (Bytes.sub src 1000 (4096 - 1000))
    (Mbuf.to_bytes back);
  Mbuf.release ~pool back;
  Alcotest.(check int) "all storage back once the last sharer releases"
    total
    (Mbuf.Pool.recycled pool)

let test_pool_counts_hits () =
  let pool = Mbuf.Pool.create () in
  let ctr = Mbuf.Counters.create () in
  let c = Mbuf.of_bytes ~ctr ~pool (Bytes.make 6144 'q') in
  Mbuf.release ~pool c;
  let ctr2 = Mbuf.Counters.create () in
  let c2 = Mbuf.of_bytes ~ctr:ctr2 ~pool (Bytes.make 6144 'r') in
  ignore c2;
  Alcotest.(check int) "counters see the pool hits"
    (Mbuf.Pool.hits pool) ctr2.Mbuf.Counters.pool_hits;
  Alcotest.(check bool) "fresh allocations still counted" true
    (ctr.Mbuf.Counters.clusters_allocated > 0
    && ctr.Mbuf.Counters.pool_hits = 0)

let test_pool_caps_bound_retention () =
  let pool = Mbuf.Pool.create ~small_cap:1 ~cluster_cap:1 () in
  let a = Mbuf.of_bytes ~pool (Bytes.make 8192 'a') in
  Alcotest.(check bool) "several clusters released" true
    (Mbuf.num_clusters a > 1);
  Mbuf.release ~pool a;
  Alcotest.(check int) "cluster retention capped" 1
    (Mbuf.Pool.cluster_free pool);
  Alcotest.(check bool) "small retention capped" true
    (Mbuf.Pool.small_free pool <= 1)

(* ------------------------------------------------------------------ *)
(* Lent views                                                         *)
(* ------------------------------------------------------------------ *)

module Packet = Renofs_net.Packet
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module P = Renofs_core.Nfs_proto

(* The tail an append starts from: no mbuf, or a small or cluster mbuf
   with [free] bytes of room.  A fresh mbuf always takes at least one
   byte, and a cluster at least MINCLSIZE (208), so a small has 0 to 111
   bytes free and a cluster 0 to 1,840. *)
type tail = No_tail | Small of int | Cluster of int

let chain_ending ?pool = function
  | No_tail -> Mbuf.empty ()
  | Small free -> Mbuf.of_bytes ?pool (Bytes.make (112 - free) 's')
  | Cluster free -> Mbuf.of_bytes ?pool (Bytes.make (2048 - free) 'c')

let show_tail = function
  | No_tail -> "no tail"
  | Small f -> Printf.sprintf "small, %d free" f
  | Cluster f -> Printf.sprintf "cluster, %d free" f

let random_bytes seed n =
  let rng = Random.State.make [| seed |] in
  Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* What the network reads of a chain: its IP fragments at [mtu]. *)
let pieces mtu chain =
  let dg =
    Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~ip_id:1
      chain
  in
  List.map
    (fun p ->
      (p.Packet.frag_off, p.Packet.more, Mbuf.layout p.Packet.payload, Mbuf.checksum p.Packet.payload))
    (Packet.fragment dg ~mtu)

let prop_lending_append_is_a_copy =
  QCheck.Test.make ~name:"lending append lays out as add_bytes" ~count:300
    (QCheck.make
       ~print:(fun (tail, off, len, _) ->
         Printf.sprintf "%s, %d bytes at offset %d" (show_tail tail) len off)
       QCheck.Gen.(
         let* tail =
           frequency
             [
               (1, return No_tail);
               (2, map (fun f -> Small f) (int_bound 111));
               (2, map (fun f -> Cluster f) (int_bound 1840));
             ]
         in
         let* off = int_bound 15 in
         let* len =
           frequency
             [
               (1, int_bound 300);
               (3, int_bound 40_000);
               (2, map2 (fun k d -> max 0 ((k * 2048) + d - 4)) (int_bound 19) (int_bound 8));
             ]
         in
         let* seed = int in
         return (tail, off, len, seed)))
    (fun (tail, off, len, seed) ->
      let src = random_bytes seed (off + len + 5) in
      let build add =
        let ctr = Mbuf.Counters.create () in
        let c = chain_ending tail in
        add ~ctr c src ~off ~len;
        (c, ctr)
      in
      let lent () = build (fun ~ctr c -> Mbuf.add_lent ~ctr c) in
      let copy () = build (fun ~ctr c -> Mbuf.add_bytes ~ctr c) in
      let shape (c, ctr) =
        ( Mbuf.layout c,
          Mbuf.num_clusters c,
          Mbuf.cluster_bytes c,
          Mbuf.checksum c,
          ctr.Mbuf.Counters.bytes_copied,
          Mbuf.to_bytes c )
      in
      (* Equal tail room: a further append lays out the same. *)
      let after (c, _) =
        Mbuf.add_bytes c (Bytes.make 300 't') ~off:0 ~len:300;
        Mbuf.layout c
      in
      shape (lent ()) = shape (copy ())
      && List.for_all
           (fun mtu -> pieces mtu (fst (lent ())) = pieces mtu (fst (copy ())))
           [ 1006; 1500; 4464 ]
      && after (lent ()) = after (copy ()))

let sample_fattr =
  let t = { P.seconds = 1; useconds = 0 } in
  {
    P.ftype = P.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 0;
    gid = 0;
    size = 32768;
    blocksize = 8192;
    rdev = 0;
    blocks = 64;
    fsid = 1;
    fileid = 7;
    atime = t;
    mtime = t;
    ctime = t;
  }

(* A READ reply, WRITE or WRITE3 call as the server and the client
   transport encode them, with [data] lent. *)
let encode_message ~pool ~machine kind data =
  let ctr = Mbuf.Counters.create () in
  let enc =
    match kind with
    | `Read_reply -> Rpc_msg.encode_reply ~ctr ~pool ~xid:9l (Rpc_msg.Accepted Rpc_msg.Success)
    | `Write | `Write3 ->
        let proc = if kind = `Write then 8 else 20 in
        Rpc_msg.encode_call ~ctr ~pool
          {
            Rpc_msg.xid = 9l;
            prog = P.program;
            vers = P.version;
            proc;
            cred = Rpc_msg.Auth_unix { stamp = 0; machine; uid = 100; gid = 20 };
          }
  in
  (match kind with
  | `Read_reply -> P.encode_reply enc (P.Rread (Ok (sample_fattr, data)))
  | `Write -> P.encode_call enc (P.Write { P.write_file = 3; write_offset = 8192; data })
  | `Write3 ->
      P.encode_call enc
        (P.Write3 { P.w3_file = 3; w3_offset = 0; w3_stable = P.Unstable; w3_data = data }));
  Xdr.Enc.chain enc

(* The data a message's decode returns. *)
let decoded_data kind chain =
  match kind with
  | `Read_reply -> (
      let _, _, dec = Rpc_msg.decode_reply chain in
      match P.decode_reply ~proc:6 dec with
      | P.Rread (Ok (_, d)) -> d
      | _ -> Alcotest.fail "not a READ reply")
  | `Write | `Write3 -> (
      let hdr, dec = Rpc_msg.decode_call chain in
      match P.decode_call ~proc:hdr.Rpc_msg.proc dec with
      | P.Write w -> w.P.data
      | P.Write3 w -> w.P.w3_data
      | _ -> Alcotest.fail "not a write")

let prop_share_is_sub_copy =
  QCheck.Test.make ~name:"share of a READ reply or WRITE lays out as sub_copy" ~count:200
    (QCheck.make
       ~print:(fun (kind, mlen, len, _) ->
         Printf.sprintf "%s, %d-byte machine name, %d data bytes"
           (match kind with `Read_reply -> "READ reply" | `Write -> "WRITE" | `Write3 -> "WRITE3")
           mlen len)
       QCheck.Gen.(
         let* kind = oneofl [ `Read_reply; `Write; `Write3 ] in
         let* mlen = int_bound 40 in
         let* len =
           frequency
             [ (1, int_bound 4096); (2, return 8192); (1, return 32768); (2, int_bound 32768) ]
         in
         let* seed = int in
         let len = if kind = `Write then min len P.max_data else len in
         return (kind, mlen, len, seed)))
    (fun (kind, mlen, len, seed) ->
      let pool = Mbuf.Pool.create () in
      let data = random_bytes seed len in
      let master = encode_message ~pool ~machine:(String.make mlen 'm') kind data in
      let total = Mbuf.length master in
      let shared = Mbuf.share ~pool master in
      let copied = Mbuf.sub_copy ~pool master ~pos:0 ~len:total in
      let after c =
        Mbuf.add_bytes c (Bytes.make 300 't') ~off:0 ~len:300;
        Mbuf.layout c
      in
      let same_layout =
        Mbuf.layout shared = Mbuf.layout copied
        && Mbuf.to_bytes shared = Mbuf.to_bytes copied
        && after (Mbuf.share ~pool master) = after (Mbuf.sub_copy ~pool master ~pos:0 ~len:total)
      in
      (* Fragmented and reassembled, a transmission still hands the
         lent buffer itself to the decoder once the data covers two
         lent clusters past the header's mbuf: a copy's clusters may
         start up to a small mbuf's length into the first.  A copy
         always hands a copy. *)
      let reassembled =
        let dg =
          Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
            ~ip_id:1 (Mbuf.share ~pool master)
        in
        let whole = Mbuf.empty () in
        List.iter
          (fun p -> Mbuf.append_chain whole p.Packet.payload)
          (Packet.fragment dg ~mtu:1500);
        whole
      in
      let lent_through = decoded_data kind reassembled in
      let from_copy = decoded_data kind copied in
      same_layout
      && Bytes.equal lent_through data
      && (if len >= (2 * 2048) + 112 then lent_through == data
          else len = 0 || len >= 2048 || lent_through != data)
      && Bytes.equal from_copy data
      && (len = 0 || from_copy != data))

(* Lent storage belongs to no pool, however it is viewed or released,
   even when it is exactly cluster-sized; pool storage beside it still
   recycles. *)
let test_lent_views_never_pooled () =
  let pool = Mbuf.Pool.create () in
  let buf = Bytes.make 2048 'L' in
  let a = Mbuf.empty () in
  Mbuf.add_lent ~pool a buf ~off:0 ~len:2048;
  Alcotest.(check (list (pair int bool))) "one lent cluster" [ (2048, true) ] (Mbuf.layout a);
  let a1, a2 = Mbuf.split a 1000 in
  let a3 = Mbuf.share ~pool a in
  let frags =
    Packet.fragment
      (Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~ip_id:1
         (Mbuf.share ~pool a))
      ~mtu:1006
  in
  List.iter (Mbuf.release ~pool) ([ a; a1; a2; a3 ] @ List.map (fun p -> p.Packet.payload) frags);
  Alcotest.(check int) "no view of it is recycled" 0 (Mbuf.Pool.recycled pool);
  let b = Mbuf.of_bytes ~pool (Bytes.make 112 'h') in
  Mbuf.add_lent ~pool b buf ~off:0 ~len:2048;
  Alcotest.(check (list (pair int bool)))
    "a full small, then the lent cluster" [ (112, false); (2048, true) ] (Mbuf.layout b);
  Mbuf.release ~pool b;
  Alcotest.(check int) "only the small comes back" 1 (Mbuf.Pool.recycled pool)

let () =
  Alcotest.run "mbuf"
    [
      ( "chain",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "small stays small" `Quick test_small_append_stays_small;
          Alcotest.test_case "large uses clusters" `Quick test_large_append_uses_clusters;
          Alcotest.test_case "copy counters" `Quick test_counters_track_copies;
          Alcotest.test_case "add_u32 big endian" `Quick test_add_u32;
          Alcotest.test_case "append_chain moves" `Quick test_append_chain_moves;
          Alcotest.test_case "split boundaries" `Quick test_split_boundaries;
          Alcotest.test_case "split out of bounds" `Quick test_split_out_of_bounds;
          Alcotest.test_case "sub_copy" `Quick test_sub_copy;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 vector" `Quick test_checksum_known;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "sequential reads" `Quick test_cursor_sequential;
          Alcotest.test_case "underrun" `Quick test_cursor_underrun;
          Alcotest.test_case "skip across mbufs" `Quick test_cursor_skip;
          Alcotest.test_case "hostile lengths" `Quick test_cursor_hostile_lengths;
        ] );
      ( "pool",
        [
          Alcotest.test_case "roundtrip recycles storage" `Quick test_pool_roundtrip;
          Alcotest.test_case "release never aliases" `Quick
            test_pool_release_never_aliases;
          Alcotest.test_case "split cluster refcount" `Quick test_pool_split_refcount;
          Alcotest.test_case "counters see hits" `Quick test_pool_counts_hits;
          Alcotest.test_case "caps bound retention" `Quick
            test_pool_caps_bound_retention;
          Alcotest.test_case "lent views never pooled" `Quick test_lent_views_never_pooled;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_split_rejoin;
            prop_cursor_chunks;
            prop_checksum_split_invariant;
            prop_checksum_reference;
            prop_lending_append_is_a_copy;
            prop_share_is_sub_copy;
          ] );
    ]
