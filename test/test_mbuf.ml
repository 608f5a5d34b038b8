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
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_split_rejoin;
            prop_cursor_chunks;
            prop_checksum_split_invariant;
            prop_checksum_reference;
          ] );
    ]
