open Renofs_xdr
module Mbuf = Renofs_mbuf.Mbuf

let roundtrip encode decode =
  let enc = Xdr.Enc.create () in
  encode enc;
  decode (Xdr.Dec.create (Xdr.Enc.chain enc))

let test_u32 () =
  List.iter
    (fun v ->
      let got = roundtrip (fun e -> Xdr.Enc.u32 e v) Xdr.Dec.u32 in
      Alcotest.(check int32) "u32" v got)
    [ 0l; 1l; -1l; Int32.max_int; Int32.min_int; 0x12345678l ]

let test_int () =
  List.iter
    (fun v ->
      let got = roundtrip (fun e -> Xdr.Enc.int e v) Xdr.Dec.int in
      Alcotest.(check int) "int" v got)
    [ 0; 1; 8192; 0xFFFFFFFF ]

let test_int_range_check () =
  let enc = Xdr.Enc.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Xdr.Enc.int: out of range")
    (fun () -> Xdr.Enc.int enc (-1))

let test_bool () =
  Alcotest.(check bool) "true" true (roundtrip (fun e -> Xdr.Enc.bool e true) Xdr.Dec.bool);
  Alcotest.(check bool) "false" false
    (roundtrip (fun e -> Xdr.Enc.bool e false) Xdr.Dec.bool)

let test_bool_strict () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.u32 enc 2l;
  let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
  Alcotest.check_raises "bad bool" (Xdr.Decode_error "bad bool at byte 4 of 4")
    (fun () -> ignore (Xdr.Dec.bool dec))

let test_u64 () =
  List.iter
    (fun v ->
      let got = roundtrip (fun e -> Xdr.Enc.u64 e v) Xdr.Dec.u64 in
      Alcotest.(check int64) "u64" v got)
    [ 0L; 1L; -1L; Int64.max_int; 0x123456789ABCDEF0L ]

let test_string_padding () =
  List.iter
    (fun s ->
      let enc = Xdr.Enc.create () in
      Xdr.Enc.string enc s;
      let len = Mbuf.length (Xdr.Enc.chain enc) in
      Alcotest.(check int) "padded to 4" 0 (len mod 4);
      let got = Xdr.Dec.string (Xdr.Dec.create (Xdr.Enc.chain enc)) ~max:100 in
      Alcotest.(check string) "roundtrip" s got)
    [ ""; "a"; "ab"; "abc"; "abcd"; "abcde" ]

let test_opaque_max () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.opaque enc (Bytes.make 10 'z');
  let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
  Alcotest.check_raises "too long"
    (Xdr.Decode_error "opaque too long (10 > 5) at byte 4 of 16") (fun () ->
      ignore (Xdr.Dec.opaque dec ~max:5))

let test_opaque_fixed () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.opaque_fixed enc (Bytes.of_string "xyz");
  Alcotest.(check int) "padded, no length word" 4 (Mbuf.length (Xdr.Enc.chain enc));
  let got = Xdr.Dec.opaque_fixed (Xdr.Dec.create (Xdr.Enc.chain enc)) 3 in
  Alcotest.(check string) "content" "xyz" (Bytes.to_string got)

let test_truncated () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.u32 enc 5l;
  let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
  ignore (Xdr.Dec.u32 dec);
  Alcotest.check_raises "truncated"
    (Xdr.Decode_error "truncated u32 at byte 4 of 4") (fun () ->
      ignore (Xdr.Dec.u32 dec))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every strict prefix of a representative stream must fail with a
   located [Decode_error] — never [Invalid_argument], [Failure] or a
   bare cursor [Underrun] — because a truncated packet is exactly what
   the wire-mangling fault layer produces. *)
let test_truncation_table () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.int enc 3;
  Xdr.Enc.string enc "file.txt";
  Xdr.Enc.bool enc true;
  Xdr.Enc.u64 enc 123456789L;
  Xdr.Enc.opaque enc (Bytes.make 10 'z');
  let whole = Mbuf.to_bytes (Xdr.Enc.chain enc) in
  for len = 0 to Bytes.length whole - 1 do
    let dec = Xdr.Dec.create (Mbuf.of_bytes (Bytes.sub whole 0 len)) in
    match
      ignore (Xdr.Dec.int dec);
      ignore (Xdr.Dec.string dec ~max:255);
      ignore (Xdr.Dec.bool dec);
      ignore (Xdr.Dec.u64 dec);
      ignore (Xdr.Dec.opaque dec ~max:64)
    with
    | () -> Alcotest.failf "prefix of %d bytes decoded completely" len
    | exception Xdr.Decode_error msg ->
        if not (contains ~sub:" at byte " msg) then
          Alcotest.failf "prefix %d: error %S lacks a location" len msg
    | exception e ->
        Alcotest.failf "prefix %d: raised %s, not Decode_error" len
          (Printexc.to_string e)
  done

let test_append_chain_zero_copy () =
  let ctr = Mbuf.Counters.create () in
  let data = Mbuf.of_bytes (Bytes.make 8192 'd') in
  let enc = Xdr.Enc.create ~ctr () in
  Xdr.Enc.int enc 8192;
  let before = ctr.Mbuf.Counters.bytes_copied in
  Xdr.Enc.append_chain enc data;
  Alcotest.(check int) "no copy for spliced data" before ctr.Mbuf.Counters.bytes_copied;
  Alcotest.(check int) "total length" (4 + 8192) (Mbuf.length (Xdr.Enc.chain enc))

let test_mixed_sequence () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.int enc 3;
  Xdr.Enc.string enc "file.txt";
  Xdr.Enc.bool enc true;
  Xdr.Enc.u64 enc 123456789L;
  let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
  Alcotest.(check int) "int" 3 (Xdr.Dec.int dec);
  Alcotest.(check string) "string" "file.txt" (Xdr.Dec.string dec ~max:255);
  Alcotest.(check bool) "bool" true (Xdr.Dec.bool dec);
  Alcotest.(check int64) "u64" 123456789L (Xdr.Dec.u64 dec);
  Alcotest.(check int) "fully consumed" 0 (Xdr.Dec.remaining dec)

(* Property tests *)

type item = I of int | S of string | B of bool | Q of int64

let item_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> I (abs n land 0xFFFFFFFF)) int);
        (3, map (fun s -> S s) (string_size (int_bound 64)));
        (1, map (fun b -> B b) bool);
        (2, map (fun q -> Q q) int64);
      ])

let arb_items =
  QCheck.make
    ~print:(fun items -> Printf.sprintf "<%d items>" (List.length items))
    QCheck.Gen.(list_size (int_bound 50) item_gen)

let prop_sequence_roundtrip =
  QCheck.Test.make ~name:"mixed sequence roundtrip" ~count:200 arb_items (fun items ->
      let enc = Xdr.Enc.create () in
      List.iter
        (function
          | I n -> Xdr.Enc.int enc n
          | S s -> Xdr.Enc.string enc s
          | B b -> Xdr.Enc.bool enc b
          | Q q -> Xdr.Enc.u64 enc q)
        items;
      let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
      List.for_all
        (function
          | I n -> Xdr.Dec.int dec = n
          | S s -> String.equal (Xdr.Dec.string dec ~max:64) s
          | B b -> Xdr.Dec.bool dec = b
          | Q q -> Int64.equal (Xdr.Dec.u64 dec) q)
        items
      && Xdr.Dec.remaining dec = 0)

let prop_alignment =
  QCheck.Test.make ~name:"encoded length is always 4-aligned" ~count:200 arb_items
    (fun items ->
      let enc = Xdr.Enc.create () in
      List.iter
        (function
          | I n -> Xdr.Enc.int enc n
          | S s -> Xdr.Enc.string enc s
          | B b -> Xdr.Enc.bool enc b
          | Q q -> Xdr.Enc.u64 enc q)
        items;
      Mbuf.length (Xdr.Enc.chain enc) mod 4 = 0)

(* Words decoded in place from the chain the encoder built allocate
   nothing: the chain's mbufs hold whole words, so none straddles. *)
let test_int_decode_no_alloc () =
  let n = 10_000 in
  let enc = Xdr.Enc.create () in
  for i = 0 to n - 1 do
    Xdr.Enc.int enc (i * 429_497)
  done;
  let dec = Xdr.Dec.create (Xdr.Enc.chain enc) in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Xdr.Dec.int dec)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all read" 0 (Xdr.Dec.remaining dec);
  if words > 8.0 then Alcotest.failf "%.0f minor words for %d ints" words n

(* The chain [whole] cut into two at byte [cut]: the halves share the
   encoder's storage as views, so a word can straddle the cut. *)
let cut_at whole cut =
  let front, back = Mbuf.split whole cut in
  Mbuf.append_chain front back;
  front

let arb_words =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 12)
        (frequency
           [ (3, map (fun n -> n land 0xFFFF_FFFF) int);
             (1, oneofl [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ]) ]))

(* Words round-trip through a chain cut at every offset, and every
   prefix of it, cut anywhere, fails on its partial word exactly as the
   copying read did: "truncated u32 at byte N of M", N the whole words
   read and M the prefix's length. *)
let prop_int_words_across_cuts =
  QCheck.Test.make ~name:"int words across mbuf cuts" ~count:100 arb_words
    (fun words ->
      let enc = Xdr.Enc.create () in
      List.iter (Xdr.Enc.int enc) words;
      let whole = Xdr.Enc.chain enc in
      let total = Mbuf.length whole in
      let decode chain =
        let dec = Xdr.Dec.create chain in
        List.map (fun _ -> Xdr.Dec.int dec) words
      in
      for cut = 0 to total do
        if decode (cut_at whole cut) <> words then
          QCheck.Test.fail_reportf "cut at %d decodes differently" cut
      done;
      for len = 0 to total - 1 do
        let prefix, _ = Mbuf.split whole len in
        let want =
          Printf.sprintf "truncated u32 at byte %d of %d" (len land lnot 3) len
        in
        for cut = 0 to len do
          match decode (cut_at prefix cut) with
          | _ -> QCheck.Test.fail_reportf "prefix %d decoded completely" len
          | exception Xdr.Decode_error msg when msg = want -> ()
          | exception Xdr.Decode_error msg ->
              QCheck.Test.fail_reportf "prefix %d cut at %d: %S, not %S" len cut
                msg want
        done
      done;
      true)

let () =
  Alcotest.run "xdr"
    [
      ( "scalars",
        [
          Alcotest.test_case "u32" `Quick test_u32;
          Alcotest.test_case "int" `Quick test_int;
          Alcotest.test_case "int range" `Quick test_int_range_check;
          Alcotest.test_case "bool" `Quick test_bool;
          Alcotest.test_case "bool strict" `Quick test_bool_strict;
          Alcotest.test_case "u64" `Quick test_u64;
          Alcotest.test_case "int decode allocates nothing" `Quick
            test_int_decode_no_alloc;
        ] );
      ( "opaque",
        [
          Alcotest.test_case "string padding" `Quick test_string_padding;
          Alcotest.test_case "opaque max" `Quick test_opaque_max;
          Alcotest.test_case "opaque fixed" `Quick test_opaque_fixed;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "truncation table" `Quick test_truncation_table;
          Alcotest.test_case "zero-copy splice" `Quick test_append_chain_zero_copy;
          Alcotest.test_case "mixed sequence" `Quick test_mixed_sequence;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sequence_roundtrip; prop_alignment; prop_int_words_across_cuts ] );
    ]
