module Mbuf = Renofs_mbuf.Mbuf

exception Decode_error of string

let pad_len n = (4 - (n land 3)) land 3
let zeros = Bytes.make 4 '\000'

module Enc = struct
  type t = {
    chain : Mbuf.t;
    ctr : Mbuf.Counters.t option;
    pool : Mbuf.Pool.t option;
  }

  let create ?ctr ?pool () = { chain = Mbuf.empty (); ctr; pool }
  let sub t = create ?ctr:t.ctr ?pool:t.pool ()
  let chain t = t.chain
  (* Every word goes through here as an int, so no int32 is boxed. *)
  let word t v = Mbuf.add_u32 ?ctr:t.ctr ?pool:t.pool t.chain v
  let u32 t v = word t (Int32.to_int v)

  let int t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Xdr.Enc.int: out of range";
    word t v

  let bool t b = word t (if b then 1 else 0)
  let enum t v = int t v

  let u64 t v =
    word t (Int64.to_int (Int64.shift_right_logical v 32));
    word t (Int64.to_int v)

  let opaque_fixed t b =
    Mbuf.add_lent ?ctr:t.ctr ?pool:t.pool t.chain b ~off:0 ~len:(Bytes.length b);
    let pad = pad_len (Bytes.length b) in
    if pad > 0 then
      Mbuf.add_bytes ?ctr:t.ctr ?pool:t.pool t.chain zeros ~off:0 ~len:pad

  let opaque t b =
    int t (Bytes.length b);
    opaque_fixed t b

  let string t s = opaque t (Bytes.of_string s)
  let append_chain t other = Mbuf.append_chain t.chain other
end

module Dec = struct
  (* The cursor plus the chain's total length, so every error locates
     itself ("... at byte N of M") — the only clue a fuzzing run gives
     about where in a mangled message decoding fell over. *)
  type t = { c : Mbuf.Cursor.t; total : int }

  let create chain = { c = Mbuf.Cursor.create chain; total = Mbuf.length chain }
  let remaining t = Mbuf.Cursor.remaining t.c

  let fail t what =
    raise
      (Decode_error
         (Printf.sprintf "%s at byte %d of %d" what
            (t.total - Mbuf.Cursor.remaining t.c)
            t.total))

  let int t =
    try Mbuf.Cursor.u32 t.c
    with Mbuf.Cursor.Underrun -> fail t "truncated u32"

  let u32 t = Int32.of_int (int t)

  let bool t =
    match int t with 0 -> false | 1 -> true | _ -> fail t "bad bool"

  let enum t = int t

  let u64 t =
    let hi = int t in
    let lo = int t in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

  let opaque_fixed t n =
    if n < 0 then fail t "negative opaque length";
    let body =
      try Mbuf.Cursor.bytes t.c n
      with Mbuf.Cursor.Underrun -> fail t "truncated opaque"
    in
    let pad = pad_len n in
    (try Mbuf.Cursor.skip t.c pad
     with Mbuf.Cursor.Underrun -> fail t "truncated padding");
    body

  let opaque t ~max =
    let n = int t in
    if n > max then fail t (Printf.sprintf "opaque too long (%d > %d)" n max);
    opaque_fixed t n

  let string t ~max = Bytes.to_string (opaque t ~max)
end
