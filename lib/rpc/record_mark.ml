module Mbuf = Renofs_mbuf.Mbuf

let max_fragment = 0x7FFFFFFF
let last_flag = 0x80000000

(* Upper bound a [Reader] will accept for one fragment (1 MiB): far
   above any record this protocol produces, far below the 2 GB a
   garbage length word can claim. *)
let max_sane_fragment = 1 lsl 20

let frame ?ctr ?pool chain =
  let len = Mbuf.length chain in
  if len > max_fragment then invalid_arg "Record_mark.frame: record too large";
  let framed = Mbuf.empty () in
  Mbuf.add_u32 ?ctr ?pool framed (last_flag lor len);
  Mbuf.append_chain framed chain;
  framed

module Reader = struct
  exception Corrupt of string

  type t = {
    mutable buf : Mbuf.t; (* unconsumed stream bytes *)
    mutable fragments : Mbuf.t list; (* completed non-final fragments, newest first *)
  }

  let create () = { buf = Mbuf.empty (); fragments = [] }

  let push t chunk = Mbuf.append_chain t.buf chunk

  let take_buf t n =
    let head, rest = Mbuf.split t.buf n in
    t.buf <- rest;
    head

  let rec pop t =
    if Mbuf.length t.buf < 4 then None
    else begin
      let header = Mbuf.to_bytes (Mbuf.sub_copy t.buf ~pos:0 ~len:4) in
      let word = Int32.to_int (Bytes.get_int32_be header 0) land 0xFFFFFFFF in
      let last = word land last_flag <> 0 in
      let len = word land max_fragment in
      if len = 0 then raise (Corrupt "zero-length fragment");
      (* A corrupt length word must not leave the reader buffering
         forever toward a bound no sane RPC approaches; the largest
         legitimate record here is an 8 KB WRITE plus headers. *)
      if len > max_sane_fragment then
        raise (Corrupt (Printf.sprintf "fragment length %d too large" len));
      if Mbuf.length t.buf < 4 + len then None
      else begin
        ignore (take_buf t 4);
        let frag = take_buf t len in
        if last then begin
          let record = Mbuf.empty () in
          List.iter
            (fun f -> Mbuf.append_chain record f)
            (List.rev (frag :: t.fragments));
          t.fragments <- [];
          Some record
        end
        else begin
          t.fragments <- frag :: t.fragments;
          pop t
        end
      end
    end

  let buffered t = Mbuf.length t.buf
end
