let mlen = 112
let mclbytes = 2048

(* Allocate a cluster rather than chaining small mbufs once this many
   bytes remain to be stored (MINCLSIZE in 4.3BSD). *)
let mincl_size = 208

module Counters = struct
  type t = {
    mutable bytes_copied : int;
    mutable smalls_allocated : int;
    mutable clusters_allocated : int;
    mutable pool_hits : int;
  }

  let create () =
    { bytes_copied = 0; smalls_allocated = 0; clusters_allocated = 0; pool_hits = 0 }

  let reset t =
    t.bytes_copied <- 0;
    t.smalls_allocated <- 0;
    t.clusters_allocated <- 0;
    t.pool_hits <- 0
end

type mbuf = {
  data : Bytes.t;
  mutable off : int;
  mutable len : int;
  cluster : bool;
  writable : bool; (* false for views produced by [split] *)
  refs : int ref; (* live records sharing [data]; views share the cell *)
}

(* Free lists of recycled storage.  Only exactly pool-sized buffers are
   kept, so storage that came from [of_bytes] of arbitrary data (or from
   outside the pool entirely) silently falls back to the GC. *)
module Pool = struct
  type t = {
    mutable smalls : Bytes.t list;
    mutable clusters : Bytes.t list;
    mutable nsmalls : int;
    mutable nclusters : int;
    small_cap : int;
    cluster_cap : int;
    mutable hits : int;
    mutable recycled : int;
  }

  let create ?(small_cap = 2048) ?(cluster_cap = 512) () =
    {
      smalls = [];
      clusters = [];
      nsmalls = 0;
      nclusters = 0;
      small_cap;
      cluster_cap;
      hits = 0;
      recycled = 0;
    }

  let grab t cluster =
    if cluster then
      match t.clusters with
      | [] -> None
      | b :: rest ->
          t.clusters <- rest;
          t.nclusters <- t.nclusters - 1;
          t.hits <- t.hits + 1;
          Some b
    else
      match t.smalls with
      | [] -> None
      | b :: rest ->
          t.smalls <- rest;
          t.nsmalls <- t.nsmalls - 1;
          t.hits <- t.hits + 1;
          Some b

  let stash t b =
    let n = Bytes.length b in
    if n = mlen then begin
      if t.nsmalls < t.small_cap then begin
        t.smalls <- b :: t.smalls;
        t.nsmalls <- t.nsmalls + 1;
        t.recycled <- t.recycled + 1
      end
    end
    else if n = mclbytes && t.nclusters < t.cluster_cap then begin
      t.clusters <- b :: t.clusters;
      t.nclusters <- t.nclusters + 1;
      t.recycled <- t.recycled + 1
    end

  let hits t = t.hits
  let recycled t = t.recycled
  let small_free t = t.nsmalls
  let cluster_free t = t.nclusters
end

type t = { mutable rev : mbuf list; mutable total : int }
(* [rev] holds the mbufs in reverse order so append is O(1). *)

let empty () = { rev = []; total = 0 }
let length t = t.total
let num_mbufs t = List.length t.rev
let num_clusters t = List.length (List.filter (fun m -> m.cluster) t.rev)

let cluster_bytes t =
  List.fold_left (fun acc m -> if m.cluster then acc + m.len else acc) 0 t.rev

let note_copy ctr n =
  match ctr with
  | None -> ()
  | Some (c : Counters.t) -> c.bytes_copied <- c.bytes_copied + n

let alloc ?pool ctr want_cluster =
  let cluster = want_cluster in
  (match ctr with
  | None -> ()
  | Some (c : Counters.t) ->
      if cluster then c.clusters_allocated <- c.clusters_allocated + 1
      else c.smalls_allocated <- c.smalls_allocated + 1);
  let data =
    match pool with
    | None -> Bytes.create (if cluster then mclbytes else mlen)
    | Some p -> (
        match Pool.grab p cluster with
        | Some b ->
            (match ctr with
            | Some (c : Counters.t) -> c.pool_hits <- c.pool_hits + 1
            | None -> ());
            b
        | None -> Bytes.create (if cluster then mclbytes else mlen))
  in
  { data; off = 0; len = 0; cluster; writable = true; refs = ref 1 }

(* Explicit ownership: a chain's owner hands the storage back once the
   payload is dead.  Each record drops one reference; storage recycles
   only when the last sharer (a [split] view, usually) releases.  The
   chain is emptied, so releasing twice is a no-op rather than an
   aliasing bug. *)
let release ?pool t =
  (match pool with
  | None -> ()
  | Some p ->
      List.iter
        (fun m ->
          let r = m.refs in
          if !r > 0 then begin
            decr r;
            if !r = 0 then Pool.stash p m.data
          end)
        t.rev);
  t.rev <- [];
  t.total <- 0

let tail_room m =
  if not m.writable then 0 else Bytes.length m.data - (m.off + m.len)

let add_bytes ?ctr ?pool t src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Mbuf.add_bytes: range out of bounds";
  note_copy ctr len;
  let rec go off len =
    if len > 0 then begin
      let m =
        match t.rev with
        | m :: _ when tail_room m > 0 -> m
        | _ ->
            let m = alloc ?pool ctr (len >= mincl_size) in
            t.rev <- m :: t.rev;
            m
      in
      let n = Int.min len (tail_room m) in
      Bytes.blit src off m.data (m.off + m.len) n;
      m.len <- m.len + n;
      t.total <- t.total + n;
      go (off + n) (len - n)
    end
  in
  go off len

let add_string ?ctr ?pool t s =
  add_bytes ?ctr ?pool t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let add_u32 ?ctr ?pool t v =
  match t.rev with
  | m :: _ when tail_room m >= 4 ->
      (* Write straight into the tail: the common case in XDR encoding,
         which is word-at-a-time, so the staging buffer below would
         otherwise be allocated once per field.  The int32 never leaves
         this expression, so it is not boxed. *)
      Bytes.set_int32_be m.data (m.off + m.len) (Int32.of_int v);
      m.len <- m.len + 4;
      t.total <- t.total + 4;
      note_copy ctr 4
  | _ ->
      (* The 4-byte staging buffer must be per call: a module-level
         scratch is written concurrently when experiment cells encode on
         several domains, and corrupts the word. *)
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int v);
      add_bytes ?ctr ?pool t b ~off:0 ~len:4

let of_bytes ?ctr ?pool b =
  let t = empty () in
  add_bytes ?ctr ?pool t b ~off:0 ~len:(Bytes.length b);
  t

let of_string ?ctr ?pool s =
  let t = empty () in
  add_string ?ctr ?pool t s;
  t

let iter_mbufs t f = List.iter f (List.rev t.rev)

let to_bytes ?ctr t =
  let out = Bytes.create t.total in
  let pos = ref 0 in
  iter_mbufs t (fun m ->
      Bytes.blit m.data m.off out !pos m.len;
      pos := !pos + m.len);
  note_copy ctr t.total;
  out

let append_chain a b =
  a.rev <- b.rev @ a.rev;
  a.total <- a.total + b.total;
  b.rev <- [];
  b.total <- 0

let split t n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.split: index out of bounds";
  let front = empty () and back = empty () in
  let take chain m =
    chain.rev <- m :: chain.rev;
    chain.total <- chain.total + m.len
  in
  let left = ref n in
  iter_mbufs t (fun m ->
      if !left >= m.len then begin
        take front m;
        left := !left - m.len
      end
      else if !left = 0 then take back m
      else begin
        (* Straddling mbuf: share the underlying storage as two views.
           One record conceptually dies and two are born, so the shared
           reference count grows by exactly one. *)
        incr m.refs;
        let head =
          {
            data = m.data;
            off = m.off;
            len = !left;
            cluster = m.cluster;
            writable = false;
            refs = m.refs;
          }
        and tail =
          {
            data = m.data;
            off = m.off + !left;
            len = m.len - !left;
            cluster = m.cluster;
            writable = false;
            refs = m.refs;
          }
        in
        take front head;
        take back tail;
        left := 0
      end);
  (front, back)

let sub_copy ?ctr ?pool t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Mbuf.sub_copy: range out of bounds";
  let out = empty () in
  let skip = ref pos and want = ref len in
  iter_mbufs t (fun m ->
      if !want > 0 then begin
        let drop = Int.min !skip m.len in
        skip := !skip - drop;
        let avail = m.len - drop in
        if avail > 0 then begin
          let n = Int.min avail !want in
          add_bytes ?ctr ?pool out m.data ~off:(m.off + drop) ~len:n;
          want := !want - n
        end
      end);
  out

(* Native-byte-order loads without bounds checks. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The byte pair [hi], [lo] as a native-order 16-bit load reads it. *)
let native_word hi lo = if Sys.big_endian then (hi lsl 8) lor lo else (lo lsl 8) lor hi

let checksum t =
  (* Internet checksum: ones-complement sum of 16-bit big-endian words,
     by the two RFC 1071 properties that make a wide loop exact.  Carries
     can be deferred to one final fold, so a 63-bit accumulator takes
     each 8-byte load as two 32-bit halves.  The sum is independent of
     byte order up to a final swap, so every word is added in native
     order and the folded 16 bits are swapped once on a little-endian
     host.  [high] is the pending odd leading byte across an mbuf
     boundary, -1 when none.  Keep the walk's allocation (the reversed
     list, two refs, one closure) as it is: this runs per packet on
     every path, and peak heap follows GC pacing (DESIGN.md). *)
  let sum = ref 0 in
  let high = ref (-1) in
  List.iter
    (fun m ->
      let data = m.data in
      let base = m.off and len = m.len in
      let i = ref 0 in
      (* In-bounds by the mbuf invariant (off + len <= capacity), so the
         loads can skip the bounds checks. *)
      if !high >= 0 && len > 0 then begin
        sum := !sum + native_word !high (Char.code (Bytes.unsafe_get data base));
        high := -1;
        i := 1
      end;
      let acc = ref 0 in
      while !i + 8 <= len do
        let w = unsafe_get64 data (base + !i) in
        acc :=
          !acc
          + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
          + Int64.to_int (Int64.shift_right_logical w 32);
        i := !i + 8
      done;
      while !i + 1 < len do
        acc := !acc + unsafe_get16 data (base + !i);
        i := !i + 2
      done;
      sum := !sum + !acc;
      if !i < len then high := Char.code (Bytes.unsafe_get data (base + !i)))
    (List.rev t.rev);
  if !high >= 0 then sum := !sum + native_word !high 0;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  let s = if Sys.big_endian then !sum else ((!sum land 0xFF) lsl 8) lor (!sum lsr 8) in
  lnot s land 0xFFFF

module Cursor = struct
  exception Underrun

  type cursor = {
    mutable mbufs : mbuf list; (* in order, head is current *)
    mutable pos : int; (* offset within head's payload *)
    mutable left : int;
  }

  type t = cursor

  let create chain =
    { mbufs = List.rev chain.rev; pos = 0; left = chain.total }

  let remaining c = c.left

  let read_into c dst off len =
    (* A negative length means a garbage count decoded off the wire;
       treat it as an underrun, never as a request to Bytes. *)
    if len < 0 || len > c.left then raise Underrun;
    let off = ref off and want = ref len in
    while !want > 0 do
      match c.mbufs with
      | [] -> raise Underrun
      | m :: rest ->
          let avail = m.len - c.pos in
          if avail = 0 then begin
            c.mbufs <- rest;
            c.pos <- 0
          end
          else begin
            let n = Int.min avail !want in
            Bytes.blit m.data (m.off + c.pos) dst !off n;
            c.pos <- c.pos + n;
            off := !off + n;
            want := !want - n
          end
    done;
    c.left <- c.left - len

  let bytes c n =
    (* Bounds-check before allocating: a corrupt 4 GB length must raise
       Underrun here, not Invalid_argument (or a huge allocation) from
       [Bytes.create]. *)
    if n < 0 || n > c.left then raise Underrun;
    let out = Bytes.create n in
    read_into c out 0 n;
    out

  let rec u32 c =
    match c.mbufs with
    | m :: _ when m.len - c.pos >= 4 ->
        (* Read in place; the int32 is never boxed. *)
        let v = Bytes.get_int32_be m.data (m.off + c.pos) in
        c.pos <- c.pos + 4;
        c.left <- c.left - 4;
        Int32.to_int v land 0xFFFF_FFFF
    | m :: rest when m.len = c.pos ->
        c.mbufs <- rest;
        c.pos <- 0;
        u32 c
    | _ ->
        (* The word straddles two mbufs, or fewer than four bytes are left. *)
        Int32.to_int (Bytes.get_int32_be (bytes c 4) 0) land 0xFFFF_FFFF

  let skip c n =
    (* [n < 0] would skip the loop yet grow [c.left] below. *)
    if n < 0 || n > c.left then raise Underrun;
    let want = ref n in
    while !want > 0 do
      match c.mbufs with
      | [] -> raise Underrun
      | m :: rest ->
          let avail = m.len - c.pos in
          if avail = 0 then begin
            c.mbufs <- rest;
            c.pos <- 0
          end
          else begin
            let k = Int.min avail !want in
            c.pos <- c.pos + k;
            want := !want - k
          end
    done;
    c.left <- c.left - n
end
