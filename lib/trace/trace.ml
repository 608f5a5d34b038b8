module Stats = Renofs_engine.Stats
module Json = Renofs_json.Json

type drop_reason =
  | Queue_full
  | Link_error
  | Sock_overflow
  | Link_down
  | Bad_checksum
  | Garbled

type event =
  | Rpc_send of { xid : int32; proc : int }
  | Rpc_retransmit of { xid : int32; proc : int; retry : int; rto : float }
  | Rpc_reply of { xid : int32; proc : int; rtt : float }
  | Pkt_enqueue of { link : string; bytes : int; qlen : int }
  | Pkt_drop of { link : string; bytes : int; reason : drop_reason }
  | Pkt_deliver of { link : string; bytes : int }
  | Pkt_mangle of { link : string; bytes : int; op : string }
  | Frag_lost of { src : int; ip_id : int }
  | Srv_queue of { xid : int32; proc : int; wait : float }
  | Srv_service of { xid : int32; proc : int; service : float }
  | Cwnd_update of { cwnd : float }
  | Rto_update of { rto : float }
  | Cache_hit of { cache : string }
  | Cache_miss of { cache : string }
  | Run_mark of { label : string }
  | Srv_crash
  | Srv_reboot
  | Write_committed of {
      file : int;
      off : int;
      len : int;
      digest : int;
      mtime : float;
    }
  | Lease_grant of { file : int; mode : string; holder : int; duration : float }
  | Cached_read of { file : int; holder : int; mtime : float }
  | Wl_error of { op : string; soft : bool }
  | Fault_inject of { action : string }
  | Write_unstable of {
      file : int;
      off : int;
      len : int;
      digest : int;
      verf : int;
    }
  | Commit_ok of { file : int; off : int; count : int; verf : int }
  | Verf_mismatch of { file : int; expected : int; got : int }

let reason_name = function
  | Queue_full -> "queue_full"
  | Link_error -> "link_error"
  | Sock_overflow -> "sock_overflow"
  | Link_down -> "link_down"
  | Bad_checksum -> "bad_checksum"
  | Garbled -> "garbled"

(* Raises [Failure] like every other parse error in this file, so
   [import_jsonl] wraps it with its [path:line:] location. *)
let reason_of_name = function
  | "queue_full" -> Queue_full
  | "link_error" -> Link_error
  | "sock_overflow" -> Sock_overflow
  | "link_down" -> Link_down
  | "bad_checksum" -> Bad_checksum
  | "garbled" -> Garbled
  | s -> failwith (Printf.sprintf "Trace: unknown drop reason %S" s)

type record_ = { time : float; node : int; ev : event }

(* Each record is one 64-byte slot in a [Bytes] chunk, so the ring holds
   no pointer for the GC to promote, mark or write-barrier.  A slot is
   eight 64-bit words:

     0     the time, as float bits
     1     the node
     2     the event tag (low 8 bits) and one interned-string id above it
     3..6  four int words: an [int32] xid is widened into word 3, and a
           second string ([Pkt_mangle]'s op, [Pkt_drop]'s reason name)
           is interned and its id stored in word 4
     7     an int or a float's bits, by tag

   Each tag writes and reads only its own words; the others hold stale
   bytes.  A chunk is allocated when the ring first reaches it, so a
   sink's memory grows with the records it holds, not its capacity. *)

let chunk_bits = 12
let chunk_slots = 1 lsl chunk_bits
let slot_bytes = 64

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  capacity : int;  (* 0: no ring *)
  chunks : Bytes.t array;  (* [Bytes.empty] until first written *)
  mutable next : int; (* next slot to overwrite *)
  mutable held : int;
  mutable total : int;
  mutable on : bool;
  mutable probe : Renofs_engine.Probe.t option;
  mutable hook : (record_ -> unit) option;
  ids : (string, int) Hashtbl.t;  (* interned strings, with [strings] *)
  mutable strings : string array;  (* by id *)
  mutable last : string;  (* the string interned last, and its id *)
  mutable last_id : int;
}

let create ?(capacity = 1 lsl 18) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  let ids = Hashtbl.create 16 in
  Hashtbl.add ids "" 0;
  {
    capacity;
    chunks =
      Array.make ((capacity + chunk_slots - 1) lsr chunk_bits) Bytes.empty;
    next = 0;
    held = 0;
    total = 0;
    on = true;
    probe = None;
    hook = None;
    ids;
    strings = [| "" |];
    last = "";
    last_id = 0;
  }

(* The string interned last is checked by physical equality before any
   hashing: a link records its name from the one value it holds, often
   several records in a row. *)
let intern t s =
  if s == t.last then t.last_id
  else begin
    let id =
      match Hashtbl.find t.ids s with
      | id -> id
      | exception Not_found ->
          let id = Hashtbl.length t.ids in
          if id = Array.length t.strings then begin
            let a = Array.make (2 * id) "" in
            Array.blit t.strings 0 a 0 id;
            t.strings <- a
          end;
          t.strings.(id) <- s;
          Hashtbl.add t.ids s id;
          id
    in
    t.last <- s;
    t.last_id <- id;
    id
  end

let chunk t slot =
  let i = slot lsr chunk_bits in
  let c = Array.unsafe_get t.chunks i in
  if Bytes.length c > 0 then c
  else begin
    let c =
      Bytes.create
        (Int.min chunk_slots (t.capacity - (i lsl chunk_bits)) * slot_bytes)
    in
    t.chunks.(i) <- c;
    c
  end

let[@inline] offset slot = (slot land (chunk_slots - 1)) * slot_bytes

(* [c] is a chunk, [o] a slot's offset in it and [w] a word index, 0..7.
   No [int64] leaves these helpers, so a write boxes nothing. *)
let[@inline] set_int c o w v = set64 c (o + (8 * w)) (Int64.of_int v)
let[@inline] get_int c o w = Int64.to_int (get64 c (o + (8 * w)))
let[@inline] set_float c o w v = set64 c (o + (8 * w)) (Int64.bits_of_float v)
let[@inline] get_float c o w = Int64.float_of_bits (get64 c (o + (8 * w)))
let[@inline] set_tag c o tag sid = set_int c o 2 (tag lor (sid lsl 8))

(* Tags number the constructors in declaration order. *)
let write t ~time ~node ev =
  let slot = t.next in
  let c = chunk t slot in
  let o = offset slot in
  set_float c o 0 time;
  set_int c o 1 node;
  (match ev with
  | Rpc_send { xid; proc } ->
      set_tag c o 0 0;
      set_int c o 3 (Int32.to_int xid);
      set_int c o 4 proc
  | Rpc_retransmit { xid; proc; retry; rto } ->
      set_tag c o 1 0;
      set_int c o 3 (Int32.to_int xid);
      set_int c o 4 proc;
      set_int c o 5 retry;
      set_float c o 7 rto
  | Rpc_reply { xid; proc; rtt } ->
      set_tag c o 2 0;
      set_int c o 3 (Int32.to_int xid);
      set_int c o 4 proc;
      set_float c o 7 rtt
  | Pkt_enqueue { link; bytes; qlen } ->
      set_tag c o 3 (intern t link);
      set_int c o 3 bytes;
      set_int c o 4 qlen
  | Pkt_drop { link; bytes; reason } ->
      set_tag c o 4 (intern t link);
      set_int c o 3 bytes;
      set_int c o 4 (intern t (reason_name reason))
  | Pkt_deliver { link; bytes } ->
      set_tag c o 5 (intern t link);
      set_int c o 3 bytes
  | Pkt_mangle { link; bytes; op } ->
      set_tag c o 6 (intern t link);
      set_int c o 3 bytes;
      set_int c o 4 (intern t op)
  | Frag_lost { src; ip_id } ->
      set_tag c o 7 0;
      set_int c o 3 src;
      set_int c o 4 ip_id
  | Srv_queue { xid; proc; wait } ->
      set_tag c o 8 0;
      set_int c o 3 (Int32.to_int xid);
      set_int c o 4 proc;
      set_float c o 7 wait
  | Srv_service { xid; proc; service } ->
      set_tag c o 9 0;
      set_int c o 3 (Int32.to_int xid);
      set_int c o 4 proc;
      set_float c o 7 service
  | Cwnd_update { cwnd } ->
      set_tag c o 10 0;
      set_float c o 7 cwnd
  | Rto_update { rto } ->
      set_tag c o 11 0;
      set_float c o 7 rto
  | Cache_hit { cache } -> set_tag c o 12 (intern t cache)
  | Cache_miss { cache } -> set_tag c o 13 (intern t cache)
  | Run_mark { label } -> set_tag c o 14 (intern t label)
  | Srv_crash -> set_tag c o 15 0
  | Srv_reboot -> set_tag c o 16 0
  | Write_committed { file; off; len; digest; mtime } ->
      set_tag c o 17 0;
      set_int c o 3 file;
      set_int c o 4 off;
      set_int c o 5 len;
      set_int c o 6 digest;
      set_float c o 7 mtime
  | Lease_grant { file; mode; holder; duration } ->
      set_tag c o 18 (intern t mode);
      set_int c o 3 file;
      set_int c o 4 holder;
      set_float c o 7 duration
  | Cached_read { file; holder; mtime } ->
      set_tag c o 19 0;
      set_int c o 3 file;
      set_int c o 4 holder;
      set_float c o 7 mtime
  | Wl_error { op; soft } ->
      set_tag c o 20 (intern t op);
      set_int c o 3 (Bool.to_int soft)
  | Fault_inject { action } -> set_tag c o 21 (intern t action)
  | Write_unstable { file; off; len; digest; verf } ->
      set_tag c o 22 0;
      set_int c o 3 file;
      set_int c o 4 off;
      set_int c o 5 len;
      set_int c o 6 digest;
      set_int c o 7 verf
  | Commit_ok { file; off; count; verf } ->
      set_tag c o 23 0;
      set_int c o 3 file;
      set_int c o 4 off;
      set_int c o 5 count;
      set_int c o 6 verf
  | Verf_mismatch { file; expected; got } ->
      set_tag c o 24 0;
      set_int c o 3 file;
      set_int c o 4 expected;
      set_int c o 5 got);
  t.next <- (if slot + 1 = t.capacity then 0 else slot + 1);
  if t.held < t.capacity then t.held <- t.held + 1

let decode t slot =
  let c = t.chunks.(slot lsr chunk_bits) in
  let o = offset slot in
  let w = get_int c o 2 in
  let s = t.strings.(w lsr 8) in
  let i0 = get_int c o 3 and i1 = get_int c o 4 in
  let i2 = get_int c o 5 and i3 = get_int c o 6 in
  let ev =
    match w land 0xff with
    | 0 -> Rpc_send { xid = Int32.of_int i0; proc = i1 }
    | 1 ->
        Rpc_retransmit
          {
            xid = Int32.of_int i0;
            proc = i1;
            retry = i2;
            rto = get_float c o 7;
          }
    | 2 ->
        Rpc_reply { xid = Int32.of_int i0; proc = i1; rtt = get_float c o 7 }
    | 3 -> Pkt_enqueue { link = s; bytes = i0; qlen = i1 }
    | 4 ->
        Pkt_drop
          { link = s; bytes = i0; reason = reason_of_name t.strings.(i1) }
    | 5 -> Pkt_deliver { link = s; bytes = i0 }
    | 6 -> Pkt_mangle { link = s; bytes = i0; op = t.strings.(i1) }
    | 7 -> Frag_lost { src = i0; ip_id = i1 }
    | 8 ->
        Srv_queue { xid = Int32.of_int i0; proc = i1; wait = get_float c o 7 }
    | 9 ->
        Srv_service
          { xid = Int32.of_int i0; proc = i1; service = get_float c o 7 }
    | 10 -> Cwnd_update { cwnd = get_float c o 7 }
    | 11 -> Rto_update { rto = get_float c o 7 }
    | 12 -> Cache_hit { cache = s }
    | 13 -> Cache_miss { cache = s }
    | 14 -> Run_mark { label = s }
    | 15 -> Srv_crash
    | 16 -> Srv_reboot
    | 17 ->
        Write_committed
          { file = i0; off = i1; len = i2; digest = i3;
            mtime = get_float c o 7 }
    | 18 ->
        Lease_grant
          { file = i0; mode = s; holder = i1; duration = get_float c o 7 }
    | 19 -> Cached_read { file = i0; holder = i1; mtime = get_float c o 7 }
    | 20 -> Wl_error { op = s; soft = i0 <> 0 }
    | 21 -> Fault_inject { action = s }
    | 22 ->
        Write_unstable
          { file = i0; off = i1; len = i2; digest = i3;
            verf = get_int c o 7 }
    | 23 -> Commit_ok { file = i0; off = i1; count = i2; verf = i3 }
    | 24 -> Verf_mismatch { file = i0; expected = i1; got = i2 }
    | tag -> failwith (Printf.sprintf "Trace: corrupt slot tag %d" tag)
  in
  { time = get_float c o 0; node = get_int c o 1; ev }

let set_probe t p = t.probe <- p
let set_hook t h = t.hook <- h

let offer t ~time ~node ev =
  if t.capacity > 0 then write t ~time ~node ev;
  t.total <- t.total + 1;
  match t.hook with None -> () | Some h -> h { time; node; ev }

let record t ~time ~node ev =
  if t.on then
    (* When probed, the recording cost itself (ring and hook) is charged
       to the observer slot — that is the "how much does tracing cost"
       answer. *)
    match t.probe with
    | None -> offer t ~time ~node ev
    | Some p ->
        let d = p.Renofs_engine.Probe.enter Renofs_engine.Probe.observer in
        offer t ~time ~node ev;
        p.Renofs_engine.Probe.leave d

let mark t ~time label = record t ~time ~node:(-1) (Run_mark { label })
let set_enabled t on = t.on <- on
let enabled t = t.on
let length t = t.held
let total t = t.total
let dropped t = t.total - t.held

(* The newest [n] survivors, oldest first: walk back from the slot
   before [next]. *)
let newest t n =
  let acc = ref [] and slot = ref t.next in
  for _ = 1 to Int.min n (length t) do
    slot := (if !slot = 0 then t.capacity else !slot) - 1;
    acc := decode t !slot :: !acc
  done;
  !acc

let to_list t = newest t (length t)
let capacity t = t.capacity

let merge ~into src =
  if into.on then into.total <- into.total + dropped src;
  List.iter
    (fun { time; node; ev } -> record into ~time ~node ev)
    (to_list src)

let proc_name = function
  | 0 -> "null"
  | 1 -> "getattr"
  | 2 -> "setattr"
  | 3 -> "root"
  | 4 -> "lookup"
  | 5 -> "readlink"
  | 6 -> "read"
  | 7 -> "writecache"
  | 8 -> "write"
  | 9 -> "create"
  | 10 -> "remove"
  | 11 -> "rename"
  | 12 -> "link"
  | 13 -> "symlink"
  | 14 -> "mkdir"
  | 15 -> "rmdir"
  | 16 -> "readdir"
  | 17 -> "statfs"
  | 18 -> "readdirlook"
  | 19 -> "getlease"
  | 20 -> "write3"
  | 21 -> "commit"
  | n -> Printf.sprintf "proc%d" n

(* FNV-1a folded to 30 bits: stays a small nonnegative int on every
   platform and round-trips exactly through the JSONL float fields, so
   trace files compare byte for byte across runs.  Folding once at the
   end gives the value folding per byte would (2^30 divides 2^64, and
   the xor touches only the low 8 bits), so the loop keeps an unboxed
   [int64] whose serial chain is one xor and one multiply per byte.  The
   empty input returns the unfolded basis (see trace.mli). *)
let digest b =
  let n = Bytes.length b in
  if n = 0 then 0x811c9dc5
  else begin
    let h = ref 0x811c9dc5L in
    for i = 0 to n - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
          0x01000193L
    done;
    Int64.to_int !h land 0x3FFFFFFF
  end

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let json_of_record r =
  let num k v = (k, Json.Num v) in
  let int k v = (k, Json.Num (float_of_int v)) in
  let str k v = (k, Json.Str v) in
  let xid v = int "xid" (Int32.to_int v) in
  let tag, fields =
    match r.ev with
    | Rpc_send { xid = x; proc } -> ("rpc_send", [ xid x; int "proc" proc ])
    | Rpc_retransmit { xid = x; proc; retry; rto } ->
        ( "rpc_retransmit",
          [ xid x; int "proc" proc; int "retry" retry; num "rto" rto ] )
    | Rpc_reply { xid = x; proc; rtt } ->
        ("rpc_reply", [ xid x; int "proc" proc; num "rtt" rtt ])
    | Pkt_enqueue { link; bytes; qlen } ->
        ("pkt_enqueue", [ str "link" link; int "bytes" bytes; int "qlen" qlen ])
    | Pkt_drop { link; bytes; reason } ->
        ( "pkt_drop",
          [ str "link" link; int "bytes" bytes; str "reason" (reason_name reason) ] )
    | Pkt_deliver { link; bytes } ->
        ("pkt_deliver", [ str "link" link; int "bytes" bytes ])
    | Pkt_mangle { link; bytes; op } ->
        ("pkt_mangle", [ str "link" link; int "bytes" bytes; str "op" op ])
    | Frag_lost { src; ip_id } -> ("frag_lost", [ int "src" src; int "ip_id" ip_id ])
    | Srv_queue { xid = x; proc; wait } ->
        ("srv_queue", [ xid x; int "proc" proc; num "wait" wait ])
    | Srv_service { xid = x; proc; service } ->
        ("srv_service", [ xid x; int "proc" proc; num "service" service ])
    | Cwnd_update { cwnd } -> ("cwnd_update", [ num "cwnd" cwnd ])
    | Rto_update { rto } -> ("rto_update", [ num "rto" rto ])
    | Cache_hit { cache } -> ("cache_hit", [ str "cache" cache ])
    | Cache_miss { cache } -> ("cache_miss", [ str "cache" cache ])
    | Run_mark { label } -> ("run_mark", [ str "label" label ])
    | Srv_crash -> ("srv_crash", [])
    | Srv_reboot -> ("srv_reboot", [])
    | Write_committed { file; off; len; digest; mtime } ->
        ( "write_committed",
          [
            int "file" file; int "off" off; int "len" len; int "digest" digest;
            num "mtime" mtime;
          ] )
    | Lease_grant { file; mode; holder; duration } ->
        ( "lease_grant",
          [
            int "file" file; str "mode" mode; int "holder" holder;
            num "duration" duration;
          ] )
    | Cached_read { file; holder; mtime } ->
        ("cached_read", [ int "file" file; int "holder" holder; num "mtime" mtime ])
    | Wl_error { op; soft } ->
        ("wl_error", [ str "op" op; int "soft" (if soft then 1 else 0) ])
    | Fault_inject { action } -> ("fault_inject", [ str "action" action ])
    | Write_unstable { file; off; len; digest; verf } ->
        ( "write_unstable",
          [
            int "file" file; int "off" off; int "len" len; int "digest" digest;
            int "verf" verf;
          ] )
    | Commit_ok { file; off; count; verf } ->
        ( "commit_ok",
          [ int "file" file; int "off" off; int "count" count; int "verf" verf ] )
    | Verf_mismatch { file; expected; got } ->
        ( "verf_mismatch",
          [ int "file" file; int "expected" expected; int "got" got ] )
  in
  Json.Obj (num "t" r.time :: int "node" r.node :: str "ev" tag :: fields)

let line_of_record r = Json.to_string Compact (json_of_record r)

let fields_of_line line =
  match Json.parse line with
  | Ok (Obj fields) -> fields
  | Ok _ -> failwith ("Trace: bad JSONL (not an object): " ^ line)
  | Error msg -> failwith (Printf.sprintf "Trace: bad JSONL (%s): %s" msg line)

let record_of_fields fields =
  let find k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Trace: missing field %S" k)
  in
  let num k =
    match find k with
    | Json.Num v -> v
    | _ -> failwith ("Trace: field " ^ k ^ " is not a number")
  in
  let str k =
    match find k with
    | Json.Str s -> s
    | _ -> failwith ("Trace: field " ^ k ^ " is not a string")
  in
  let int k =
    try Json.int ~ctx:("Trace: field " ^ k) (find k)
    with Json.Bad msg -> failwith msg
  in
  let xid () = Int32.of_int (int "xid") in
  let ev =
    match str "ev" with
    | "rpc_send" -> Rpc_send { xid = xid (); proc = int "proc" }
    | "rpc_retransmit" ->
        Rpc_retransmit
          { xid = xid (); proc = int "proc"; retry = int "retry"; rto = num "rto" }
    | "rpc_reply" -> Rpc_reply { xid = xid (); proc = int "proc"; rtt = num "rtt" }
    | "pkt_enqueue" ->
        Pkt_enqueue { link = str "link"; bytes = int "bytes"; qlen = int "qlen" }
    | "pkt_drop" ->
        Pkt_drop
          { link = str "link"; bytes = int "bytes";
            reason = reason_of_name (str "reason") }
    | "pkt_deliver" -> Pkt_deliver { link = str "link"; bytes = int "bytes" }
    | "pkt_mangle" ->
        Pkt_mangle { link = str "link"; bytes = int "bytes"; op = str "op" }
    | "frag_lost" -> Frag_lost { src = int "src"; ip_id = int "ip_id" }
    | "srv_queue" -> Srv_queue { xid = xid (); proc = int "proc"; wait = num "wait" }
    | "srv_service" ->
        Srv_service { xid = xid (); proc = int "proc"; service = num "service" }
    | "cwnd_update" -> Cwnd_update { cwnd = num "cwnd" }
    | "rto_update" -> Rto_update { rto = num "rto" }
    | "cache_hit" -> Cache_hit { cache = str "cache" }
    | "cache_miss" -> Cache_miss { cache = str "cache" }
    | "run_mark" -> Run_mark { label = str "label" }
    | "srv_crash" -> Srv_crash
    | "srv_reboot" -> Srv_reboot
    | "write_committed" ->
        Write_committed
          { file = int "file"; off = int "off"; len = int "len";
            digest = int "digest"; mtime = num "mtime" }
    | "lease_grant" ->
        Lease_grant
          { file = int "file"; mode = str "mode"; holder = int "holder";
            duration = num "duration" }
    | "cached_read" ->
        Cached_read
          { file = int "file"; holder = int "holder"; mtime = num "mtime" }
    | "wl_error" -> Wl_error { op = str "op"; soft = int "soft" <> 0 }
    | "fault_inject" -> Fault_inject { action = str "action" }
    | "write_unstable" ->
        Write_unstable
          { file = int "file"; off = int "off"; len = int "len";
            digest = int "digest"; verf = int "verf" }
    | "commit_ok" ->
        Commit_ok
          { file = int "file"; off = int "off"; count = int "count";
            verf = int "verf" }
    | "verf_mismatch" ->
        Verf_mismatch
          { file = int "file"; expected = int "expected"; got = int "got" }
    | tag -> failwith ("Trace: unknown event tag " ^ tag)
  in
  { time = num "t"; node = int "node"; ev }

let record_of_line line = record_of_fields (fields_of_line line)

let export_jsonl ?last t path =
  let records =
    match last with Some n -> newest t n | None -> to_list t
  in
  let written = List.length records in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* The metadata header makes ring overwrites visible in the file
         itself (no silent truncation): [held] records follow, out of
         [total] observed; the other [overwritten] are not in the file.
         Readers that predate the header see a line without a "t"
         field and can skip any line carrying "schema". *)
      Json.output_line oc
        (Obj
           [
             ("schema", Str "renofs-trace/1");
             ("held", Num (float_of_int written));
             ("total", Num (float_of_int t.total));
             ("overwritten", Num (float_of_int (t.total - written)));
           ]);
      List.iter (fun r -> Json.output_line oc (json_of_record r)) records)

let import_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | "" -> go (lineno + 1) acc
        | line ->
            let r =
              try
                let fields = fields_of_line line in
                if List.mem_assoc "schema" fields then None
                else Some (record_of_fields fields)
              with Failure msg ->
                failwith (Printf.sprintf "%s:%d: %s" path lineno msg)
            in
            go (lineno + 1) (Option.fold ~none:acc ~some:(fun r -> r :: acc) r)
        | exception End_of_file -> List.rev acc
      in
      go 1 [])

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

module Report = struct
  type span = {
    sp_label : string;
    sp_xid : int32;
    sp_proc : int;
    sp_start : float;
    sp_retrans : int;
    sp_rtx_wait : float;
    sp_srv_wait : float;
    sp_srv_service : float;
    sp_total : float;
  }

  type partial = {
    pt_proc : int;
    pt_first : float;
    mutable pt_last : float;
    mutable pt_retrans : int;
    mutable pt_wait : float;
    mutable pt_service : float;
  }

  (* The span join as a fold over records in stream order: [on_span]
     sees each RPC when its reply completes it. *)
  type join = {
    on_span : span -> unit;
    pending : (int32, partial) Hashtbl.t;
    mutable label : string;
    mutable unanswered : int;  (* sends a mark or a reused xid abandoned *)
  }

  let join on_span =
    { on_span; pending = Hashtbl.create 256; label = ""; unanswered = 0 }

  let observe j r =
    match r.ev with
    | Run_mark { label } ->
        j.unanswered <- j.unanswered + Hashtbl.length j.pending;
        Hashtbl.reset j.pending;
        j.label <- label
    | Rpc_send { xid; proc } ->
        if Hashtbl.mem j.pending xid then j.unanswered <- j.unanswered + 1;
        Hashtbl.replace j.pending xid
          {
            pt_proc = proc;
            pt_first = r.time;
            pt_last = r.time;
            pt_retrans = 0;
            pt_wait = 0.0;
            pt_service = 0.0;
          }
    | Rpc_retransmit { xid; _ } -> (
        match Hashtbl.find_opt j.pending xid with
        | Some p ->
            p.pt_last <- r.time;
            p.pt_retrans <- p.pt_retrans + 1
        | None -> ())
    | Srv_queue { xid; wait; _ } -> (
        match Hashtbl.find_opt j.pending xid with
        | Some p -> p.pt_wait <- wait
        | None -> ())
    | Srv_service { xid; service; _ } -> (
        match Hashtbl.find_opt j.pending xid with
        | Some p -> p.pt_service <- service
        | None -> ())
    | Rpc_reply { xid; _ } -> (
        match Hashtbl.find_opt j.pending xid with
        | Some p ->
            Hashtbl.remove j.pending xid;
            let total = r.time -. p.pt_first in
            j.on_span
              {
                sp_label = j.label;
                sp_xid = xid;
                sp_proc = p.pt_proc;
                sp_start = p.pt_first;
                sp_retrans = p.pt_retrans;
                (* Capped at the total: a retransmission the original
                   reply overtakes (nfsstat's badxid case) cannot have
                   delayed the RPC longer than the RPC took. *)
                sp_rtx_wait = Float.min (p.pt_last -. p.pt_first) total;
                sp_srv_wait = p.pt_wait;
                sp_srv_service = p.pt_service;
                sp_total = total;
              }
        | None -> ())
    | _ -> ()

  let wire_time sp =
    Float.max 0.0
      (sp.sp_total -. sp.sp_rtx_wait -. sp.sp_srv_wait -. sp.sp_srv_service)

  type proc_row = {
    pr_name : string;
    pr_calls : int;
    pr_retrans : int;
    pr_p50 : float;
    pr_p95 : float;
    pr_p99 : float;
  }

  type label_row = {
    lr_label : string;
    lr_calls : int;
    lr_total : float;
    lr_wire : float;
    lr_queue : float;
    lr_service : float;
    lr_rtx_wait : float;
  }

  type report = {
    by_proc : proc_row list;
    by_label : label_row list;
    complete : int;
    incomplete : int;
    events : int;
    events_dropped : int;
  }

  (* 1 ms buckets spanning 20 s: comfortably past the deepest RTO
     backoff the 56K experiments reach; slower RPCs land in the
     overflow bucket and report their quantile as [infinity]. *)
  let hist () = Stats.Hist.create ~bucket_width:1e-3 ~buckets:20_000

  type label_acc = {
    mutable la_calls : int;
    mutable la_total : float;
    mutable la_wire : float;
    mutable la_queue : float;
    mutable la_service : float;
    mutable la_rtx : float;
  }

  let build t =
    let records = to_list t in
    let complete = ref 0 in
    let procs : (int, int ref * int ref * Stats.Hist.t) Hashtbl.t =
      Hashtbl.create 24
    in
    let labels : (string, label_acc) Hashtbl.t = Hashtbl.create 8 in
    let label_order = ref [] in
    let add sp =
      incr complete;
      let calls, retrans, h =
        match Hashtbl.find_opt procs sp.sp_proc with
        | Some v -> v
        | None ->
            let v = (ref 0, ref 0, hist ()) in
            Hashtbl.replace procs sp.sp_proc v;
            v
      in
      incr calls;
      retrans := !retrans + sp.sp_retrans;
      Stats.Hist.add h sp.sp_total;
      let acc =
        match Hashtbl.find_opt labels sp.sp_label with
        | Some a -> a
        | None ->
            let a =
              {
                la_calls = 0;
                la_total = 0.0;
                la_wire = 0.0;
                la_queue = 0.0;
                la_service = 0.0;
                la_rtx = 0.0;
              }
            in
            Hashtbl.replace labels sp.sp_label a;
            label_order := sp.sp_label :: !label_order;
            a
      in
      acc.la_calls <- acc.la_calls + 1;
      acc.la_total <- acc.la_total +. sp.sp_total;
      acc.la_wire <- acc.la_wire +. wire_time sp;
      acc.la_queue <- acc.la_queue +. sp.sp_srv_wait;
      acc.la_service <- acc.la_service +. sp.sp_srv_service;
      acc.la_rtx <- acc.la_rtx +. sp.sp_rtx_wait
    in
    let j = join add in
    List.iter (observe j) records;
    let by_proc =
      Hashtbl.fold (fun proc (c, r, h) acc -> (proc, !c, !r, h) :: acc) procs []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      |> List.map (fun (proc, calls, retrans, h) ->
             {
               pr_name = proc_name proc;
               pr_calls = calls;
               pr_retrans = retrans;
               pr_p50 = Stats.Hist.quantile h 0.5;
               pr_p95 = Stats.Hist.quantile h 0.95;
               pr_p99 = Stats.Hist.quantile h 0.99;
             })
    in
    let by_label =
      List.rev !label_order
      |> List.map (fun l ->
             let a = Hashtbl.find labels l in
             let n = float_of_int (max 1 a.la_calls) in
             {
               lr_label = (if l = "" then "(unlabelled)" else l);
               lr_calls = a.la_calls;
               lr_total = a.la_total /. n;
               lr_wire = a.la_wire /. n;
               lr_queue = a.la_queue /. n;
               lr_service = a.la_service /. n;
               lr_rtx_wait = a.la_rtx /. n;
             })
    in
    {
      by_proc;
      by_label;
      complete = !complete;
      incomplete = j.unanswered + Hashtbl.length j.pending;
      events = List.length records;
      events_dropped = dropped t;
    }

  let ms v =
    if v = infinity then "inf" else Printf.sprintf "%.1f" (v *. 1000.0)

  let print_table fmt ~header rows =
    let widths =
      List.fold_left
        (fun acc row ->
          List.map2 (fun w cell -> max w (String.length cell)) acc row)
        (List.map String.length header)
        rows
    in
    let line row =
      Format.fprintf fmt "| %s |@."
        (String.concat " | "
           (List.map2
              (fun w cell -> cell ^ String.make (w - String.length cell) ' ')
              widths row))
    in
    line header;
    Format.fprintf fmt "|%s|@."
      (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
    List.iter line rows

  let print fmt r =
    (* Lead with coverage: a silently overwritten ring reads as a full
       record when it is anything but. *)
    Format.fprintf fmt "== trace coverage: %d events held, %d overwritten ==@."
      r.events r.events_dropped;
    if r.events_dropped > 0 then
      Format.fprintf fmt
        "WARNING: the ring overwrote %d events — the oldest spans are \
         missing from every table below; re-run with a larger capacity for \
         full coverage@."
        r.events_dropped;
    Format.fprintf fmt "== rpc statistics by procedure (nfsstat) ==@.";
    let total_calls = List.fold_left (fun a p -> a + p.pr_calls) 0 r.by_proc in
    let total_retrans = List.fold_left (fun a p -> a + p.pr_retrans) 0 r.by_proc in
    let pct part whole =
      if whole = 0 then "0.0"
      else Printf.sprintf "%.1f" (100.0 *. float_of_int part /. float_of_int whole)
    in
    print_table fmt
      ~header:[ "proc"; "calls"; "retrans"; "retrans%"; "p50(ms)"; "p95(ms)"; "p99(ms)" ]
      (List.map
         (fun p ->
           [
             p.pr_name;
             string_of_int p.pr_calls;
             string_of_int p.pr_retrans;
             pct p.pr_retrans p.pr_calls;
             ms p.pr_p50;
             ms p.pr_p95;
             ms p.pr_p99;
           ])
         r.by_proc
      @ [
          [
            "total";
            string_of_int total_calls;
            string_of_int total_retrans;
            pct total_retrans total_calls;
            "-";
            "-";
            "-";
          ];
        ]);
    Format.fprintf fmt "@.== latency breakdown by run (mean ms per RPC) ==@.";
    print_table fmt
      ~header:[ "run"; "rpcs"; "total"; "wire"; "srv-queue"; "service"; "rtx-wait" ]
      (List.map
         (fun l ->
           [
             l.lr_label;
             string_of_int l.lr_calls;
             ms l.lr_total;
             ms l.lr_wire;
             ms l.lr_queue;
             ms l.lr_service;
             ms l.lr_rtx_wait;
           ])
         r.by_label);
    Format.fprintf fmt
      "@.%d spans joined, %d unanswered; %d events held (%d overwritten)@."
      r.complete r.incomplete r.events r.events_dropped
end
