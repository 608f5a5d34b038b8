module Sim = Renofs_engine.Sim
module Probe = Renofs_engine.Probe
module Rng = Renofs_engine.Rng
module Trace = Renofs_trace.Trace
module Mbuf = Renofs_mbuf.Mbuf

type stats = {
  mutable packets_sent : int;
  mutable bytes_sent : int;
  mutable queue_drops : int;
  mutable error_drops : int;
  mutable mangled : int;
}

type mangle_op = Corrupt | Truncate | Duplicate | Reorder

(* All-float box for the cumulative busy-seconds counter: a float field
   of the mixed [t] record would box every per-packet update. *)
type busy = { mutable b : float }

(* The mangler's state: one private RNG (seeded from the fault action's
   seed mixed with the link name, so every link direction draws an
   independent, reproducible stream) plus one rate per operation.
   Allocated lazily on the first [set_mangle]; a link that is never
   mangled keeps [mangle = None] and pays one branch per packet. *)
type mangle = {
  m_rng : Rng.t;
  mutable m_corrupt : float;
  mutable m_truncate : float;
  mutable m_duplicate : float;
  mutable m_reorder : float;
}

type t = {
  sim : Sim.t;
  name : string;
  bandwidth_bps : float;
  delay : float;
  queue_limit : int;
  mutable loss : float;
  mutable up : bool;
  rng : Rng.t;
  deliver : Packet.t -> unit;
  queue : Packet.t Queue.t;
  mutable transmitting : bool;
  stats : stats;
  busy : busy;
  owner : int; (* transmitting-side node id, -1 if unattached *)
  mutable trace : Trace.t option;
  mutable mangle : mangle option;
  (* Batched delivery: packets in flight on the wire, FIFO.  Every
     unmangled delivery is due exactly [delay] after its transmission
     completes, and completions are strictly increasing (serial
     transmitter, positive tx times), so due times are too — one shared
     [drain] closure scheduled once per packet pops them in order,
     instead of a fresh closure capturing each packet.  Mangled
     deliveries (reordered or duplicated copies break the FIFO
     invariant) keep per-packet closures. *)
  in_flight : Packet.t Queue.t;
  mutable drain : unit -> unit;
  (* The transmitter is serial, so the packet whose transmission is in
     progress lives in a field and one shared [tx_done] closure reads
     it back — again no per-packet closure. *)
  mutable tx_pkt : Packet.t option;
  mutable tx_bytes : int;
  mutable tx_done : unit -> unit;
}

let set_trace t tr = t.trace <- tr

(* Background cross-traffic is addressed to the discard service (port 9,
   [Traffic.discard_port]); its per-packet events would swamp the ring
   buffer and evict the RPC lifecycle the trace exists to capture, so
   enqueue/deliver events skip it.  Drops are always recorded: they are
   the congestion signal, whoever suffers them. *)
let pkt_traced (pkt : Packet.t) = pkt.Packet.dst_port <> 9

let trace_pkt t pkt ev_of =
  match t.trace with
  | Some tr when pkt_traced pkt ->
      Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
        (ev_of (Packet.wire_size pkt))
  | Some _ | None -> ()

(* Wire-delay and transmit-complete events run link (NIC) code and then
   hand the packet up the receive path; when probed, charge them to the
   link slot.  Detached cost: one branch. *)
let link_scope t f =
  match Sim.probe t.sim with
  | None -> f t
  | Some p ->
      let d = p.Probe.enter Probe.link in
      (try f t with e -> p.Probe.leave d; raise e);
      p.Probe.leave d

let deliver_after t delay pkt =
  Sim.after t.sim delay (fun () ->
      link_scope t (fun t ->
          trace_pkt t pkt (fun bytes ->
              Trace.Pkt_deliver { link = t.name; bytes });
          t.deliver pkt))

let note_mangle t pkt op =
  t.stats.mangled <- t.stats.mangled + 1;
  match t.trace with
  | Some tr when pkt_traced pkt ->
      Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
        (Trace.Pkt_mangle { link = t.name; bytes = Packet.wire_size pkt; op })
  | Some _ | None -> ()

(* A small but nonzero base for the extra reorder/duplicate latency on
   zero-delay links. *)
let mangle_delay_unit t = Float.max t.delay 0.001

(* Damage [pkt] per the mangle config and hand every resulting copy to
   [deliver_after].  Mutation is never in place: split fragments share
   their parent's storage, so the payload is deep-copied through bytes
   before a bit is touched. *)
let mangle_deliver t (m : mangle) pkt =
  let rng = m.m_rng in
  let pkt =
    if m.m_corrupt > 0.0 && Rng.chance rng m.m_corrupt && Packet.data_len pkt > 0
    then begin
      note_mangle t pkt "corrupt";
      let b = Mbuf.to_bytes pkt.Packet.payload in
      (* Flip exactly one bit: the smallest damage, and the case the
         Internet checksum is guaranteed to catch. *)
      let bit = Rng.int rng (Bytes.length b * 8) in
      let i = bit lsr 3 in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
      { pkt with Packet.payload = Mbuf.of_bytes b }
    end
    else pkt
  in
  let pkt =
    if
      m.m_truncate > 0.0
      && Rng.chance rng m.m_truncate
      && Packet.data_len pkt > 0
    then begin
      note_mangle t pkt "truncate";
      let keep = Rng.int rng (Packet.data_len pkt) in
      let b = Bytes.sub (Mbuf.to_bytes pkt.Packet.payload) 0 keep in
      { pkt with Packet.payload = Mbuf.of_bytes b }
    end
    else pkt
  in
  let delay =
    if m.m_reorder > 0.0 && Rng.chance rng m.m_reorder then begin
      note_mangle t pkt "reorder";
      (* Hold this packet past anything transmitted within the next
         round-trip-ish window. *)
      t.delay +. (mangle_delay_unit t *. (1.0 +. Rng.float rng 1.0))
    end
    else t.delay
  in
  deliver_after t delay pkt;
  if m.m_duplicate > 0.0 && Rng.chance rng m.m_duplicate then begin
    note_mangle t pkt "duplicate";
    (* Receivers consume payload chains destructively, so the twin needs
       its own storage. *)
    let copy =
      Mbuf.sub_copy pkt.Packet.payload ~pos:0 ~len:(Packet.data_len pkt)
    in
    deliver_after t
      (delay +. (mangle_delay_unit t *. Rng.float rng 1.0))
      { pkt with Packet.payload = copy }
  end

let start_next t =
  match Queue.take_opt t.queue with
  | None -> t.transmitting <- false
  | Some pkt ->
      t.transmitting <- true;
      let bytes = Packet.wire_size pkt in
      let tx_time = float_of_int (bytes * 8) /. t.bandwidth_bps in
      t.busy.b <- t.busy.b +. tx_time;
      t.tx_pkt <- Some pkt;
      t.tx_bytes <- bytes;
      Sim.after t.sim tx_time t.tx_done

let tx_complete t =
  let pkt = match t.tx_pkt with Some p -> p | None -> assert false in
  t.tx_pkt <- None;
  let bytes = t.tx_bytes in
  t.stats.packets_sent <- t.stats.packets_sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + bytes;
  (if t.loss > 0.0 && Rng.chance t.rng t.loss then begin
     t.stats.error_drops <- t.stats.error_drops + 1;
     match t.trace with
     | Some tr ->
         Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
           (Trace.Pkt_drop { link = t.name; bytes; reason = Trace.Link_error })
     | None -> ()
   end
   else
     match t.mangle with
     | None ->
         Queue.add pkt t.in_flight;
         Sim.after t.sim t.delay t.drain
     | Some m -> mangle_deliver t m pkt);
  start_next t

let drain_one t =
  let pkt = Queue.take t.in_flight in
  (match t.trace with
  | Some tr when pkt_traced pkt ->
      Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
        (Trace.Pkt_deliver { link = t.name; bytes = Packet.wire_size pkt })
  | Some _ | None -> ());
  t.deliver pkt

let create sim ~name ~bandwidth_bps ~delay ~queue_limit ?(loss = 0.0) ?(owner = -1)
    ~rng ~deliver () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  let t =
    {
      sim;
      name;
      bandwidth_bps;
      delay;
      queue_limit;
      loss;
      up = true;
      rng;
      deliver;
      queue = Queue.create ();
      transmitting = false;
      stats =
        {
          packets_sent = 0;
          bytes_sent = 0;
          queue_drops = 0;
          error_drops = 0;
          mangled = 0;
        };
      busy = { b = 0.0 };
      owner;
      trace = None;
      mangle = None;
      in_flight = Queue.create ();
      drain = ignore;
      tx_pkt = None;
      tx_bytes = 0;
      tx_done = ignore;
    }
  in
  t.drain <- (fun () -> link_scope t drain_one);
  t.tx_done <- (fun () -> link_scope t tx_complete);
  t

let send t pkt =
  if not t.up then begin
    t.stats.error_drops <- t.stats.error_drops + 1;
    match t.trace with
    | Some tr ->
        Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
          (Trace.Pkt_drop
             {
               link = t.name;
               bytes = Packet.wire_size pkt;
               reason = Trace.Link_down;
             })
    | None -> ()
  end
  else if Queue.length t.queue >= t.queue_limit then begin
    t.stats.queue_drops <- t.stats.queue_drops + 1;
    match t.trace with
    | Some tr ->
        Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
          (Trace.Pkt_drop
             {
               link = t.name;
               bytes = Packet.wire_size pkt;
               reason = Trace.Queue_full;
             })
    | None -> ()
  end
  else begin
    Queue.add pkt t.queue;
    (match t.trace with
    | Some tr when pkt_traced pkt ->
        Trace.record tr ~time:(Sim.now t.sim) ~node:t.owner
          (Trace.Pkt_enqueue
             {
               link = t.name;
               bytes = Packet.wire_size pkt;
               qlen = Queue.length t.queue;
             })
    | Some _ | None -> ());
    if not t.transmitting then start_next t
  end

let name t = t.name
let queue_length t = Queue.length t.queue
let stats t = t.stats
let loss t = t.loss
let set_loss t p = t.loss <- Float.max 0.0 (Float.min 1.0 p)
let set_up t up = t.up <- up

(* Deterministic, non-randomized string hash (FNV-1a), so mangle RNG
   streams do not depend on [Hashtbl.hash] implementation details. *)
let name_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let ensure_mangle t ~seed =
  match t.mangle with
  | Some m -> m
  | None ->
      let m =
        {
          m_rng = Rng.create (seed lxor name_hash t.name);
          m_corrupt = 0.0;
          m_truncate = 0.0;
          m_duplicate = 0.0;
          m_reorder = 0.0;
        }
      in
      t.mangle <- Some m;
      m

let set_mangle t ?(seed = 0) op rate =
  let m = ensure_mangle t ~seed in
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  match op with
  | Corrupt -> m.m_corrupt <- rate
  | Truncate -> m.m_truncate <- rate
  | Duplicate -> m.m_duplicate <- rate
  | Reorder -> m.m_reorder <- rate

let mangle_rate t op =
  match t.mangle with
  | None -> 0.0
  | Some m -> (
      match op with
      | Corrupt -> m.m_corrupt
      | Truncate -> m.m_truncate
      | Duplicate -> m.m_duplicate
      | Reorder -> m.m_reorder)

let busy_time t = t.busy.b
