module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Rtt = Renofs_engine.Rtt
module Mbuf = Renofs_mbuf.Mbuf
module Node = Renofs_net.Node
module Packet = Renofs_net.Packet
module Trace = Renofs_trace.Trace

exception Connection_closed
exception Connect_timeout

type stats = {
  segs_sent : int;
  segs_received : int;
  retransmit_timeouts : int;
  fast_retransmits : int;
  bytes_sent : int;
  srtt : float;
  rto : float;
  cwnd : float;
}

(* ------------------------------------------------------------------ *)
(* Segment header: 20 real bytes at the front of every payload.       *)
(* ------------------------------------------------------------------ *)

let header_bytes = 20
let flag_syn = 1
let flag_ack = 2
let flag_fin = 4
let flag_rst = 8

type header = { seq : int; ack : int; flags : int; window : int }

let encode_header h =
  let b = Bytes.make header_bytes '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int h.seq);
  Bytes.set_int32_be b 4 (Int32.of_int h.ack);
  Bytes.set b 8 (Char.chr (h.flags land 0xFF));
  Bytes.set_int32_be b 10 (Int32.of_int h.window);
  b

(* TCP's checksum, always on: the ones-complement sum of header and
   data, complemented and stored in the header's unused bytes 14-15
   (left zero by [encode_header]).  Summing an intact segment end to
   end therefore yields zero — the verification the input handler
   performs before it trusts a single header field. *)
let ones_sum_bytes b =
  let s = ref 0 in
  let n = Bytes.length b in
  let i = ref 0 in
  while !i + 1 < n do
    s :=
      !s
      + ((Char.code (Bytes.get b !i) lsl 8) lor Char.code (Bytes.get b (!i + 1)));
    s := (!s land 0xFFFF) + (!s lsr 16);
    i := !i + 2
  done;
  if !i < n then begin
    s := !s + (Char.code (Bytes.get b !i) lsl 8);
    s := (!s land 0xFFFF) + (!s lsr 16)
  end;
  !s

(* Header + optional data as one chain with the checksum stamped in.
   The header is even-length, so the two ones-complement partial sums
   combine with a single carry fold. *)
let checksummed_chain hdr data =
  let hb = encode_header hdr in
  let data_sum =
    match data with None -> 0 | Some d -> lnot (Mbuf.checksum d) land 0xFFFF
  in
  let s = ones_sum_bytes hb + data_sum in
  let s = (s land 0xFFFF) + (s lsr 16) in
  Bytes.set_uint16_be hb 14 (lnot s land 0xFFFF);
  let chain = Mbuf.of_bytes hb in
  (match data with Some d -> Mbuf.append_chain chain d | None -> ());
  chain

let decode_header chain =
  let b = Mbuf.to_bytes (Mbuf.sub_copy chain ~pos:0 ~len:header_bytes) in
  {
    seq = Int32.to_int (Bytes.get_int32_be b 0) land 0xFFFFFFFF;
    ack = Int32.to_int (Bytes.get_int32_be b 4) land 0xFFFFFFFF;
    flags = Char.code (Bytes.get b 8);
    window = Int32.to_int (Bytes.get_int32_be b 10) land 0xFFFFFFFF;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

type state = Syn_sent | Syn_received | Established | Closing | Closed

type conn = {
  stack : stack;
  local_port : int;
  peer : int;
  peer_port : int;
  mss : int;
  mutable state : state;
  (* --- send side: snd_buf byte 0 is sequence snd_una --- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_buf : Mbuf.t;
  snd_buf_limit : int;
  mutable snd_wnd : int;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  rtt : Rtt.t;
  mutable timed_seq : int option;
  mutable timed_at : float;
  mutable rto_backoff : float;
  mutable rexmt : Sim.timer option;
  mutable persist : Sim.timer option;
  mutable send_waiters : (unit -> unit) list;
  mutable want_fin : bool;
  mutable fin_sent : bool;
  (* --- receive side --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * Mbuf.t * bool) list; (* (seq, data, fin) *)
  mutable rcv_buf : Mbuf.t;
  rcv_buf_limit : int;
  mutable rcv_waiters : (unit -> unit) list;
  mutable fin_rcvd : bool;
  (* delayed ACKs: in-order data is acknowledged every second segment
     or after a short timer, as in BSD; out-of-order data immediately *)
  mutable delack : Sim.timer option;
  mutable unacked_segs : int;
  established : [ `Ok | `Timeout ] Proc.Ivar.t;
  mutable syn_tries : int;
  send_lock : Proc.Semaphore.t;
  (* --- stats --- *)
  mutable n_segs_sent : int;
  mutable n_segs_rcvd : int;
  mutable n_timeouts : int;
  mutable n_fast_rexmt : int;
  mutable n_bytes_sent : int;
}

and stack = {
  node : Node.t;
  send_cost : float;
  recv_cost : float;
  ack_cost : float;
  listeners : (int, conn -> unit) Hashtbl.t;
  conns : (int * int * int, conn) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable checksum_drops : int;
}

let node t = t.node
let checksum_drops t = t.checksum_drops
let peer conn = conn.peer
let peer_port conn = conn.peer_port

let stats c =
  {
    segs_sent = c.n_segs_sent;
    segs_received = c.n_segs_rcvd;
    retransmit_timeouts = c.n_timeouts;
    fast_retransmits = c.n_fast_rexmt;
    bytes_sent = c.n_bytes_sent;
    srtt = Rtt.srtt c.rtt;
    rto = Rtt.rto c.rtt ~default:3.0;
    cwnd = c.cwnd;
  }

let sim c = Node.sim c.stack.node
let cpu c = Node.cpu c.stack.node

let adv_window c = max 0 (c.rcv_buf_limit - Mbuf.length c.rcv_buf)

let fin_in_flight c = if c.fin_sent then 1 else 0

(* Data bytes transmitted but not yet acknowledged.  Clamped: once the
   peer acknowledges the FIN, [snd_una] covers it and the difference
   would otherwise go to -1. *)
let data_in_flight c = max 0 (c.snd_nxt - c.snd_una - fin_in_flight c)

let rto_of c = Rtt.rto c.rtt ~default:3.0 *. c.rto_backoff

(* Record the congestion-control state after it changes (timeout, fast
   retransmit, window growth): one [Cwnd_update] plus one [Rto_update]
   per congestion event when a sink is attached, nothing otherwise. *)
let trace_cc c =
  match Node.trace c.stack.node with
  | Some tr ->
      let time = Sim.now (Node.sim c.stack.node) in
      let node = Node.id c.stack.node in
      Trace.record tr ~time ~node (Trace.Cwnd_update { cwnd = c.cwnd });
      Trace.record tr ~time ~node (Trace.Rto_update { rto = rto_of c })
  | None -> ()

let send_segment c ~seq ~flags ~data =
  (* Every segment carries the current ack: piggybacking satisfies any
     pending delayed ACK. *)
  (match c.delack with
  | Some tm ->
      Sim.cancel tm;
      c.delack <- None
  | None -> ());
  c.unacked_segs <- 0;
  let hdr =
    { seq; ack = c.rcv_nxt; flags = flags lor flag_ack; window = adv_window c }
  in
  let chain = checksummed_chain hdr data in
  c.n_segs_sent <- c.n_segs_sent + 1;
  c.n_bytes_sent <- c.n_bytes_sent + Mbuf.length chain;
  Cpu.consume (cpu c) c.stack.send_cost;
  Node.send_datagram c.stack.node ~proto:Packet.Tcp ~dst:c.peer
    ~src_port:c.local_port ~dst_port:c.peer_port chain

(* The SYN does not carry the ACK flag. *)
let send_syn c =
  let hdr = { seq = 0; ack = 0; flags = flag_syn; window = adv_window c } in
  let chain = checksummed_chain hdr None in
  c.n_segs_sent <- c.n_segs_sent + 1;
  Cpu.consume (cpu c) c.stack.send_cost;
  Node.send_datagram c.stack.node ~proto:Packet.Tcp ~dst:c.peer
    ~src_port:c.local_port ~dst_port:c.peer_port chain

let send_syn_ack c =
  send_segment c ~seq:0 ~flags:flag_syn ~data:None

let send_ack c = send_segment c ~seq:c.snd_nxt ~flags:0 ~data:None

let delack_interval = 0.05

(* Acknowledge lazily: every second in-order segment, or when the
   delayed-ACK timer fires; a reply segment usually piggybacks first. *)
let ack_later c =
  c.unacked_segs <- c.unacked_segs + 1;
  if c.unacked_segs >= 2 then send_ack c
  else if c.delack = None then
    c.delack <-
      Some
        (Sim.timer_after (sim c) delack_interval (fun () ->
             c.delack <- None;
             Proc.spawn (sim c) (fun () ->
                 if c.state <> Closed then send_ack c)))

let cancel_timer = function Some t -> Sim.cancel t | None -> ()

let rec arm_rexmt c =
  cancel_timer c.rexmt;
  c.rexmt <-
    Some
      (Sim.timer_after (sim c) (rto_of c) (fun () ->
           Proc.spawn (sim c) (fun () -> on_rexmt_timeout c)))

and on_rexmt_timeout c =
  match c.state with
  | Closed -> ()
  | Syn_sent ->
      c.syn_tries <- c.syn_tries + 1;
      if c.syn_tries > 4 then begin
        c.state <- Closed;
        if not (Proc.Ivar.is_full c.established) then
          Proc.Ivar.fill c.established `Timeout
      end
      else begin
        c.rto_backoff <- Float.min (c.rto_backoff *. 2.0) 64.0;
        send_syn c;
        arm_rexmt c
      end
  | Syn_received ->
      c.rto_backoff <- Float.min (c.rto_backoff *. 2.0) 64.0;
      send_syn_ack c;
      arm_rexmt c
  | Established | Closing ->
      if c.snd_una < c.snd_nxt then begin
        c.n_timeouts <- c.n_timeouts + 1;
        let flight = float_of_int (c.snd_nxt - c.snd_una) in
        c.ssthresh <-
          Float.max (Float.min c.cwnd flight /. 2.0) (2.0 *. float_of_int c.mss);
        c.cwnd <- float_of_int c.mss;
        c.rto_backoff <- Float.min (c.rto_backoff *. 2.0) 64.0;
        (* Karn: give up on the sample being timed. *)
        c.timed_seq <- None;
        c.dup_acks <- 0;
        c.in_recovery <- false;
        trace_cc c;
        (* Go-back-N from the last acknowledged byte. *)
        c.snd_nxt <- c.snd_una;
        c.fin_sent <- false;
        output c
      end

and arm_persist c =
  if c.persist = None then
    c.persist <-
      Some
        (Sim.timer_after (sim c) (rto_of c) (fun () ->
             c.persist <- None;
             Proc.spawn (sim c) (fun () -> output ~probe:true c)))

(* Push out as much buffered data as windows allow. *)
and output ?(probe = false) c =
  match c.state with
  | Established | Closing ->
      let buffered = Mbuf.length c.snd_buf in
      let in_flight = data_in_flight c in
      let unsent = buffered - in_flight in
      let wnd = min (int_of_float c.cwnd) c.snd_wnd in
      let usable = wnd - in_flight in
      if unsent > 0 && (usable > 0 || (probe && in_flight = 0)) then begin
        let n = min c.mss (min unsent (if usable > 0 then usable else 1)) in
        let seq = c.snd_nxt in
        let data = Mbuf.sub_copy c.snd_buf ~pos:in_flight ~len:n in
        c.snd_nxt <- c.snd_nxt + n;
        if c.timed_seq = None then begin
          c.timed_seq <- Some seq;
          c.timed_at <- Sim.now (sim c)
        end;
        send_segment c ~seq ~flags:0 ~data:(Some data);
        arm_rexmt c;
        output c
      end
      else if unsent > 0 && in_flight = 0 && c.snd_wnd = 0 then
        (* Zero window: probe periodically. *)
        arm_persist c
      else if
        unsent = 0 && c.want_fin && not c.fin_sent && c.state = Closing
      then begin
        c.fin_sent <- true;
        let seq = c.snd_nxt in
        c.snd_nxt <- c.snd_nxt + 1;
        send_segment c ~seq ~flags:flag_fin ~data:None;
        arm_rexmt c
      end
  | Syn_sent | Syn_received | Closed -> ()

let wake_all sim waiters =
  List.iter (fun resume -> Sim.after sim 0.0 resume) waiters

(* Retransmit the earliest unacknowledged segment (fast retransmit). *)
let retransmit_head c =
  let n = min c.mss (Mbuf.length c.snd_buf) in
  if n > 0 then begin
    let data = Mbuf.sub_copy c.snd_buf ~pos:0 ~len:n in
    c.timed_seq <- None;
    send_segment c ~seq:c.snd_una ~flags:0 ~data:(Some data);
    arm_rexmt c
  end

let process_ack c (h : header) ~had_data =
  if h.ack > c.snd_una then begin
    let acked = h.ack - c.snd_una in
    let data_acked = min acked (Mbuf.length c.snd_buf) in
    if data_acked > 0 then begin
      let _, rest = Mbuf.split c.snd_buf data_acked in
      c.snd_buf <- rest
    end;
    c.snd_una <- h.ack;
    (* A late ack for data sent before a go-back-N reset can pass
       [snd_nxt]; transmission resumes from the acknowledged point. *)
    if c.snd_nxt < c.snd_una then c.snd_nxt <- c.snd_una;
    (* RTT sample (Karn's rule: [timed_seq] is cleared on retransmit). *)
    (match c.timed_seq with
    | Some seq when h.ack > seq ->
        Rtt.observe c.rtt (Sim.now (sim c) -. c.timed_at);
        c.timed_seq <- None
    | _ -> ());
    c.rto_backoff <- 1.0;
    (* Congestion window growth. *)
    if c.in_recovery then begin
      c.cwnd <- c.ssthresh;
      c.in_recovery <- false
    end
    else if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd +. float_of_int c.mss
    else
      c.cwnd <-
        c.cwnd +. (float_of_int (c.mss * c.mss) /. c.cwnd);
    c.cwnd <- Float.min c.cwnd 65536.0;
    trace_cc c;
    c.dup_acks <- 0;
    if c.snd_una = c.snd_nxt then begin
      cancel_timer c.rexmt;
      c.rexmt <- None
    end
    else arm_rexmt c;
    let waiters = c.send_waiters in
    c.send_waiters <- [];
    wake_all (sim c) waiters;
    output c
  end
  else if (not had_data) && h.ack = c.snd_una && c.snd_una < c.snd_nxt then begin
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      c.n_fast_rexmt <- c.n_fast_rexmt + 1;
      let flight = float_of_int (c.snd_nxt - c.snd_una) in
      c.ssthresh <-
        Float.max (flight /. 2.0) (2.0 *. float_of_int c.mss);
      retransmit_head c;
      c.cwnd <- c.ssthresh +. (3.0 *. float_of_int c.mss);
      c.in_recovery <- true;
      trace_cc c
    end
    else if c.dup_acks > 3 then begin
      c.cwnd <- c.cwnd +. float_of_int c.mss;
      output c
    end
  end

(* Absorb in-order data (and any out-of-order segments it releases). *)
let rec absorb c seq data fin =
  let len = Mbuf.length data in
  if seq = c.rcv_nxt then begin
    Mbuf.append_chain c.rcv_buf data;
    c.rcv_nxt <- c.rcv_nxt + len;
    if fin then begin
      c.rcv_nxt <- c.rcv_nxt + 1;
      c.fin_rcvd <- true
    end;
    let ready, rest =
      List.partition (fun (s, _, _) -> s <= c.rcv_nxt) c.ooo
    in
    c.ooo <- rest;
    List.iter
      (fun (s, d, f) ->
        if s = c.rcv_nxt then absorb c s d f
        else if s < c.rcv_nxt then begin
          (* Overlapping retransmission: drop the covered prefix. *)
          let skip = c.rcv_nxt - s in
          if skip < Mbuf.length d then begin
            let _, tail = Mbuf.split d skip in
            absorb c c.rcv_nxt tail f
          end
          else if f && s + Mbuf.length d >= c.rcv_nxt then absorb c c.rcv_nxt (Mbuf.empty ()) f
        end)
      (List.sort (fun (a, _, _) (b, _, _) -> compare a b) ready)
  end
  else if seq > c.rcv_nxt then begin
    if not (List.exists (fun (s, _, _) -> s = seq) c.ooo) then
      c.ooo <- (seq, data, fin) :: c.ooo
  end
  else begin
    (* Partially or fully duplicate segment. *)
    let skip = c.rcv_nxt - seq in
    if skip < len then begin
      let _, tail = Mbuf.split data skip in
      absorb c c.rcv_nxt tail fin
    end
    else if fin && seq + len = c.rcv_nxt && not c.fin_rcvd then begin
      c.rcv_nxt <- c.rcv_nxt + 1;
      c.fin_rcvd <- true
    end
  end

(* Tear down all local state and wake every waiter; they see
   [Connection_closed]. *)
let teardown c =
  if c.state <> Closed then begin
    c.state <- Closed;
    cancel_timer c.rexmt;
    c.rexmt <- None;
    cancel_timer c.persist;
    c.persist <- None;
    cancel_timer c.delack;
    c.delack <- None;
    c.fin_rcvd <- true;
    Hashtbl.remove c.stack.conns (c.local_port, c.peer, c.peer_port);
    let rs = c.rcv_waiters and ss = c.send_waiters in
    c.rcv_waiters <- [];
    c.send_waiters <- [];
    wake_all (sim c) rs;
    wake_all (sim c) ss;
    if not (Proc.Ivar.is_full c.established) then Proc.Ivar.fill c.established `Timeout
  end

let abort c =
  if c.state <> Closed then begin
    (* Best-effort RST to the peer (a rebooting host's TCP does this for
       segments addressed to vanished connections). *)
    (try
       let hdr = { seq = c.snd_nxt; ack = c.rcv_nxt; flags = flag_rst; window = 0 } in
       let chain = checksummed_chain hdr None in
       Cpu.consume (cpu c) c.stack.send_cost;
       Node.send_datagram c.stack.node ~proto:Packet.Tcp ~dst:c.peer
         ~src_port:c.local_port ~dst_port:c.peer_port chain
     with _ -> ());
    teardown c
  end

let reset_all stack =
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) stack.conns [] in
  List.iter abort conns

let conn_input c (h : header) payload =
  c.n_segs_rcvd <- c.n_segs_rcvd + 1;
  if h.flags land flag_rst <> 0 then teardown c
  else begin
  c.snd_wnd <- h.window;
  (match c.persist with
  | Some t when h.window > 0 ->
      Sim.cancel t;
      c.persist <- None
  | _ -> ());
  let data_len = Mbuf.length payload in
  let is_syn = h.flags land flag_syn <> 0 in
  let is_fin = h.flags land flag_fin <> 0 in
  let has_ack = h.flags land flag_ack <> 0 in
  match c.state with
  | Syn_sent when is_syn && has_ack && h.ack >= 1 ->
      c.snd_una <- 1;
      c.snd_nxt <- 1;
      c.rcv_nxt <- 1;
      c.state <- Established;
      cancel_timer c.rexmt;
      c.rexmt <- None;
      c.rto_backoff <- 1.0;
      send_ack c;
      if not (Proc.Ivar.is_full c.established) then Proc.Ivar.fill c.established `Ok
  | Syn_sent -> ()
  | Syn_received when is_syn ->
      (* Duplicate SYN: our SYN-ACK was lost. *)
      send_syn_ack c
  | Syn_received when has_ack && h.ack >= 1 ->
      c.snd_una <- max c.snd_una 1;
      c.state <- Established;
      cancel_timer c.rexmt;
      c.rexmt <- None;
      c.rto_backoff <- 1.0;
      if not (Proc.Ivar.is_full c.established) then Proc.Ivar.fill c.established `Ok;
      if data_len > 0 || is_fin then begin
        absorb c h.seq payload is_fin;
        let waiters = c.rcv_waiters in
        c.rcv_waiters <- [];
        wake_all (sim c) waiters;
        send_ack c
      end
  | Syn_received -> ()
  | Established | Closing ->
      if is_syn then send_ack c (* stale handshake segment *)
      else begin
        if has_ack then process_ack c h ~had_data:(data_len > 0);
        if data_len > 0 || is_fin then begin
          let in_order = h.seq = c.rcv_nxt && c.ooo = [] in
          absorb c h.seq payload is_fin;
          let waiters = c.rcv_waiters in
          c.rcv_waiters <- [];
          wake_all (sim c) waiters;
          (* Out-of-order or duplicate data must be acknowledged at once
             (it generates the dup ACKs fast retransmit needs); clean
             in-order data can wait for a piggyback. *)
          if in_order && not is_fin then ack_later c else send_ack c
        end;
        (* As in BSD's tcp_input: always try to transmit afterwards — a
           window update with no new ack must still unblock the sender. *)
        output c
      end
  | Closed -> ()
  end

(* ------------------------------------------------------------------ *)
(* Stack                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-connection receive buffer, bytes. *)
let rcv_buffer = 16384

let make_conn stack ~local_port ~peer ~peer_port ~mss ~state =
  {
    stack;
    local_port;
    peer;
    peer_port;
    mss;
    state;
    snd_una = 0;
    snd_nxt = 0;
    snd_buf = Mbuf.empty ();
    snd_buf_limit = 16384;
    snd_wnd = 16384;
    cwnd = float_of_int mss;
    ssthresh = 65536.0;
    dup_acks = 0;
    in_recovery = false;
    rtt = Rtt.create ~k:4.0 ~min_rto:0.2 ();
    timed_seq = None;
    timed_at = 0.0;
    rto_backoff = 1.0;
    rexmt = None;
    persist = None;
    send_waiters = [];
    want_fin = false;
    fin_sent = false;
    rcv_nxt = 0;
    ooo = [];
    rcv_buf = Mbuf.empty ();
    rcv_buf_limit = rcv_buffer;
    rcv_waiters = [];
    fin_rcvd = false;
    delack = None;
    unacked_segs = 0;
    established = Proc.Ivar.create (Node.sim stack.node);
    syn_tries = 0;
    send_lock = Proc.Semaphore.create (Node.sim stack.node) 1;
    n_segs_sent = 0;
    n_segs_rcvd = 0;
    n_timeouts = 0;
    n_fast_rexmt = 0;
    n_bytes_sent = 0;
  }

(* Per-segment protocol processing, in instructions. *)
let install node =
  let per n = Cpu.seconds_of_instructions (Node.cpu node) n in
  let stack =
    {
      node;
      send_cost = per 480.0;
      recv_cost = per 480.0;
      ack_cost = per 200.0;
      listeners = Hashtbl.create 8;
      conns = Hashtbl.create 32;
      next_ephemeral = 50000;
      checksum_drops = 0;
    }
  in
  Node.set_proto_handler node Packet.Tcp (fun (dg : Node.datagram) ->
      if
        Mbuf.length dg.Node.payload < header_bytes
        || Mbuf.checksum dg.Node.payload <> 0
      then begin
        (* Short or corrupt segment: drop before trusting any header
           field; the sender's retransmission repairs the stream. *)
        stack.checksum_drops <- stack.checksum_drops + 1;
        match Node.trace node with
        | Some tr ->
            Trace.record tr
              ~time:(Sim.now (Node.sim node))
              ~node:(Node.id node)
              (Trace.Pkt_drop
                 {
                   link = Printf.sprintf "tcp:%d" dg.Node.dst_port;
                   bytes = Mbuf.length dg.Node.payload;
                   reason = Trace.Bad_checksum;
                 })
        | None -> ()
      end
      else begin
        let h = decode_header dg.Node.payload in
        let _, payload = Mbuf.split dg.Node.payload header_bytes in
        (* Input protocol processing cost: cheaper for pure ACKs. *)
        let cost =
          if Mbuf.length payload = 0 && h.flags land flag_syn = 0 then
            stack.ack_cost
          else stack.recv_cost
        in
        Cpu.consume (Node.cpu node) cost;
        let key = (dg.Node.dst_port, dg.Node.src, dg.Node.src_port) in
        match Hashtbl.find_opt stack.conns key with
        | Some conn -> conn_input conn h payload
        | None -> (
            match Hashtbl.find_opt stack.listeners dg.Node.dst_port with
            | Some accept_fn when h.flags land flag_syn <> 0 ->
                let conn =
                  make_conn stack ~local_port:dg.Node.dst_port ~peer:dg.Node.src
                    ~peer_port:dg.Node.src_port ~mss:512 ~state:Syn_received
                in
                conn.rcv_nxt <- 1;
                conn.snd_nxt <- 1;
                (* SYN occupies sequence 0. *)
                Hashtbl.replace stack.conns key conn;
                send_syn_ack conn;
                arm_rexmt conn;
                Proc.spawn (Node.sim node) (fun () ->
                    match Proc.Ivar.read conn.established with
                    | `Ok -> accept_fn conn
                    | `Timeout -> ())
            | _ -> () (* no listener: segment dropped *))
      end);
  stack

let listen stack ~port fn =
  if Hashtbl.mem stack.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d in use" port);
  Hashtbl.replace stack.listeners port fn

let connect ?(mss = 512) stack ~dst ~dst_port =
  let rec pick () =
    let p = stack.next_ephemeral in
    stack.next_ephemeral <- stack.next_ephemeral + 1;
    if Hashtbl.mem stack.conns (p, dst, dst_port) then pick () else p
  in
  let local_port = pick () in
  let conn =
    make_conn stack ~local_port ~peer:dst ~peer_port:dst_port ~mss
      ~state:Syn_sent
  in
  Hashtbl.replace stack.conns (local_port, dst, dst_port) conn;
  conn.snd_nxt <- 1;
  (* SYN occupies sequence 0 *)
  send_syn conn;
  arm_rexmt conn;
  match Proc.Ivar.read conn.established with
  | `Ok -> conn
  | `Timeout ->
      Hashtbl.remove stack.conns (local_port, dst, dst_port);
      raise Connect_timeout

let send conn chain =
  if conn.state <> Established then raise Connection_closed;
  Proc.Semaphore.acquire conn.send_lock;
  let rec push pending =
    if Mbuf.length pending > 0 then begin
      if conn.state <> Established then raise Connection_closed;
      let room = conn.snd_buf_limit - Mbuf.length conn.snd_buf in
      if room <= 0 then begin
        Proc.suspend (fun resume ->
            conn.send_waiters <- conn.send_waiters @ [ resume ]);
        push pending
      end
      else begin
        let n = min room (Mbuf.length pending) in
        let head, rest = Mbuf.split pending n in
        Mbuf.append_chain conn.snd_buf head;
        output conn;
        push rest
      end
    end
  in
  (match push chain with
  | () -> Proc.Semaphore.release conn.send_lock
  | exception e ->
      Proc.Semaphore.release conn.send_lock;
      raise e)

let rec recv conn ~max =
  let len = Mbuf.length conn.rcv_buf in
  if len > 0 then begin
    let n = min max len in
    let head, rest = Mbuf.split conn.rcv_buf n in
    conn.rcv_buf <- rest;
    (* Window update if the receive buffer had filled. *)
    if len >= conn.rcv_buf_limit then send_ack conn;
    head
  end
  else if conn.fin_rcvd || conn.state = Closed then raise Connection_closed
  else begin
    Proc.suspend (fun resume -> conn.rcv_waiters <- conn.rcv_waiters @ [ resume ]);
    recv conn ~max
  end

let close conn =
  match conn.state with
  | Established ->
      conn.state <- Closing;
      conn.want_fin <- true;
      Proc.spawn (sim conn) (fun () -> output conn)
  | Closing | Closed | Syn_sent | Syn_received -> conn.state <- Closed
