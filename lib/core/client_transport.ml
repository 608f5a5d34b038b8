module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Rtt = Renofs_engine.Rtt
module Stats = Renofs_engine.Stats
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Record_mark = Renofs_rpc.Record_mark
module Node = Renofs_net.Node
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Trace = Renofs_trace.Trace
module Metrics = Renofs_metrics.Metrics
module P = Nfs_proto

exception Rpc_error of string
exception Rpc_timed_out of { proc : string; final_timeo : float }

(* Ceiling on the backed-off retransmission timeout: exponential backoff
   must not grow a soft mount's final wait (or a hard mount's retry
   interval) past a minute, as BSD's NFS_MAXTIMEO (60 s) does. *)
let max_rto = 60.0

type summary = { calls : int; retransmits : int; mean_rtt : float }

type pending = {
  p_xid : int32;
  p_proc : int;
  request : Mbuf.t; (* master copy for retransmission *)
  reply : (P.reply, exn) result Proc.Ivar.t;
  mutable sent_at : float;
  mutable retransmitted : bool;
  mutable retries : int;
  mutable backoff : float;
  mutable timer : Sim.timer option;
}

(* Jacobson estimators for the four most frequent RPCs; the paper uses
   A+4D for the big, high-variance ones and A+2D for the small ones.
   The backoff persists across requests of the class (Karn): while no
   clean sample has arrived, successive requests keep the inflated RTO,
   otherwise an underestimating default could retransmit every request
   forever and never obtain a sample to learn from. *)
type est_entry = { e_rtt : Rtt.t; mutable e_backoff : float }

type estimators = {
  e_read : est_entry;
  e_write : est_entry;
  e_getattr : est_entry;
  e_lookup : est_entry;
}

type tcp_state = {
  tcp_stack : Tcp.stack;
  tcp_mss : int;
  mutable conn : Tcp.conn;
  mutable reconnecting : bool;
}

(* The congestion window on outstanding requests (dynamic mode only).
   All-float, so the per-reply update stores in place: as float fields
   of [t] each update would box. *)
type window = { mutable cwnd : float; cwnd_max : float; mutable last_cut : float }

type mode =
  | Udp_fixed
  | Udp_dynamic of estimators
  | Tcp_stream of tcp_state

type t = {
  sim : Sim.t;
  node : Node.t;
  mode : mode;
  sock : Udp.socket option;
  server : int;
  timeo : float;
  max_retries : int option; (* None = hard mount: retry forever *)
  cred : Rpc_msg.auth;
  mutable next_xid : int32;
  pending : (int32, pending) Hashtbl.t;
  win : window;
  mutable outstanding : int;
  mutable gate : (unit -> unit) list;
  (* statistics *)
  proc_calls : int array; (* calls made, by procedure number *)
  mutable n_calls : int;
  mutable n_retransmits : int;
  mutable n_garbled : int;
  rtt_all : Stats.Welford.t;
  mutable trace : (Stats.Timeseries.t * Stats.Timeseries.t) option;
}

let encode_instructions = 260.0
let decode_instructions = 260.0

let charge t instructions =
  Cpu.consume (Node.cpu t.node) (Cpu.seconds_of_instructions (Node.cpu t.node) instructions)

let fresh_estimators () =
  (* The BSD NFS retransmit timer runs off the 10 Hz slow-timeout
     clock: an RTO below two ticks cannot fire.  The 200 ms floor also
     keeps the timer above the RTT tail on slow links, where an RTO
     that hugs the smoothed mean retransmits spuriously (nfsstat's
     badxid) every time queueing stretches a round trip. *)
  let entry k = { e_rtt = Rtt.create ~k ~min_rto:0.2 (); e_backoff = 1.0 } in
  {
    e_read = entry 4.0;
    e_write = entry 4.0;
    e_getattr = entry 2.0;
    e_lookup = entry 2.0;
  }

let estimator_for est proc =
  match proc with
  | 6 -> Some est.e_read
  | 8 -> Some est.e_write
  | 1 -> Some est.e_getattr
  | 4 -> Some est.e_lookup
  | _ -> None

(* RTO for a transmission attempt, using the *current* A and D (the
   paper recalculates on every NFS clock tick so the freshest values are
   used; computing at arm time gives the same effect). *)
let rto_for t p =
  match t.mode with
  | Udp_fixed -> Float.min max_rto (t.timeo *. p.backoff)
  | Udp_dynamic est -> (
      match estimator_for est p.p_proc with
      | Some e ->
          Float.min max_rto
            (Rtt.rto e.e_rtt ~default:t.timeo *. e.e_backoff *. p.backoff)
      | None -> Float.min max_rto (t.timeo *. p.backoff))
  | Tcp_stream _ -> infinity

let record_rtt t p rtt =
  Stats.Welford.add t.rtt_all rtt;
  (match t.mode with
  | Udp_dynamic est -> (
      match estimator_for est p.p_proc with
      | Some e -> (
          Rtt.observe e.e_rtt rtt;
          e.e_backoff <- 1.0;
          match Node.trace t.node with
          | Some tr ->
              Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
                (Trace.Rto_update { rto = Rtt.rto e.e_rtt ~default:t.timeo })
          | None -> ())
      | None -> ())
  | Udp_fixed | Tcp_stream _ -> ());
  match t.trace with
  | Some (rtts, rtos) when p.p_proc = 6 ->
      let now = Sim.now t.sim in
      Stats.Timeseries.add rtts now rtt;
      let rto =
        match t.mode with
        | Udp_dynamic est -> Rtt.rto est.e_read.e_rtt ~default:t.timeo
        | Udp_fixed -> t.timeo
        | Tcp_stream _ -> 0.0
      in
      Stats.Timeseries.add rtos now rto
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* UDP transmission and retransmission                                *)
(* ------------------------------------------------------------------ *)

(* Each transmission's own chain, laid out as a copy of the master
   would be (the NIC's cost reads the layout): views of the master's
   full mbufs, each holding a reference, so the master's storage
   recycles only when every transmission is released too. *)
let request_copy t p = Mbuf.share ?pool:(Node.pool t.node) p.request

let rec transmit_udp t p =
  let sock = Option.get t.sock in
  p.sent_at <- Sim.now t.sim;
  Udp.sendto sock ~dst:t.server ~dst_port:P.port (request_copy t p);
  let rto = rto_for t p in
  p.timer <-
    Some
      (Sim.timer_after t.sim rto (fun () ->
           Proc.spawn t.sim (fun () -> on_udp_timeout t p)))

and on_udp_timeout t p =
  if Hashtbl.mem t.pending p.p_xid then begin
    p.retries <- p.retries + 1;
    match t.max_retries with
    | Some limit when p.retries > limit ->
        (* Soft mount: give up and fail the call. *)
        Hashtbl.remove t.pending p.p_xid;
        t.outstanding <- t.outstanding - 1;
        (match t.gate with
        | [] -> ()
        | resume :: rest ->
            t.gate <- rest;
            Sim.after t.sim 0.0 resume);
        (match Node.trace t.node with
        | Some tr ->
            (* Only soft mounts have a retry limit, so [soft] is true on
               every real emission; the invariant checker flags any
               [soft = false] occurrence as a hard-mount leak. *)
            Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
              (Trace.Wl_error { op = P.proc_name p.p_proc; soft = true })
        | None -> ());
        Mbuf.release ?pool:(Node.pool t.node) p.request;
        Proc.Ivar.fill p.reply
          (Error
             (Rpc_timed_out
                { proc = P.proc_name p.p_proc; final_timeo = rto_for t p }))
    | _ ->
        t.n_retransmits <- t.n_retransmits + 1;
        p.retransmitted <- true;
        p.backoff <- Float.min (p.backoff *. 2.0) 64.0;
        (match t.mode with
        | Udp_dynamic est ->
            (* One window cut per congestion event, as TCP does: a burst
               of outstanding requests timing out together is one event,
               not ten. *)
            if Sim.now t.sim -. t.win.last_cut > 1.0 then begin
              t.win.cwnd <- Float.max 1.0 (t.win.cwnd /. 2.0);
              t.win.last_cut <- Sim.now t.sim;
              match Node.trace t.node with
              | Some tr ->
                  Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
                    (Trace.Cwnd_update { cwnd = t.win.cwnd })
              | None -> ()
            end;
            (match estimator_for est p.p_proc with
            | Some e -> e.e_backoff <- Float.min (e.e_backoff *. 2.0) 16.0
            | None -> ())
        | Udp_fixed | Tcp_stream _ -> ());
        (match Node.trace t.node with
        | Some tr ->
            Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
              (Trace.Rpc_retransmit
                 {
                   xid = p.p_xid;
                   proc = p.p_proc;
                   retry = p.retries;
                   rto = rto_for t p;
                 })
        | None -> ());
        transmit_udp t p
  end

(* Answer [p] with the outcome decoded from [chain]: the decode was the
   reply's only reader, so its storage goes back to the pool now. *)
let complete t p chain outcome =
  Mbuf.release ?pool:(Node.pool t.node) chain;
  Hashtbl.remove t.pending p.p_xid;
  (match p.timer with Some tm -> Sim.cancel tm | None -> ());
  (* The master copy can never be retransmitted again; release it.  A
     transmission still in flight holds its own references, so shared
     storage recycles only when that is released too. *)
  Mbuf.release ?pool:(Node.pool t.node) p.request;
  (* Karn's rule: no RTT sample from retransmitted requests. *)
  if not p.retransmitted then record_rtt t p (Sim.now t.sim -. p.sent_at);
  (match t.mode with
  | Udp_dynamic _ ->
      (* +1 per round trip, approximated as +1/cwnd per reply; the
         paper's scheme with slow start removed. *)
      let w = t.win in
      w.cwnd <- Float.min w.cwnd_max (w.cwnd +. (1.0 /. Float.max 1.0 w.cwnd))
  | Udp_fixed | Tcp_stream _ -> ());
  (match Node.trace t.node with
  | Some tr ->
      let time = Sim.now t.sim in
      let node = Node.id t.node in
      Trace.record tr ~time ~node
        (Trace.Rpc_reply { xid = p.p_xid; proc = p.p_proc; rtt = time -. p.sent_at });
      (match t.mode with
      | Udp_dynamic _ ->
          Trace.record tr ~time ~node (Trace.Cwnd_update { cwnd = t.win.cwnd })
      | Udp_fixed | Tcp_stream _ -> ())
  | None -> ());
  t.outstanding <- t.outstanding - 1;
  (match t.gate with
  | [] -> ()
  | resume :: rest ->
      t.gate <- rest;
      Sim.after t.sim 0.0 resume);
  Proc.Ivar.fill p.reply outcome

(* Validate a received reply end to end before completing the pending
   request.  Anything that does not decode — short packet, damaged RPC
   header, damaged NFS body — is counted, traced as a [Garbled] drop and
   discarded, which leaves the request pending: the RTO fires and
   retransmits (UDP), or the reconnect path replays (TCP).  A decodable
   reply whose xid matches nothing pending is a late duplicate of an
   answered request and is dropped silently, as the BSD client does.
   [GARBAGE_ARGS] means the *request* was damaged in transit; the server
   never executed it, so it too is left to the retransmit path. *)
let garbage t ~bytes =
  t.n_garbled <- t.n_garbled + 1;
  match Node.trace t.node with
  | Some tr ->
      Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
        (Trace.Pkt_drop
           { link = Node.name t.node ^ ":rpc"; bytes; reason = Trace.Garbled })
  | None -> ()

let garbage_reply t chain =
  garbage t ~bytes:(Mbuf.length chain);
  (* The chain goes nowhere else; hand its storage back. *)
  Mbuf.release ?pool:(Node.pool t.node) chain

let try_complete t chain =
  match Rpc_msg.peek_xid chain with
  | None -> garbage_reply t chain
  | Some xid -> (
      match Hashtbl.find_opt t.pending xid with
      | None ->
          (* Late duplicate of an already-answered request: dropped
             silently, as the BSD client does, but the storage is still
             ours to recycle. *)
          Mbuf.release ?pool:(Node.pool t.node) chain
      | Some p -> (
          match Rpc_msg.decode_reply chain with
          | exception (Rpc_msg.Bad_message _ | Xdr.Decode_error _) ->
              garbage_reply t chain
          | _, Rpc_msg.Accepted Rpc_msg.Success, dec -> (
              (* The reply's one decode: it validates the body and is
                 the caller's result.  Decoded values are fresh bytes,
                 or lent file data that releasing the chain leaves
                 alone. *)
              match P.decode_reply ~proc:p.p_proc dec with
              | exception (Rpc_msg.Bad_message _ | Xdr.Decode_error _) ->
                  garbage_reply t chain
              | reply -> complete t p chain (Ok reply))
          | _, Rpc_msg.Accepted Rpc_msg.Garbage_args, _ ->
              garbage_reply t chain
          (* A well-formed error reply (wrong program, auth trouble):
             genuine server state, delivered to the caller. *)
          | _, Rpc_msg.Accepted _, _ ->
              complete t p chain (Error (Rpc_error "rpc accepted with error"))
          | _, Rpc_msg.Denied _, _ ->
              complete t p chain (Error (Rpc_error "rpc denied"))))

let start_udp_receiver t =
  let sock = Option.get t.sock in
  Proc.spawn t.sim (fun () ->
      let rec loop () =
        let dg = Udp.recv sock in
        try_complete t dg.Udp.payload;
        loop ()
      in
      loop ())

(* Receive records until the connection dies, then reconnect and resend
   every pending request — the client-side connection maintenance the
   paper describes for stream sockets.  Requests the server executed
   before the crash are re-executed; for the non-idempotent ones this
   is precisely the at-least-once hazard the paper's conclusion calls
   out (the server's duplicate cache died with it). *)
let rec start_tcp_receiver t st =
  Proc.spawn t.sim (fun () ->
      let conn = st.conn in
      let reader = Record_mark.Reader.create () in
      let rec loop () =
        match Tcp.recv conn ~max:65536 with
        | chunk -> (
            Record_mark.Reader.push reader chunk;
            let rec drain () =
              match Record_mark.Reader.pop reader with
              | Some record ->
                  try_complete t record;
                  drain ()
              | None -> ()
            in
            (* A corrupt record mark means framing is lost for good:
               abort so the next [recv] raises [Connection_closed] and
               the normal reconnect-and-replay path takes over. *)
            match drain () with
            | () -> loop ()
            | exception Record_mark.Reader.Corrupt _ ->
                garbage t ~bytes:(Record_mark.Reader.buffered reader);
                Tcp.abort conn;
                loop ())
        | exception Tcp.Connection_closed -> reconnect t st
      in
      loop ())

and reconnect t st =
  if not st.reconnecting then begin
    st.reconnecting <- true;
    let rec attempt () =
      Proc.sleep t.sim 1.0;
      match Tcp.connect ~mss:st.tcp_mss st.tcp_stack ~dst:t.server ~dst_port:P.port with
      | conn ->
          st.conn <- conn;
          st.reconnecting <- false;
          start_tcp_receiver t st;
          (* Replay everything still unanswered. *)
          let pending = Hashtbl.fold (fun _ p acc -> p :: acc) t.pending [] in
          List.iter
            (fun p ->
              p.retransmitted <- true;
              t.n_retransmits <- t.n_retransmits + 1;
              (match Node.trace t.node with
              | Some tr ->
                  Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
                    (Trace.Rpc_retransmit
                       { xid = p.p_xid; proc = p.p_proc; retry = p.retries; rto = 0.0 })
              | None -> ());
              try Tcp.send conn (Record_mark.frame (request_copy t p))
              with Tcp.Connection_closed -> ())
            pending
      | exception Tcp.Connect_timeout -> attempt ()
    in
    attempt ()
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

(* Sampled sources for the run attached to this client's node, if any:
   the congestion window and outstanding-request gauges plus per-class
   Jacobson estimator state (srtt / rttvar / RTO, in ms) — the
   trajectories behind Graphs 5 and 7.  Estimators without a sample yet
   return nan, which the sampler skips. *)
let register_metrics t =
  match Node.metrics t.node with
  | None -> ()
  | Some run ->
      let p s = Node.name t.node ^ ".xport." ^ s in
      let fi = float_of_int in
      Metrics.register run ~name:(p "outstanding") ~unit_:"count"
        ~kind:Metrics.Gauge (fun () -> fi t.outstanding);
      Metrics.register run ~name:(p "calls") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi t.n_calls);
      Metrics.register run ~name:(p "retransmits") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi t.n_retransmits);
      Metrics.register run ~name:(p "garbled") ~unit_:"count"
        ~kind:Metrics.Counter (fun () -> fi t.n_garbled);
      match t.mode with
      | Udp_fixed | Tcp_stream _ -> ()
      | Udp_dynamic est ->
          Metrics.register run ~name:(p "cwnd") ~unit_:"count"
            ~kind:Metrics.Gauge (fun () -> t.win.cwnd);
          List.iter
            (fun (cls, e) ->
              let ms f () = if Rtt.initialized e.e_rtt then f () *. 1e3 else nan in
              Metrics.register run ~name:(p cls ^ ".srtt") ~unit_:"ms"
                ~kind:Metrics.Gauge
                (ms (fun () -> Rtt.srtt e.e_rtt));
              Metrics.register run ~name:(p cls ^ ".rttvar") ~unit_:"ms"
                ~kind:Metrics.Gauge
                (ms (fun () -> Rtt.deviation e.e_rtt));
              Metrics.register run ~name:(p cls ^ ".rto") ~unit_:"ms"
                ~kind:Metrics.Gauge
                (ms (fun () -> Rtt.rto e.e_rtt ~default:t.timeo)))
            [
              ("read", est.e_read);
              ("write", est.e_write);
              ("getattr", est.e_getattr);
              ("lookup", est.e_lookup);
            ]

let base node ~mode ~sock ~server ~timeo ?max_retries ?(uid = 100) ?(gid = 100)
    ~cwnd_init ~cwnd_max () =
  let t =
    {
      sim = Node.sim node;
    node;
    mode;
    sock;
    server;
    timeo;
    max_retries;
    cred = Rpc_msg.Auth_unix { stamp = 0; machine = "renofs-client"; uid; gid };
    next_xid = 1l;
    pending = Hashtbl.create 32;
    win = { cwnd = cwnd_init; cwnd_max; last_cut = -1.0 };
    outstanding = 0;
    gate = [];
    proc_calls = Array.make P.n_procs 0;
    n_calls = 0;
    n_retransmits = 0;
    n_garbled = 0;
      rtt_all = Stats.Welford.create ();
      trace = None;
    }
  in
  register_metrics t;
  t

let create_udp_fixed stack ~server ?(timeo = 1.0) ?max_retries ?uid ?gid () =
  let node = Udp.node stack in
  let sock = Udp.bind_ephemeral stack in
  let t =
    base node ~mode:Udp_fixed ~sock:(Some sock) ~server ~timeo ?max_retries ?uid
      ?gid ~cwnd_init:infinity ~cwnd_max:infinity ()
  in
  start_udp_receiver t;
  t

let create_udp_dynamic stack ~server ?(timeo = 1.0) ?max_retries ?uid ?gid () =
  let node = Udp.node stack in
  let sock = Udp.bind_ephemeral stack in
  let t =
    base node
      ~mode:(Udp_dynamic (fresh_estimators ()))
      ~sock:(Some sock) ~server ~timeo ?max_retries ?uid ?gid ~cwnd_init:4.0
      ~cwnd_max:12.0 ()
  in
  start_udp_receiver t;
  t

let create_tcp stack ~server ?(mss = 1024) ?uid ?gid () =
  let node = Tcp.node stack in
  match Tcp.connect ~mss stack ~dst:server ~dst_port:P.port with
  | conn ->
      let st = { tcp_stack = stack; tcp_mss = mss; conn; reconnecting = false } in
      let t =
        base node ~mode:(Tcp_stream st) ~sock:None ~server ~timeo:1.0 ?uid ?gid
          ~cwnd_init:infinity ~cwnd_max:infinity ()
      in
      start_tcp_receiver t st;
      t
  | exception Tcp.Connect_timeout -> raise (Rpc_error "NFS server not responding (TCP connect)")

(* ------------------------------------------------------------------ *)
(* The call itself                                                    *)
(* ------------------------------------------------------------------ *)

let gate_wait t =
  match t.mode with
  | Udp_dynamic _ ->
      let rec wait () =
        if float_of_int t.outstanding >= t.win.cwnd then begin
          Proc.suspend (fun resume -> t.gate <- t.gate @ [ resume ]);
          wait ()
        end
      in
      wait ()
  | Udp_fixed | Tcp_stream _ -> ()

let call t call_v =
  let proc = P.proc_of_call call_v in
  t.proc_calls.(proc) <- t.proc_calls.(proc) + 1;
  charge t encode_instructions;
  let xid = t.next_xid in
  t.next_xid <- Int32.add t.next_xid 1l;
  let ctr = Node.copy_counters t.node in
  let pool = Node.pool t.node in
  let enc =
    Rpc_msg.encode_call ~ctr ?pool
      { Rpc_msg.xid; prog = P.program; vers = P.version; proc; cred = t.cred }
  in
  P.encode_call enc call_v;
  let master = Xdr.Enc.chain enc in
  let p =
    {
      p_xid = xid;
      p_proc = proc;
      request = master;
      reply = Proc.Ivar.create t.sim;
      sent_at = Sim.now t.sim;
      retransmitted = false;
      retries = 0;
      backoff = 1.0;
      timer = None;
    }
  in
  gate_wait t;
  t.outstanding <- t.outstanding + 1;
  t.n_calls <- t.n_calls + 1;
  Hashtbl.replace t.pending xid p;
  (match Node.trace t.node with
  | Some tr ->
      Trace.record tr ~time:(Sim.now t.sim) ~node:(Node.id t.node)
        (Trace.Rpc_send { xid; proc })
  | None -> ());
  (match t.mode with
  | Udp_fixed | Udp_dynamic _ -> transmit_udp t p
  | Tcp_stream st -> (
      p.sent_at <- Sim.now t.sim;
      (* A dead connection is not an error: the request stays pending
         and is replayed after the automatic reconnect. *)
      try Tcp.send st.conn (Record_mark.frame ~ctr ?pool (request_copy t p))
      with Tcp.Connection_closed -> ()));
  match Proc.Ivar.read p.reply with
  | Error (Rpc_timed_out _ as e) -> raise e
  | outcome -> (
      charge t decode_instructions;
      match outcome with Ok reply -> reply | Error e -> raise e)

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

let summary t =
  {
    calls = t.n_calls;
    retransmits = t.n_retransmits;
    mean_rtt = Stats.Welford.mean t.rtt_all;
  }

let retransmits t = t.n_retransmits
let garbled t = t.n_garbled
let congestion_window t = t.win.cwnd

let calls_by_proc t =
  Array.to_list t.proc_calls
  |> List.mapi (fun proc n -> (P.proc_name proc, n))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let enable_read_trace t =
  if t.trace = None then
    t.trace <- Some (Stats.Timeseries.create ~name:"rtt" (), Stats.Timeseries.create ~name:"rto" ())

let read_rtt_trace t =
  match t.trace with Some (r, _) -> Stats.Timeseries.to_list r | None -> []

let read_rto_trace t =
  match t.trace with Some (_, r) -> Stats.Timeseries.to_list r | None -> []
