(* Layer replays: drive one layer's public functions in isolation, so a
   per-event or per-byte cost shows apart from the worlds that hide it. *)

module Sim = Renofs_engine.Sim
module Rng = Renofs_engine.Rng
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Packet = Renofs_net.Packet
module Ipfrag = Renofs_net.Ipfrag
module P = Renofs_core.Nfs_proto

let now = Worlds.now

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

(* The population a network simulation keeps queued: up to 16 packet
   chains, each event scheduling the next a few microseconds to a
   millisecond ahead, beside far timers 50 ms to 5 s ahead for the
   rest of [pending].  A far timer that fires re-arms itself (a think or syncer
   timer); one hop in four stands for an RPC reply, which cancels a
   random far timer and arms a fresh one (an RTO).  The population
   therefore stays at [pending] while the queue sees every operation
   the worlds use: [after], [timer_after], [cancel] and [run].  Only
   [pending] comes from a world; the chain count, the two time ranges
   and the cancel rate are fixed by hand (README.md says where from). *)
let queue_ns_per_event ~seed ~pending ~events =
  let hops = max 1 (min 16 pending) in
  let far = max 0 (pending - hops) in
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let timers = Array.make (max far 1) (Sim.timer_after sim 0.0 ignore) in
  Sim.cancel timers.(0);
  let rec arm j = timers.(j) <- Sim.timer_after sim (Rng.uniform rng 0.05 5.0) (fun () -> arm j) in
  for j = 0 to far - 1 do
    arm j
  done;
  let rec hop () =
    if far > 0 && Rng.int rng 4 = 0 then begin
      let j = Rng.int rng far in
      Sim.cancel timers.(j);
      arm j
    end;
    Sim.after sim (Rng.uniform rng 10e-6 1e-3) hop
  in
  for _ = 1 to hops do
    Sim.after sim (Rng.uniform rng 10e-6 1e-3) hop
  done;
  let run_events n =
    let target = Sim.events_processed sim + n in
    while Sim.events_processed sim < target do
      Sim.run ~until:(Sim.now sim +. 0.01) sim
    done
  in
  (* Warm up so the queue has resized to the population before timing. *)
  run_events (max 20_000 (2 * pending));
  let batch = max 1 (events / 5) in
  median
    (List.init 5 (fun _ ->
         let e0 = Sim.events_processed sim and t0 = now () in
         run_events batch;
         (now () -. t0) *. 1e9 /. float_of_int (Sim.events_processed sim - e0)))

(* ------------------------------------------------------------------ *)
(* Codec: XDR, mbufs, checksum, fragmentation, reassembly              *)
(* ------------------------------------------------------------------ *)

let attr =
  let t = P.time_of_float 1.0 in
  {
    P.ftype = P.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 0;
    gid = 0;
    size = 65536;
    blocksize = 8192;
    rdev = 0;
    blocks = 16;
    fsid = 1;
    fileid = 42;
    atime = t;
    mtime = t;
    ctime = t;
  }

(* One message's whole trip on the UDP path as the program makes it:
   RPC header and NFS body encoded by [Xdr.Enc] into a pooled mbuf
   chain (the 8K opaque is copied in there), the UDP checksum, the
   datagram split for a 1500-byte MTU, [Ipfrag] reassembly at the
   receiver, then the decode and the chain's release to the pool. *)
let trip ~pool ~frag ~ip_id msg =
  let chain =
    match msg with
    | `Call (xid, call) ->
        let enc =
          Rpc_msg.encode_call ~pool
            {
              Rpc_msg.xid;
              prog = P.program;
              vers = P.version;
              proc = P.proc_of_call call;
              cred = Rpc_msg.Auth_unix { stamp = 0; machine = "client"; uid = 0; gid = 0 };
            }
        in
        P.encode_call enc call;
        Xdr.Enc.chain enc
    | `Reply (xid, _, reply) ->
        let enc = Rpc_msg.encode_reply ~pool ~xid (Rpc_msg.Accepted Rpc_msg.Success) in
        P.encode_reply enc reply;
        Xdr.Enc.chain enc
  in
  let sum = Mbuf.checksum chain in
  let pkt =
    Packet.make_datagram ~sum:(Mbuf.length chain, sum) ~proto:Packet.Udp ~src:1
      ~dst:2 ~src_port:1023 ~dst_port:P.port ~ip_id chain
  in
  let whole =
    List.fold_left
      (fun acc f -> match Ipfrag.insert frag f with Some w -> Some w | None -> acc)
      None
      (Packet.fragment pkt ~mtu:1500)
  in
  let payload = (Option.get whole).Packet.payload in
  if Mbuf.checksum payload <> sum then failwith "codec replay: checksum mismatch";
  (match msg with
  | `Call (_, call) ->
      let _, dec = Rpc_msg.decode_call payload in
      ignore (P.decode_call ~proc:(P.proc_of_call call) dec)
  | `Reply (_, proc, _) ->
      let _, _, dec = Rpc_msg.decode_reply payload in
      ignore (P.decode_reply ~proc dec));
  Mbuf.release ~pool payload

(* Median nanoseconds per trip over five batches; each batch gets a
   fresh reassembly table so cancelled timeouts never pile up. *)
let codec_ns ~msg ~trips =
  let pool = Mbuf.Pool.create () in
  let ip_id = ref 0 in
  let batch () =
    let sim = Sim.create () in
    let frag = Ipfrag.create sim () in
    let t0 = now () in
    for _ = 1 to trips do
      incr ip_id;
      trip ~pool ~frag ~ip_id:(!ip_id land 0xffff) msg
    done;
    (now () -. t0) *. 1e9 /. float_of_int trips
  in
  ignore (batch ());
  median (List.init 5 (fun _ -> batch ()))

let codec ~seed ~trips =
  let rng = Rng.create seed in
  let data = Bytes.init 8192 (fun _ -> Char.chr (Rng.int rng 256)) in
  let fh = 1 + Rng.int rng 1000 in
  [
    ( "codec.write8k_ns",
      codec_ns ~trips
        ~msg:(`Call (17l, P.Write { P.write_file = fh; write_offset = 8192; data })) );
    ( "codec.read8k_ns",
      codec_ns ~trips
        ~msg:
          (`Reply
            ( 18l,
              P.proc_of_call (P.Read { P.read_file = fh; offset = 0; count = 8192 }),
              P.Rread (Ok (attr, data)) )) );
    ( "codec.lookup_ns",
      codec_ns ~trips
        ~msg:(`Call (19l, P.Lookup { P.dir = fh; name = Printf.sprintf "file%04d" fh }))
    );
  ]
