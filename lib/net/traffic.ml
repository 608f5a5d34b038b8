module Proc = Renofs_engine.Proc
module Rng = Renofs_engine.Rng
module Mbuf = Renofs_mbuf.Mbuf

type profile = {
  on_rate : float;
  on_mean : float;
  off_mean : float;
  sizes : (int * float) array;
}

let campus_backbone =
  {
    on_rate = 2800.0;
    on_mean = 0.06;
    off_mean = 0.5;
    sizes = [| (560, 0.3); (1400, 0.5); (4300, 0.2) |];
  }

let discard_port = 9

let pick_size rng sizes =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 sizes in
  let x = Rng.float rng total in
  let rec go i acc =
    let size, w = sizes.(i) in
    if x < acc +. w || i = Array.length sizes - 1 then size else go (i + 1) (acc +. w)
  in
  go 0 0.0

(* One shared all-zero source buffer: payload contents are filler, so
   every packet of every stream can copy out of the same static bytes
   instead of allocating [size] fresh ones per packet. *)
let max_size profile =
  Array.fold_left (fun acc (s, _) -> max acc s) 0 profile.sizes

let start ~src ~dst profile =
  let sim = Node.sim src in
  let module Sim = Renofs_engine.Sim in
  let rng = Rng.split (Node.rng src) in
  let filler = Bytes.create (max_size profile) in
  (* Event-driven rather than a process: the generator runs once per
     packet for the whole simulation, so paying a fiber suspension for
     every sleep and every NIC wait dominates its cost.  Each [Sim.after]
     below lands at exactly the moment the process version's
     [Proc.sleep]/[Cpu.consume] resumes would, and the RNG draws happen
     in the same order, so schedules are unchanged. *)
  let rec off_cycle () = Sim.after sim (Rng.exponential rng profile.off_mean) begin_burst
  and begin_burst () = pump (Sim.now sim +. Rng.exponential rng profile.on_mean)
  and pump burst_end =
    if Sim.now sim < burst_end then begin
      let size = pick_size rng profile.sizes in
      let payload = Mbuf.empty () in
      Mbuf.add_bytes ?pool:(Node.pool src) payload filler ~off:0 ~len:size;
      Node.send_datagram_k src ~proto:Packet.Udp ~dst:(Node.id dst)
        ~src_port:discard_port ~dst_port:discard_port payload (fun () ->
          Sim.after sim
            (Rng.exponential rng (1.0 /. profile.on_rate))
            (fun () -> pump burst_end))
    end
    else off_cycle ()
  in
  (* [Proc.spawn] started the process from the event queue at now + 0. *)
  Sim.after sim 0.0 off_cycle

let sink node =
  (* Discard — but hand the payload storage back to the world's pool:
     cross-traffic is the heaviest mbuf consumer in the busy worlds, and
     its buffers cycle sender-pool-sender forever. *)
  Node.set_proto_handler node ~needs_fiber:false Packet.Udp (fun dg ->
      Mbuf.release ?pool:(Node.pool node) dg.Node.payload)
