module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Mbuf = Renofs_mbuf.Mbuf
module Node = Renofs_net.Node
module Packet = Renofs_net.Packet
module Trace = Renofs_trace.Trace

type datagram = { src : int; src_port : int; payload : Mbuf.t; arrived_at : float }

type socket = {
  stack : stack;
  port : int;
  recv_buffer : int;
  queue : datagram Queue.t;
  mutable queued_bytes : int;
  mutable waiters : (unit -> unit) list;
  mutable drops : int;
  mutable closed : bool;
}

and stack = {
  node : Node.t;
  sock_cost : float;
  checksum : bool;
  sockets : (int, socket) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable checksum_drops : int;
}

(* 0.2 ms of socket-layer work on a 0.9 MIPS machine = 180 instructions'
   worth; scale with CPU speed via instruction count. *)
let sock_instructions = 180.0

let install ?(checksum = true) node =
  let stack =
    {
      node;
      sock_cost = Cpu.seconds_of_instructions (Node.cpu node) sock_instructions;
      checksum;
      sockets = Hashtbl.create 16;
      next_ephemeral = 40000;
      checksum_drops = 0;
    }
  in
  (* The receive handler blocks only for the socket-layer input cost,
     so it is written over [Cpu.consume_k] and registered without a
     fiber: everything past the CPU charge is queue and hashtable
     work. *)
  Node.set_proto_handler node ~needs_fiber:false Packet.Udp
    (fun (dg : Node.datagram) ->
      Cpu.consume_k (Node.cpu node) stack.sock_cost @@ fun () ->
      (* Verify the sender's checksum metadata before demultiplexing.
         [sum = None] (an unchecksummed sender, e.g. background cross
         traffic) is accepted — exactly UDP's optional-checksum rule.
         The length check matters on its own: a truncated final fragment
         reassembles into a silently shorter datagram whose bytes all
         checksum fine. *)
      let sum_ok =
        (not stack.checksum)
        ||
        match dg.Node.sum with
        | None -> true
        | Some (len, sum) ->
            Mbuf.length dg.Node.payload = len
            && Mbuf.checksum dg.Node.payload = sum
      in
      if not sum_ok then begin
        stack.checksum_drops <- stack.checksum_drops + 1;
        match Node.trace node with
        | Some tr ->
            Trace.record tr
              ~time:(Renofs_engine.Sim.now (Node.sim node))
              ~node:(Node.id node)
              (Trace.Pkt_drop
                 {
                   link = Printf.sprintf "udp:%d" dg.Node.dst_port;
                   bytes = Mbuf.length dg.Node.payload;
                   reason = Trace.Bad_checksum;
                 })
        | None -> ()
      end
      else
      match Hashtbl.find_opt stack.sockets dg.Node.dst_port with
      | None -> () (* port unreachable; silently dropped *)
      | Some sock ->
          let size = Mbuf.length dg.Node.payload in
          if sock.queued_bytes + size > sock.recv_buffer then begin
            sock.drops <- sock.drops + 1;
            match Node.trace node with
            | Some tr ->
                Trace.record tr
                  ~time:(Renofs_engine.Sim.now (Node.sim node))
                  ~node:(Node.id node)
                  (Trace.Pkt_drop
                     {
                       link = Printf.sprintf "udp:%d" sock.port;
                       bytes = size;
                       reason = Trace.Sock_overflow;
                     })
            | None -> ()
          end
          else begin
            Queue.add
              {
                src = dg.Node.src;
                src_port = dg.Node.src_port;
                payload = dg.Node.payload;
                arrived_at = Renofs_engine.Sim.now (Node.sim node);
              }
              sock.queue;
            sock.queued_bytes <- sock.queued_bytes + size;
            match sock.waiters with
            | [] -> ()
            | resume :: rest ->
                sock.waiters <- rest;
                Renofs_engine.Sim.after (Node.sim node) 0.0 resume
          end);
  stack

let node t = t.node

let default_recv_buffer = 34816

let bind ?(recv_buffer = default_recv_buffer) stack ~port =
  if Hashtbl.mem stack.sockets port then
    invalid_arg (Printf.sprintf "Udp.bind: port %d in use" port);
  let sock =
    {
      stack;
      port;
      recv_buffer;
      queue = Queue.create ();
      queued_bytes = 0;
      waiters = [];
      drops = 0;
      closed = false;
    }
  in
  Hashtbl.replace stack.sockets port sock;
  sock

let bind_ephemeral ?recv_buffer stack =
  let rec pick () =
    let p = stack.next_ephemeral in
    stack.next_ephemeral <- stack.next_ephemeral + 1;
    if Hashtbl.mem stack.sockets p then pick () else p
  in
  bind ?recv_buffer stack ~port:(pick ())

let sendto sock ~dst ~dst_port payload =
  if sock.closed then invalid_arg "Udp.sendto: socket closed";
  Cpu.consume (Node.cpu sock.stack.node) sock.stack.sock_cost;
  (* The CPU time of checksumming is already charged by the node's
     [Nic.checksum_cost] on both paths; this only attaches the virtual
     header fields the receiver verifies. *)
  let sum =
    if sock.stack.checksum then
      Some (Mbuf.length payload, Mbuf.checksum payload)
    else None
  in
  Node.send_datagram sock.stack.node ?sum ~proto:Packet.Udp ~dst
    ~src_port:sock.port ~dst_port payload

let try_recv sock =
  match Queue.take_opt sock.queue with
  | None -> None
  | Some dg ->
      sock.queued_bytes <- sock.queued_bytes - Mbuf.length dg.payload;
      Some dg

exception Closed

let rec recv sock =
  match try_recv sock with
  | Some dg -> dg
  | None ->
      if sock.closed then raise Closed;
      Proc.suspend (fun resume -> sock.waiters <- sock.waiters @ [ resume ]);
      recv sock

let pending sock = Queue.length sock.queue
let drops sock = sock.drops
let checksum_drops stack = stack.checksum_drops

let close sock =
  sock.closed <- true;
  Hashtbl.remove sock.stack.sockets sock.port;
  let parked = sock.waiters in
  sock.waiters <- [];
  List.iter (fun resume -> resume ()) parked
