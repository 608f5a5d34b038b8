module Sim = Renofs_engine.Sim
module Mbuf = Renofs_mbuf.Mbuf

type entry = {
  mutable pieces : (int * Mbuf.t) list; (* sorted by offset, disjoint *)
  mutable total : int option; (* known once the last fragment arrives *)
  timer : Sim.timer;
}

type t = {
  sim : Sim.t;
  timeout : float;
  table : (int * int, entry) Hashtbl.t; (* (src, ip_id) *)
  mutable timeout_count : int;
  mutable on_timeout : src:int -> ip_id:int -> unit;
}

let create sim ?(timeout = 15.0) () =
  {
    sim;
    timeout;
    table = Hashtbl.create 16;
    timeout_count = 0;
    on_timeout = (fun ~src:_ ~ip_id:_ -> ());
  }

let set_on_timeout t f = t.on_timeout <- f

let pending t = Hashtbl.length t.table
let timeouts t = t.timeout_count

let covered pieces off =
  List.exists (fun (o, c) -> off >= o && off < o + Mbuf.length c) pieces

let insert_piece pieces off chain =
  let rec go = function
    | [] -> [ (off, chain) ]
    | (o, c) :: rest when off < o -> (off, chain) :: (o, c) :: rest
    | (o, c) :: rest -> (o, c) :: go rest
  in
  go pieces

let complete entry =
  match entry.total with
  | None -> None
  | Some total ->
      let rec contiguous expected = function
        | [] -> expected = total
        | (o, c) :: rest -> o = expected && contiguous (expected + Mbuf.length c) rest
      in
      if contiguous 0 entry.pieces then begin
        let whole = Mbuf.empty () in
        List.iter (fun (_, c) -> Mbuf.append_chain whole c) entry.pieces;
        Some whole
      end
      else None

let insert t (pkt : Packet.t) =
  if not (Packet.is_fragmented pkt) then Some pkt
  else begin
    let key = (pkt.Packet.src, pkt.Packet.ip_id) in
    let entry =
      match Hashtbl.find_opt t.table key with
      | Some e -> e
      | None ->
          let timer =
            Sim.timer_after t.sim t.timeout (fun () ->
                Hashtbl.remove t.table key;
                t.timeout_count <- t.timeout_count + 1;
                t.on_timeout ~src:(fst key) ~ip_id:(snd key))
          in
          let e = { pieces = []; total = None; timer } in
          Hashtbl.add t.table key e;
          e
    in
    let off = pkt.Packet.frag_off in
    if not (covered entry.pieces off) then begin
      entry.pieces <- insert_piece entry.pieces off pkt.Packet.payload;
      if not pkt.Packet.more then
        entry.total <- Some (off + Mbuf.length pkt.Packet.payload)
    end;
    match complete entry with
    | None -> None
    | Some whole ->
        Sim.cancel entry.timer;
        Hashtbl.remove t.table key;
        Some
          {
            pkt with
            Packet.frag_off = 0;
            more = false;
            total_data = Mbuf.length whole;
            payload = whole;
          }
  end
