(** Background cross-traffic generators.

    The paper's transport tests ran across production campus networks
    "during off peak hours": real but uncontrolled competing load.  We
    model it as bursty on/off UDP flows between two nodes, sharing the
    same links and queues as the NFS traffic. *)

type profile = {
  on_rate : float;  (** datagrams/second while a burst is on *)
  on_mean : float;  (** mean burst duration, seconds *)
  off_mean : float;  (** mean gap between bursts, seconds *)
  sizes : (int * float) array;  (** (datagram bytes, weight) mixture *)
}

val campus_backbone : profile
(** Heavier bursts of bulk transfers that can briefly exceed an
    80 Mbit/s ring's drain rate and overflow router queues. *)

val start : src:Node.t -> dst:Node.t -> profile -> unit
(** Run the flow forever from [src] to [dst] (UDP port 9, discard).
    Traffic consumes [src]'s CPU to send, like any other datagram. *)

val sink : Node.t -> unit
(** Install a UDP handler that counts and discards; lets cross-traffic
    destinations absorb packets without an NFS stack. *)
