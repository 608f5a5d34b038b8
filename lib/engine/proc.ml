type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

let handler =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () -> continue k ()))
        | _ -> None);
  }

let run body = Effect.Deep.match_with body () handler
let spawn sim body = Sim.after sim 0.0 (fun () -> run body)

let sleep sim duration =
  suspend (fun resume -> Sim.after sim duration resume)

module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a
  type 'a t = { sim : Sim.t; mutable state : 'a state }

  let create sim = { sim; state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already full"
    | Empty waiters ->
        t.state <- Full v;
        List.iter (fun resume -> Sim.after t.sim 0.0 resume) (List.rev waiters)

  let is_full t = match t.state with Full _ -> true | Empty _ -> false
  let peek t = match t.state with Full v -> Some v | Empty _ -> None

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
        suspend (fun resume ->
            match t.state with
            | Full _ -> Sim.after t.sim 0.0 resume
            | Empty waiters -> t.state <- Empty (resume :: waiters));
        (match t.state with
        | Full v -> v
        | Empty _ -> assert false)
end

module Mailbox = struct
  type 'a t = {
    sim : Sim.t;
    items : 'a Queue.t;
    mutable waiters : (unit -> unit) list;
  }

  let create sim = { sim; items = Queue.create (); waiters = [] }

  let send t v =
    Queue.add v t.items;
    match t.waiters with
    | [] -> ()
    | resume :: rest ->
        t.waiters <- rest;
        Sim.after t.sim 0.0 resume

  let try_recv t = Queue.take_opt t.items
  let length t = Queue.length t.items

  let rec recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None ->
        suspend (fun resume -> t.waiters <- t.waiters @ [ resume ]);
        recv t
end

module Semaphore = struct
  type t = {
    sim : Sim.t;
    mutable count : int;
    mutable waiters : (unit -> unit) list;
  }

  let create sim count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { sim; count; waiters = [] }

  let rec acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else begin
      suspend (fun resume -> t.waiters <- t.waiters @ [ resume ]);
      acquire t
    end

  let release t =
    t.count <- t.count + 1;
    match t.waiters with
    | [] -> ()
    | resume :: rest ->
        t.waiters <- rest;
        Sim.after t.sim 0.0 resume

  let available t = t.count
end
