module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Node = Renofs_net.Node
module Link = Renofs_net.Link
module Trace = Renofs_trace.Trace
module Nfs_server = Renofs_core.Nfs_server
module Json = Renofs_json.Json

type mangle_spec = {
  at : float;
  duration : float;
  link : string;
  rate : float;
  seed : int;
}

type action =
  | Server_crash of { at : float; downtime : float; server : string }
  | Link_down of { at : float; duration : float; link : string }
  | Loss_burst of { at : float; duration : float; link : string; loss : float }
  | Cpu_slow of { at : float; duration : float; node : string; factor : float }
  | Partition of { at : float; duration : float; between : string * string }
  | Corrupt of mangle_spec
  | Truncate of mangle_spec
  | Duplicate of mangle_spec
  | Reorder of mangle_spec

type schedule = { name : string; description : string; actions : action list }

(* The four wire-mangling actions differ only in which [Link.mangle_op]
   they drive; collapse them for describe/encode/install. *)
let mangle_parts = function
  | Corrupt m -> Some (Link.Corrupt, "corrupt", m)
  | Truncate m -> Some (Link.Truncate, "truncate", m)
  | Duplicate m -> Some (Link.Duplicate, "duplicate", m)
  | Reorder m -> Some (Link.Reorder, "reorder", m)
  | Server_crash _ | Link_down _ | Loss_burst _ | Cpu_slow _ | Partition _ ->
      None

let describe = function
  | Server_crash { at; downtime; server } ->
      Printf.sprintf "server_crash at=%g downtime=%g server=%s" at downtime
        server
  | Link_down { at; duration; link } ->
      Printf.sprintf "link_down at=%g duration=%g link=%s" at duration link
  | Loss_burst { at; duration; link; loss } ->
      Printf.sprintf "loss_burst at=%g duration=%g link=%s loss=%g" at duration
        link loss
  | Cpu_slow { at; duration; node; factor } ->
      Printf.sprintf "cpu_slow at=%g duration=%g node=%s factor=%g" at duration
        node factor
  | Partition { at; duration; between = a, b } ->
      Printf.sprintf "partition at=%g duration=%g between=%s,%s" at duration a b
  | (Corrupt _ | Truncate _ | Duplicate _ | Reorder _) as a ->
      let _, kind, { at; duration; link; rate; seed } =
        Option.get (mangle_parts a)
      in
      Printf.sprintf "%s at=%g duration=%g link=%s rate=%g seed=%d" kind at
        duration link rate seed

(* ------------------------------------------------------------------ *)
(* Built-in schedules                                                 *)
(* ------------------------------------------------------------------ *)

let builtins =
  [
    {
      name = "crash";
      description = "server crashes at t=4s, reboots 3s later";
      actions = [ Server_crash { at = 4.0; downtime = 3.0; server = "*" } ];
    };
    {
      name = "flaky";
      description = "5% corruption on every link from t=2s to t=8s";
      actions =
        [ Loss_burst { at = 2.0; duration = 6.0; link = "*"; loss = 0.05 } ];
    };
    {
      name = "flap";
      description = "every link goes down for 400ms, twice";
      actions =
        [
          Link_down { at = 3.0; duration = 0.4; link = "*" };
          Link_down { at = 6.0; duration = 0.4; link = "*" };
        ];
    };
    {
      name = "slow-server";
      description = "server CPU 8x slower from t=2s to t=8s";
      actions =
        [ Cpu_slow { at = 2.0; duration = 6.0; node = "server"; factor = 8.0 } ];
    };
    {
      name = "garble";
      description = "1% single-bit wire corruption on every link, t=1s to t=9s";
      actions =
        [
          Corrupt
            { at = 1.0; duration = 8.0; link = "*"; rate = 0.01; seed = 0 };
        ];
    };
    {
      name = "partition";
      description = "client and server partitioned from t=3s for 2s";
      actions =
        [
          Partition { at = 3.0; duration = 2.0; between = ("client", "server") };
        ];
    };
  ]

let find_builtin name = List.find_opt (fun s -> s.name = name) builtins

(* ------------------------------------------------------------------ *)
(* JSON schedule files ("renofs-fault/1")                             *)
(* ------------------------------------------------------------------ *)

let schema_version = "renofs-fault/1"

let action_of_json j =
  let ctx = "action" in
  let o = Json.obj ~ctx j in
  let kind = Json.str ~ctx:(ctx ^ ".kind") (Json.member ~ctx "kind" o) in
  let ctx = kind in
  let only known = Json.reject_unknown ~ctx ("kind" :: "at" :: known) o in
  let num name = Json.num ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let str name = Json.str ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let at = num "at" in
  match kind with
  | "server_crash" ->
      only [ "downtime"; "server" ];
      Server_crash
        {
          at;
          downtime = num "downtime";
          server =
            (match Json.member_opt "server" o with
            | Some s -> Json.str ~ctx:(ctx ^ ".server") s
            | None -> "*");
        }
  | "link_down" ->
      only [ "duration"; "link" ];
      Link_down { at; duration = num "duration"; link = str "link" }
  | "loss_burst" ->
      only [ "duration"; "link"; "loss" ];
      Loss_burst
        { at; duration = num "duration"; link = str "link"; loss = num "loss" }
  | "cpu_slow" ->
      only [ "duration"; "node"; "factor" ];
      Cpu_slow
        { at; duration = num "duration"; node = str "node"; factor = num "factor" }
  | "partition" -> (
      only [ "duration"; "between" ];
      match Json.arr ~ctx:"partition.between" (Json.member ~ctx "between" o) with
      | [ a; b ] ->
          Partition
            {
              at;
              duration = num "duration";
              between =
                ( Json.str ~ctx:"partition.between" a,
                  Json.str ~ctx:"partition.between" b );
            }
      | _ -> raise (Json.Bad "partition.between: expected a two-element array"))
  | "corrupt" | "truncate" | "duplicate" | "reorder" ->
      only [ "duration"; "link"; "rate"; "seed" ];
      let m =
        {
          at;
          duration = num "duration";
          link = str "link";
          rate = num "rate";
          seed =
            (match Json.member_opt "seed" o with
            | Some s -> Json.int ~ctx:(ctx ^ ".seed") s
            | None -> 0);
        }
      in
      (match kind with
      | "corrupt" -> Corrupt m
      | "truncate" -> Truncate m
      | "duplicate" -> Duplicate m
      | _ -> Reorder m)
  | other -> raise (Json.Bad (Printf.sprintf "unknown action kind %S" other))

let of_json j =
  try
    let top = Json.obj ~ctx:"schedule" j in
    Json.reject_unknown ~ctx:"schedule"
      [ "schema"; "name"; "description"; "actions" ]
      top;
    let version =
      Json.str ~ctx:"schema" (Json.member ~ctx:"schedule" "schema" top)
    in
    if version <> schema_version then
      raise
        (Json.Bad
           (Printf.sprintf "schema %S, expected %S" version schema_version));
    let name = Json.str ~ctx:"name" (Json.member ~ctx:"schedule" "name" top) in
    let description =
      match Json.member_opt "description" top with
      | Some d -> Json.str ~ctx:"description" d
      | None -> ""
    in
    let actions =
      Json.arr ~ctx:"actions" (Json.member ~ctx:"schedule" "actions" top)
      |> List.map action_of_json
    in
    if actions = [] then raise (Json.Bad "actions array is empty");
    Ok { name; description; actions }
  with Json.Bad msg -> Error msg

let parse s =
  match Json.parse s with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok doc -> of_json doc

let load_file path =
  match Json.load_file path with
  | Error _ as e -> e
  | Ok doc -> Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json doc)

let resolve spec =
  match find_builtin spec with Some s -> Ok s | None -> load_file spec

(* ------------------------------------------------------------------ *)
(* Installation                                                       *)
(* ------------------------------------------------------------------ *)

type env = {
  sim : Sim.t;
  nodes : Node.t list;
  servers : Nfs_server.t list;
  trace : Trace.t option;
}

let note env action =
  match env.trace with
  | Some tr ->
      Trace.record tr ~time:(Sim.now env.sim) ~node:(-1)
        (Trace.Fault_inject { action = describe action })
  | None -> ()

let all_links env = List.concat_map Node.links env.nodes

(* Link directions are named "<base>:<a>><b>" by [Node.connect]; a bare
   base name matches both directions. *)
let base_of name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let links_matching env pat =
  all_links env
  |> List.filter (fun l ->
         pat = "*" || Link.name l = pat || base_of (Link.name l) = pat)

let links_between env (a, b) =
  let dir x y = ":" ^ x ^ ">" ^ y in
  let suffix_matches name s =
    String.length name >= String.length s
    && String.sub name (String.length name - String.length s) (String.length s)
       = s
  in
  all_links env
  |> List.filter (fun l ->
         suffix_matches (Link.name l) (dir a b)
         || suffix_matches (Link.name l) (dir b a))

let node_named env name = List.find_opt (fun n -> Node.name n = name) env.nodes

let install env sched =
  (* Action times are relative to installation, so a schedule can be
     installed after a warmup phase and still mean "crash 4s into the
     measured run". *)
  let base = Sim.now env.sim in
  let at time f = Sim.at env.sim (base +. time) f in
  List.iter
    (fun action ->
      match action with
      | Server_crash { at = t; downtime; server } ->
          at t (fun () ->
              note env action;
              (* "*" crashes every server — the single-server worlds'
                 behaviour, unchanged; a name picks one shard out of a
                 fleet. *)
              env.servers
              |> List.iter (fun srv ->
                     if server = "*" || Node.name (Nfs_server.node srv) = server
                     then
                       Proc.spawn env.sim (fun () ->
                           Nfs_server.crash_and_reboot srv ~downtime)))
      | Link_down { at = t; duration; link } ->
          at t (fun () ->
              note env action;
              let ls = links_matching env link in
              List.iter (fun l -> Link.set_up l false) ls;
              Sim.after env.sim duration (fun () ->
                  List.iter (fun l -> Link.set_up l true) ls))
      | Loss_burst { at = t; duration; link; loss } ->
          at t (fun () ->
              note env action;
              let ls = links_matching env link in
              let saved = List.map (fun l -> (l, Link.loss l)) ls in
              List.iter (fun l -> Link.set_loss l loss) ls;
              Sim.after env.sim duration (fun () ->
                  List.iter (fun (l, v) -> Link.set_loss l v) saved))
      | Cpu_slow { at = t; duration; node; factor } ->
          at t (fun () ->
              note env action;
              match node_named env node with
              | Some n ->
                  let cpu = Node.cpu n in
                  let saved = Cpu.slowdown cpu in
                  Cpu.set_slowdown cpu factor;
                  Sim.after env.sim duration (fun () ->
                      Cpu.set_slowdown cpu saved)
              | None -> ())
      | Partition { at = t; duration; between } ->
          at t (fun () ->
              note env action;
              let ls = links_between env between in
              List.iter (fun l -> Link.set_up l false) ls;
              Sim.after env.sim duration (fun () ->
                  List.iter (fun l -> Link.set_up l true) ls))
      | Corrupt _ | Truncate _ | Duplicate _ | Reorder _ ->
          let op, _, { at = t; duration; link; rate; seed } =
            Option.get (mangle_parts action)
          in
          at t (fun () ->
              note env action;
              let ls = links_matching env link in
              let saved = List.map (fun l -> (l, Link.mangle_rate l op)) ls in
              List.iter (fun l -> Link.set_mangle l ~seed op rate) ls;
              Sim.after env.sim duration (fun () ->
                  List.iter (fun (l, v) -> Link.set_mangle l ~seed op v) saved)))
    sched.actions

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                 *)
(* ------------------------------------------------------------------ *)

module Check = struct
  type verdict = { v_name : string; v_ok : bool; v_detail : string }

  let non_idempotent proc = proc = 9 || proc = 10 || proc = 11

  (* Violations as records arrive: the first one's text and how many
     there were, all a verdict prints. *)
  type tally = { mutable first : string; mutable count : int }

  let tally () = { first = "ok"; count = 0 }

  let note tl msg =
    if tl.count = 0 then tl.first <- msg;
    tl.count <- tl.count + 1

  let tallied name { first; count } =
    {
      v_name = name;
      v_ok = count = 0;
      v_detail =
        (if count <= 1 then first
         else Printf.sprintf "%s (+%d more)" first (count - 1));
    }

  let verdict name violations =
    let tl = tally () in
    List.iter (note tl) violations;
    tallied name tl

  (* An acknowledged extent nothing later superseded: a
     [Write_committed] ([e_verf = None]), or a [Write_unstable] with its
     verifier and whether a COMMIT has covered it.  [seq] is its place
     in the stream, so read-backs run in trace order. *)
  type extent = {
    e_seq : int;
    e_file : int;
    e_off : int;
    e_len : int;
    e_digest : int;
    e_verf : int option;
    mutable e_committed : bool;
  }

  let overlaps e ~off ~len = e.e_off < off + len && off < e.e_off + e.e_len

  (* One server node.  A [Run_mark] starts a fresh world, whose files
     the post-run read-back cannot see and whose xids restart: the
     fields above [crashed_at] reset there. *)
  type node = {
    extents : (int, extent list) Hashtbl.t;  (* by file *)
    mutable acked : int;
    mutable covered : int;
    executed : (int32 * int, float) Hashtbl.t;
        (* non-idempotent (xid, proc) executions since the last crash *)
    mutable last_crash : float;
    mutable crashed_at : float;  (* the open crash; nan when none *)
    mutable worst : float;
    mutable last : float;  (* time of the node's latest record *)
  }

  type t = {
    nodes : (int, node) Hashtbl.t;
    mutable open_crashes : int;
    mutable seq : int;
    hard : tally;
    doubles : tally;
    stale : tally;
    wleases : (int, (int * float) list) Hashtbl.t;
        (* by file: (holder, expiry) of write leases unexpired at the
           file's latest grant *)
    last_mtime : (int, float) Hashtbl.t;
  }

  let create () =
    {
      nodes = Hashtbl.create 8;
      open_crashes = 0;
      seq = 0;
      hard = tally ();
      doubles = tally ();
      stale = tally ();
      wleases = Hashtbl.create 16;
      last_mtime = Hashtbl.create 16;
    }

  let node t id =
    match Hashtbl.find_opt t.nodes id with
    | Some s -> s
    | None ->
        let s =
          {
            extents = Hashtbl.create 16;
            acked = 0;
            covered = 0;
            executed = Hashtbl.create 16;
            last_crash = neg_infinity;
            crashed_at = Float.nan;
            worst = 0.0;
            last = 0.0;
          }
        in
        Hashtbl.replace t.nodes id s;
        s

  let find_list tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

  (* Record an acknowledged extent at node [s]: it supersedes every
     overlapping extent of the file that [spared] does not keep. *)
  let add t s ~file ~off ~len ~digest ~verf spared =
    t.seq <- t.seq + 1;
    let e =
      {
        e_seq = t.seq;
        e_file = file;
        e_off = off;
        e_len = len;
        e_digest = digest;
        e_verf = verf;
        e_committed = false;
      }
    in
    Hashtbl.replace s.extents file
      (e
      :: List.filter
           (fun x -> spared x || not (overlaps x ~off ~len))
           (find_list s.extents file))

  let observe t r =
    let now = r.Trace.time in
    (if t.open_crashes > 0 then
       match Hashtbl.find_opt t.nodes r.Trace.node with
       | Some s when not (Float.is_nan s.crashed_at) -> s.last <- now
       | _ -> ());
    match r.Trace.ev with
    | Trace.Run_mark _ ->
        Hashtbl.iter
          (fun _ s ->
            Hashtbl.reset s.extents;
            s.acked <- 0;
            s.covered <- 0;
            Hashtbl.reset s.executed;
            s.last_crash <- neg_infinity)
          t.nodes;
        Hashtbl.reset t.wleases;
        Hashtbl.reset t.last_mtime
    | Trace.Write_committed { file; off; len; digest; mtime } ->
        let s = node t r.Trace.node in
        s.acked <- s.acked + 1;
        (* An honest server's COMMIT flush echoes each extent as an
           identical [Write_committed], which must not supersede the
           unstable write it makes durable. *)
        add t s ~file ~off ~len ~digest ~verf:None (fun u ->
            u.e_verf <> None && u.e_off = off && u.e_len = len
            && u.e_digest = digest);
        Hashtbl.replace t.last_mtime file mtime
    | Trace.Write_unstable { file; off; len; digest; verf } ->
        (* Durable writes stand until a later acknowledged write. *)
        add t (node t r.Trace.node) ~file ~off ~len ~digest ~verf:(Some verf)
          (fun e -> e.e_verf = None)
    | Trace.Commit_ok { file; off; count; verf } ->
        (* An acknowledged COMMIT promises durability for every earlier
           unstable write it covers under the same verifier: a reboot
           between write and commit changed the verifier, so such
           writes stay uncovered, and until the client rewrites them
           their data may legally be gone. *)
        let s = node t r.Trace.node in
        List.iter
          (fun u ->
            if
              (not u.e_committed) && u.e_verf = Some verf && off <= u.e_off
              && (count = 0 || off + count >= u.e_off + u.e_len)
            then begin
              u.e_committed <- true;
              s.covered <- s.covered + 1
            end)
          (find_list s.extents file)
    | Trace.Wl_error { op; soft = false } ->
        note t.hard
          (Printf.sprintf "hard mount surfaced %s error at t=%.3f" op now)
    | Trace.Srv_crash ->
        let s = node t r.Trace.node in
        (* Executions before the crash can no longer count as doubles:
           the duplicate cache died with the server. *)
        s.last_crash <- now;
        Hashtbl.reset s.executed;
        if Float.is_nan s.crashed_at then begin
          s.crashed_at <- now;
          t.open_crashes <- t.open_crashes + 1
        end;
        s.last <- now;
        (* The lease table dies with the server: pre-crash grants no
           longer authorize anything. *)
        Hashtbl.reset t.wleases
    | Trace.Srv_service { xid; proc; _ } ->
        let s = node t r.Trace.node in
        if not (Float.is_nan s.crashed_at) then begin
          s.worst <- Float.max s.worst (now -. s.crashed_at);
          s.crashed_at <- Float.nan;
          t.open_crashes <- t.open_crashes - 1
        end;
        if non_idempotent proc then begin
          (match Hashtbl.find_opt s.executed (xid, proc) with
          | Some prev when prev > s.last_crash ->
              (* No crash between the two executions: the duplicate
                 cache should have replayed, not re-run. *)
              note t.doubles
                (Printf.sprintf
                   "%s xid=%ld executed at t=%.3f and again at t=%.3f"
                   (Trace.proc_name proc) xid prev now)
          | _ -> ());
          Hashtbl.replace s.executed (xid, proc) now
        end
    | Trace.Lease_grant { file; mode = "write"; holder; duration } ->
        Hashtbl.replace t.wleases file
          ((holder, now +. duration)
          :: List.filter
               (fun (_, expiry) -> now < expiry)
               (find_list t.wleases file))
    | Trace.Cached_read { file; holder; mtime } -> (
        match Hashtbl.find_opt t.last_mtime file with
        | Some committed
          when mtime < committed
               && List.exists
                    (fun (h, expiry) -> h <> holder && now < expiry)
                    (find_list t.wleases file) ->
            note t.stale
              (Printf.sprintf
                 "node %d served file %d from cache (mtime %.3f < %.3f) \
                  under a live conflicting write lease at t=%.3f"
                 holder file mtime committed now)
        | _ -> ())
    | _ -> ()

  (* The judged nodes: [nodes], or every node seen. *)
  let judged ?nodes t =
    match nodes with
    | Some ids ->
        List.filter_map
          (fun id ->
            Option.map (fun s -> (id, s)) (Hashtbl.find_opt t.nodes id))
          ids
    | None -> Hashtbl.fold (fun id s acc -> (id, s) :: acc) t.nodes []

  (* The extents [keep] admits, with their nodes, in trace order: only
     extents nothing later superseded are digest-comparable, and each
     reads back from its own node. *)
  let survivors ns keep =
    List.concat_map
      (fun (node, s) ->
        Hashtbl.fold
          (fun _ es acc ->
            List.fold_left
              (fun acc e -> if keep e then (node, e) :: acc else acc)
              acc es)
          s.extents [])
      ns
    |> List.sort (fun (_, a) (_, b) -> compare a.e_seq b.e_seq)

  let durability ?read_back name ~count ~what ~lost ~mismatch survivors =
    let ok detail = { v_name = name; v_ok = true; v_detail = detail } in
    match read_back with
    | None -> ok (Printf.sprintf "%d %s (no read-back handle)" count what)
    | Some read_back -> (
        let check (node, e) =
          match read_back ~node ~file:e.e_file ~off:e.e_off ~len:e.e_len with
          | None ->
              Some
                (Printf.sprintf "file %d vanished (%s at %d+%d lost)" e.e_file
                   lost e.e_off e.e_len)
          | Some data ->
              if Bytes.length data = e.e_len && Trace.digest data = e.e_digest
              then None
              else
                Some
                  (Printf.sprintf "file %d bytes %d+%d: %s" e.e_file e.e_off
                     e.e_len mismatch)
        in
        match List.filter_map check survivors with
        | [] -> ok (Printf.sprintf "%d %s verified" count what)
        | violations -> verdict name violations)

  let verdicts ?read_back ?nodes t =
    let ns = judged ?nodes t in
    let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 ns in
    (* A read-back charges the server's CPU and disk, so the order of
       read-backs is part of the simulated run: committed-durable reads
       first, as it always has. *)
    let committed =
      durability ?read_back "committed-durable"
        ~count:(sum (fun s -> s.covered))
        ~what:"commit-covered writes" ~lost:"committed write"
        ~mismatch:"commit acknowledged but read-back digest mismatches"
        (survivors ns (fun e -> e.e_committed))
    in
    let durable =
      durability ?read_back "durable-writes"
        ~count:(sum (fun s -> s.acked))
        ~what:"acknowledged writes" ~lost:"write"
        ~mismatch:"read-back digest mismatch"
        (survivors ns (fun e -> e.e_verf = None))
    in
    [
      durable;
      committed;
      tallied "hard-mount-errors" t.hard;
      tallied "no-double-effect" t.doubles;
      tallied "no-stale-lease-reads" t.stale;
    ]

  let recovery ?nodes t =
    List.fold_left
      (fun acc (_, s) ->
        let open_gap =
          if Float.is_nan s.crashed_at then 0.0 else s.last -. s.crashed_at
        in
        Float.max acc (Float.max s.worst open_gap))
      0.0 (judged ?nodes t)

  let check_all ?read_back records =
    let t = create () in
    List.iter (observe t) records;
    verdicts ?read_back:(Option.map (fun rb ~node:_ -> rb) read_back) t

  (* -- end-to-end data integrity ----------------------------------- *)

  let data_integrity ~expected ~read_back =
    let name = "data-integrity" in
    let violations =
      List.filter_map
        (fun (file, off, data) ->
          let len = Bytes.length data in
          match read_back ~file ~off ~len with
          | None ->
              Some
                (Printf.sprintf "file %d bytes %d+%d unreadable" file off len)
          | Some got ->
              if Bytes.equal got data then None
              else
                Some
                  (Printf.sprintf
                     "file %d bytes %d+%d differ from what the client sent"
                     file off len))
        expected
    in
    if violations = [] then
      {
        v_name = name;
        v_ok = true;
        v_detail =
          Printf.sprintf "%d client extents verified" (List.length expected);
      }
    else verdict name violations

  let summary verdicts =
    let failing = List.filter (fun v -> not v.v_ok) verdicts in
    if failing = [] then Printf.sprintf "%d/%d ok" (List.length verdicts) (List.length verdicts)
    else
      "FAIL:" ^ String.concat "," (List.map (fun v -> v.v_name) failing)
end
