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
  let num name = Json.num ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let str name = Json.str ~ctx:(ctx ^ "." ^ name) (Json.member ~ctx name o) in
  let at = num "at" in
  match kind with
  | "server_crash" ->
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
      Link_down { at; duration = num "duration"; link = str "link" }
  | "loss_burst" ->
      Loss_burst
        { at; duration = num "duration"; link = str "link"; loss = num "loss" }
  | "cpu_slow" ->
      Cpu_slow
        { at; duration = num "duration"; node = str "node"; factor = num "factor" }
  | "partition" -> (
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

  let verdict name = function
    | [] -> { v_name = name; v_ok = true; v_detail = "ok" }
    | v :: _ as all ->
        {
          v_name = name;
          v_ok = false;
          v_detail =
            (if List.length all = 1 then v
             else Printf.sprintf "%s (+%d more)" v (List.length all - 1));
        }

  (* -- durable writes ---------------------------------------------- *)

  type committed = {
    w_file : int;
    w_off : int;
    w_len : int;
    w_digest : int;
  }

  let durable_writes ?read_back records =
    let name = "durable-writes" in
    (* Oldest first; later writes supersede overlapping extents, and a
       Run_mark starts a fresh world whose writes we cannot read back. *)
    let writes = ref [] in
    List.iter
      (fun r ->
        match r.Trace.ev with
        | Trace.Run_mark _ -> writes := []
        | Trace.Write_committed { file; off; len; digest; _ } ->
            writes :=
              { w_file = file; w_off = off; w_len = len; w_digest = digest }
              :: !writes
        | _ -> ())
      records;
    let writes = List.rev !writes in
    match read_back with
    | None ->
        {
          v_name = name;
          v_ok = true;
          v_detail =
            Printf.sprintf "%d acknowledged writes (no read-back handle)"
              (List.length writes);
        }
    | Some read_back ->
        let overlaps a b =
          a.w_file = b.w_file && a.w_off < b.w_off + b.w_len
          && b.w_off < a.w_off + a.w_len
        in
        let rec surviving = function
          | [] -> []
          | w :: later ->
              (* Conservative: only check writes no later write touches,
                 so a digest comparison over the full extent is exact. *)
              if List.exists (overlaps w) later then surviving later
              else w :: surviving later
        in
        let violations =
          List.filter_map
            (fun w ->
              match read_back ~file:w.w_file ~off:w.w_off ~len:w.w_len with
              | None ->
                  Some
                    (Printf.sprintf "file %d vanished (write at %d+%d lost)"
                       w.w_file w.w_off w.w_len)
              | Some data ->
                  if Bytes.length data = w.w_len && Trace.digest data = w.w_digest
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "file %d bytes %d+%d: read-back digest mismatch"
                         w.w_file w.w_off w.w_len))
            (surviving writes)
        in
        if violations = [] then
          {
            v_name = name;
            v_ok = true;
            v_detail =
              Printf.sprintf "%d acknowledged writes verified"
                (List.length writes);
          }
        else verdict name violations

  (* -- v3 committed durability -------------------------------------- *)

  type unstable_w = {
    u_file : int;
    u_off : int;
    u_len : int;
    u_digest : int;
    u_verf : int;
    mutable u_committed : bool;
  }

  (* Every write-class event in trace order, for the supersession scan. *)
  type wseq =
    | Wu of unstable_w
    | Wc of { c_file : int; c_off : int; c_len : int; c_digest : int }

  let committed_durable ?read_back records =
    let name = "committed-durable" in
    let seq = ref [] in
    (* Newest first while accumulating. *)
    List.iter
      (fun r ->
        match r.Trace.ev with
        | Trace.Run_mark _ -> seq := []
        | Trace.Write_unstable { file; off; len; digest; verf } ->
            seq :=
              Wu
                {
                  u_file = file;
                  u_off = off;
                  u_len = len;
                  u_digest = digest;
                  u_verf = verf;
                  u_committed = false;
                }
              :: !seq
        | Trace.Write_committed { file; off; len; digest; _ } ->
            seq :=
              Wc { c_file = file; c_off = off; c_len = len; c_digest = digest }
              :: !seq
        | Trace.Commit_ok { file; off; count; verf } ->
            (* An acknowledged COMMIT promises durability for every
               earlier unstable write it covers {e under the same
               verifier}: a reboot between write and commit changed the
               verifier, so such writes stay uncovered — the client is
               obliged to rewrite them, and until then their data may
               legally be gone. *)
            List.iter
              (function
                | Wu u
                  when (not u.u_committed)
                       && u.u_file = file && u.u_verf = verf && off <= u.u_off
                       && (count = 0 || off + count >= u.u_off + u.u_len) ->
                    u.u_committed <- true
                | _ -> ())
              !seq
        | _ -> ())
      records;
    let seq = List.rev !seq in
    let total =
      List.length
        (List.filter (function Wu u -> u.u_committed | Wc _ -> false) seq)
    in
    match read_back with
    | None ->
        {
          v_name = name;
          v_ok = true;
          v_detail =
            Printf.sprintf "%d commit-covered writes (no read-back handle)"
              total;
        }
    | Some read_back ->
        let overlaps u ~file ~off ~len =
          u.u_file = file && u.u_off < off + len && off < u.u_off + u.u_len
        in
        (* As in [durable_writes], only extents nothing later superseded
           are digest-comparable — but an honest server's COMMIT flush
           echoes each extent as an identical [Write_committed], which
           must not count as supersession of the write it makes durable. *)
        let rec survivors = function
          | [] -> []
          | Wc _ :: later -> survivors later
          | Wu u :: later ->
              if not u.u_committed then survivors later
              else if
                List.exists
                  (function
                    | Wu v ->
                        overlaps u ~file:v.u_file ~off:v.u_off ~len:v.u_len
                    | Wc c ->
                        overlaps u ~file:c.c_file ~off:c.c_off ~len:c.c_len
                        && not
                             (c.c_file = u.u_file && c.c_off = u.u_off
                              && c.c_len = u.u_len && c.c_digest = u.u_digest))
                  later
              then survivors later
              else u :: survivors later
        in
        let violations =
          List.filter_map
            (fun u ->
              match read_back ~file:u.u_file ~off:u.u_off ~len:u.u_len with
              | None ->
                  Some
                    (Printf.sprintf
                       "file %d vanished (committed write at %d+%d lost)"
                       u.u_file u.u_off u.u_len)
              | Some data ->
                  if
                    Bytes.length data = u.u_len
                    && Trace.digest data = u.u_digest
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "file %d bytes %d+%d: commit acknowledged but \
                          read-back digest mismatches"
                         u.u_file u.u_off u.u_len))
            (survivors seq)
        in
        if violations = [] then
          {
            v_name = name;
            v_ok = true;
            v_detail =
              Printf.sprintf "%d commit-covered writes verified" total;
          }
        else verdict name violations

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

  (* -- hard mount errors ------------------------------------------- *)

  let hard_mount_errors records =
    let violations =
      List.filter_map
        (fun r ->
          match r.Trace.ev with
          | Trace.Wl_error { op; soft = false } ->
              Some
                (Printf.sprintf "hard mount surfaced %s error at t=%.3f" op
                   r.Trace.time)
          | _ -> None)
        records
    in
    verdict "hard-mount-errors" violations

  (* -- duplicate execution of non-idempotent RPCs ------------------ *)

  let no_double_effect records =
    let violations = ref [] in
    let seen : (int32 * int, float) Hashtbl.t = Hashtbl.create 64 in
    let last_crash = ref neg_infinity in
    List.iter
      (fun r ->
        match r.Trace.ev with
        | Trace.Run_mark _ ->
            Hashtbl.reset seen;
            last_crash := neg_infinity
        | Trace.Srv_crash -> last_crash := r.Trace.time
        | Trace.Srv_service { xid; proc; _ } when non_idempotent proc ->
            (match Hashtbl.find_opt seen (xid, proc) with
            | Some prev when prev > !last_crash ->
                (* No crash between the two executions: the duplicate
                   cache should have replayed, not re-run. *)
                violations :=
                  Printf.sprintf
                    "%s xid=%ld executed at t=%.3f and again at t=%.3f"
                    (Trace.proc_name proc) xid prev r.Trace.time
                  :: !violations
            | _ -> ());
            Hashtbl.replace seen (xid, proc) r.Trace.time
        | _ -> ())
      records;
    verdict "no-double-effect" (List.rev !violations)

  (* -- stale reads under live write leases ------------------------- *)

  type wlease = { wl_holder : int; wl_expiry : float }

  let no_stale_lease_reads records =
    let violations = ref [] in
    let wleases : (int, wlease list) Hashtbl.t = Hashtbl.create 16 in
    let last_mtime : (int, float) Hashtbl.t = Hashtbl.create 16 in
    let reset () =
      Hashtbl.reset wleases;
      Hashtbl.reset last_mtime
    in
    List.iter
      (fun r ->
        let now = r.Trace.time in
        match r.Trace.ev with
        | Trace.Run_mark _ -> reset ()
        (* The lease table dies with the server: pre-crash grants no
           longer authorize anything and must not raise violations. *)
        | Trace.Srv_crash -> Hashtbl.reset wleases
        | Trace.Lease_grant { file; mode = "write"; holder; duration } ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt wleases file) in
            Hashtbl.replace wleases file
              ({ wl_holder = holder; wl_expiry = now +. duration } :: cur)
        | Trace.Write_committed { file; mtime; _ } ->
            Hashtbl.replace last_mtime file mtime
        | Trace.Cached_read { file; holder; mtime } -> (
            match Hashtbl.find_opt last_mtime file with
            | Some committed when mtime < committed ->
                let conflicting =
                  Option.value ~default:[] (Hashtbl.find_opt wleases file)
                  |> List.exists (fun wl ->
                         wl.wl_holder <> holder && now < wl.wl_expiry)
                in
                if conflicting then
                  violations :=
                    Printf.sprintf
                      "node %d served file %d from cache (mtime %.3f < %.3f) \
                       under a live conflicting write lease at t=%.3f"
                      holder file mtime committed now
                    :: !violations
            | _ -> ())
        | _ -> ())
      records;
    verdict "no-stale-lease-reads" (List.rev !violations)

  let check_all ?read_back records =
    [
      durable_writes ?read_back records;
      committed_durable ?read_back records;
      hard_mount_errors records;
      no_double_effect records;
      no_stale_lease_reads records;
    ]

  let summary verdicts =
    let failing = List.filter (fun v -> not v.v_ok) verdicts in
    if failing = [] then Printf.sprintf "%d/%d ok" (List.length verdicts) (List.length verdicts)
    else
      "FAIL:" ^ String.concat "," (List.map (fun v -> v.v_name) failing)

  let recovery_time records =
    let worst = ref 0.0 in
    let crash_at = ref None in
    let end_time = ref 0.0 in
    List.iter
      (fun r ->
        end_time := r.Trace.time;
        match r.Trace.ev with
        | Trace.Srv_crash -> (
            match !crash_at with None -> crash_at := Some r.Trace.time | Some _ -> ())
        | Trace.Srv_service _ -> (
            match !crash_at with
            | Some t0 ->
                worst := Float.max !worst (r.Trace.time -. t0);
                crash_at := None
            | None -> ())
        | _ -> ())
      records;
    (match !crash_at with
    | Some t0 -> worst := Float.max !worst (!end_time -. t0)
    | None -> ());
    !worst
end
