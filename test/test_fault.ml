(* The fault layer: schedule parsing, the trace-driven invariant
   checker (each invariant must reject a seeded violation and pass a
   clean stream), deterministic chaos results at any --jobs, a real
   over-the-wire duplicate-CREATE probe of the Juszczak cache, and the
   crash scenario from test_crash ported onto the schedule API. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Rpc_msg = Renofs_rpc.Rpc_msg
module Xdr = Renofs_xdr.Xdr
module Trace = Renofs_trace.Trace
module Fault = Renofs_fault.Fault
module Check = Fault.Check
module E = Renofs_workload.Experiments
module Bench_json = Renofs_workload.Bench_json
module P = Nfs_proto

(* ---------------------------------------------------------------- *)
(* Schedule JSON                                                     *)
(* ---------------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_schedule_json () =
  let text =
    {|{ "schema": "renofs-fault/1", "name": "x", "description": "d",
        "actions": [
          {"kind":"server_crash","at":4.0,"downtime":3.0},
          {"kind":"link_down","at":3.0,"duration":0.5,"link":"eth0"},
          {"kind":"loss_burst","at":2.0,"duration":6.0,"link":"*","loss":0.05},
          {"kind":"cpu_slow","at":2.0,"duration":6.0,"node":"server","factor":8.0},
          {"kind":"partition","at":3.0,"duration":2.0,
           "between":["client","server"]} ] }|}
  in
  (match Fault.parse text with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      Alcotest.(check string) "name" "x" s.Fault.name;
      Alcotest.(check int) "actions" 5 (List.length s.Fault.actions);
      match s.Fault.actions with
      | Fault.Server_crash { at; downtime; server } :: _ ->
          Alcotest.(check (float 1e-9)) "at" 4.0 at;
          Alcotest.(check (float 1e-9)) "downtime" 3.0 downtime;
          Alcotest.(check string) "server" "*" server
      | _ -> Alcotest.fail "first action should be server_crash"));
  (match Fault.parse "{}" with
  | Ok _ -> Alcotest.fail "missing schema accepted"
  | Error _ -> ());
  (match
     Fault.parse
       {|{"schema":"renofs-fault/1","name":"x","actions":[{"kind":"nope"}]}|}
   with
  | Ok _ -> Alcotest.fail "unknown action kind accepted"
  | Error _ -> ());
  (* A field the schedule or an action does not take is refused by
     name, not silently ignored. *)
  List.iter
    (fun (field, text) ->
      match Fault.parse text with
      | Ok _ -> Alcotest.failf "field %s accepted" field
      | Error e ->
          Alcotest.(check bool) ("names the field: " ^ e) true
            (contains e (Printf.sprintf "%S" field)))
    [
      ( "descripton",
        {|{"schema":"renofs-fault/1","name":"x","descripton":"d",
           "actions":[{"kind":"server_crash","at":4.0,"downtime":3.0}]}|} );
      ( "rate",
        {|{"schema":"renofs-fault/1","name":"x","actions":[
           {"kind":"link_down","at":3.0,"duration":0.5,"link":"eth0","rate":0.1}]}|}
      );
    ];
  (match Fault.resolve "crash" with
  | Ok s -> Alcotest.(check string) "builtin resolves" "crash" s.Fault.name
  | Error e -> Alcotest.fail e);
  match Fault.resolve "/no/such/schedule.json" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let test_mangle_actions_json () =
  let text =
    {|{ "schema": "renofs-fault/1", "name": "m", "actions": [
         {"kind":"corrupt","at":1.0,"duration":8.0,"link":"*","rate":0.01,"seed":7},
         {"kind":"truncate","at":1.0,"duration":8.0,"link":"eth0","rate":0.02},
         {"kind":"duplicate","at":1.0,"duration":8.0,"link":"*","rate":0.03},
         {"kind":"reorder","at":1.0,"duration":8.0,"link":"*","rate":0.04} ] }|}
  in
  (match Fault.parse text with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      match s.Fault.actions with
      | [
       Fault.Corrupt c; Fault.Truncate t; Fault.Duplicate d; Fault.Reorder o;
      ] ->
          Alcotest.(check int) "explicit seed" 7 c.Fault.seed;
          Alcotest.(check int) "seed defaults to 0" 0 t.Fault.seed;
          Alcotest.(check string) "link" "eth0" t.Fault.link;
          Alcotest.(check (float 1e-9)) "rate" 0.03 d.Fault.rate;
          Alcotest.(check (float 1e-9)) "at" 1.0 o.Fault.at
      | _ -> Alcotest.fail "expected the four mangle actions in order"));
  (* missing rate *)
  (match
     Fault.parse
       {|{"schema":"renofs-fault/1","name":"m",
          "actions":[{"kind":"corrupt","at":1.0,"duration":8.0,"link":"*"}]}|}
   with
  | Ok _ -> Alcotest.fail "corrupt without rate accepted"
  | Error _ -> ());
  (match
     Fault.parse
       {|{"schema":"renofs-fault/1","name":"m",
          "actions":[{"kind":"corrupt","at":1.0,"duration":8.0,"link":"*",
                      "rate":0.01,"seed":2.5}]}|}
   with
  | Ok _ -> Alcotest.fail "fractional seed accepted"
  | Error e ->
      Alcotest.(check bool) ("names the field: " ^ e) true
        (contains e "corrupt.seed"));
  match Fault.resolve "garble" with
  | Ok s -> (
      match s.Fault.actions with
      | [ Fault.Corrupt _ ] -> ()
      | _ -> Alcotest.fail "garble should be a single corrupt action")
  | Error e -> Alcotest.fail e

(* An outer schedule reaches the multi-client worlds once their load
   starts, as it does after a paper world's warmup: in every scaling and
   fleet cell the server crash falls between the first and the last RPC
   the clients send. *)
let test_faults_reach_scaling_and_fleet () =
  let crash = Option.get (Fault.find_builtin "crash") in
  List.iter
    (fun id ->
      let spec = Option.get (E.spec id) in
      let trace = Trace.create ~capacity:(1 lsl 20) () in
      ignore (E.run_spec ~jobs:1 ~trace ~faults:crash spec);
      (* Each world's records follow its Run_mark. *)
      let segments =
        List.fold_left
          (fun acc r ->
            match (r.Trace.ev, acc) with
            | Trace.Run_mark { label }, _ -> (label, []) :: acc
            | ev, (label, evs) :: rest -> (label, ev :: evs) :: rest
            | _, [] -> acc)
          [] (Trace.to_list trace)
      in
      Alcotest.(check int) (id ^ ": one segment per cell")
        (List.length spec.E.sp_cells) (List.length segments);
      List.iter
        (fun (label, rev_evs) ->
          let evs = List.rev rev_evs in
          let at p =
            List.concat (List.mapi (fun i ev -> if p ev then [ i ] else []) evs)
          in
          let sends = at (function Trace.Rpc_send _ -> true | _ -> false)
          and crashes = at (function Trace.Srv_crash -> true | _ -> false) in
          match (sends, List.rev sends) with
          | first :: _, last :: _ ->
              Alcotest.(check bool) (label ^ ": a crash during the load") true
                (List.exists (fun i -> first < i && i < last) crashes)
          | _ -> Alcotest.failf "%s: no RPC sent" label)
        segments)
    [ "scaling"; "fleet-quick" ]

let test_data_integrity_check () =
  let store : (int * int, bytes) Hashtbl.t = Hashtbl.create 8 in
  let read_back ~file ~off ~len =
    Option.bind (Hashtbl.find_opt store (file, off)) (fun b ->
        if Bytes.length b = len then Some b else None)
  in
  let expected = [ (0, 0, Bytes.of_string "good"); (1, 8, Bytes.of_string "data") ] in
  Hashtbl.replace store (0, 0) (Bytes.of_string "good");
  Hashtbl.replace store (1, 8) (Bytes.of_string "data");
  Alcotest.(check bool) "clean store passes" true
    (Check.data_integrity ~expected ~read_back).Check.v_ok;
  (* One silently corrupted byte — what a checksum-less UDP write
     suffers — must be flagged. *)
  Hashtbl.replace store (1, 8) (Bytes.of_string "dXta");
  let v = Check.data_integrity ~expected ~read_back in
  Alcotest.(check bool) "corrupted extent flagged" false v.Check.v_ok;
  Alcotest.(check string) "named" "data-integrity" v.Check.v_name;
  Hashtbl.remove store (0, 0);
  Alcotest.(check bool) "vanished extent flagged" false
    (Check.data_integrity ~expected ~read_back).Check.v_ok

let test_new_events_jsonl_roundtrip () =
  List.iter
    (fun ev ->
      let r = { Trace.time = 1.25; node = 3; ev } in
      Alcotest.(check bool)
        (Trace.line_of_record r)
        true
        (Trace.record_of_line (Trace.line_of_record r) = r))
    [
      Trace.Srv_crash;
      Trace.Srv_reboot;
      Trace.Write_committed
        { file = 7; off = 1024; len = 512; digest = 12345; mtime = 1.0 };
      Trace.Lease_grant { file = 7; mode = "write"; holder = 1; duration = 6.0 };
      Trace.Cached_read { file = 7; holder = 1; mtime = 0.5 };
      Trace.Wl_error { op = "create"; soft = true };
      Trace.Fault_inject { action = "server_crash at=4 downtime=3" };
      Trace.Pkt_drop { link = "eth0:client>server"; bytes = 1500; reason = Trace.Link_down };
      Trace.Pkt_drop { link = "udp:2049"; bytes = 1500; reason = Trace.Bad_checksum };
      Trace.Pkt_drop { link = "client:rpc"; bytes = 40; reason = Trace.Garbled };
      Trace.Pkt_mangle { link = "eth0:client>server"; bytes = 1500; op = "corrupt" };
      Trace.Write_unstable
        { file = 7; off = 1024; len = 512; digest = 12345; verf = 77 };
      Trace.Commit_ok { file = 7; off = 0; count = 0; verf = 77 };
      Trace.Verf_mismatch { file = 7; expected = 77; got = 91 };
    ]

(* ---------------------------------------------------------------- *)
(* Invariants against synthetic streams                              *)
(* ---------------------------------------------------------------- *)

let r ?(node = 1) time ev = { Trace.time; node; ev }

(* One invariant's verdict over a record list, through [check_all]. *)
let invariant name ?read_back records =
  List.find
    (fun v -> v.Check.v_name = name)
    (Check.check_all ?read_back records)

let test_hard_mount_invariant () =
  let bad = [ r 1.0 (Trace.Wl_error { op = "write"; soft = false }) ] in
  Alcotest.(check bool) "hard-mount error flagged" false
    (invariant "hard-mount-errors" bad).Check.v_ok;
  let ok = [ r 1.0 (Trace.Wl_error { op = "write"; soft = true }) ] in
  Alcotest.(check bool) "soft give-up is legal" true
    (invariant "hard-mount-errors" ok).Check.v_ok

let test_double_effect_invariant () =
  let svc t =
    r ~node:2 t (Trace.Srv_service { xid = 7l; proc = 9; service = 0.001 })
  in
  Alcotest.(check bool) "double CREATE flagged" false
    (invariant "no-double-effect" [ svc 1.0; svc 2.0 ]).Check.v_ok;
  (* A crash between the two executions is the paper's known
     at-least-once hazard — the cache died with the server. *)
  let crashed =
    [ svc 1.0; r ~node:2 1.5 Trace.Srv_crash; r ~node:2 1.6 Trace.Srv_reboot;
      svc 2.0 ]
  in
  Alcotest.(check bool) "re-execution across a crash tolerated" true
    (invariant "no-double-effect" crashed).Check.v_ok

let test_stale_lease_invariant () =
  let base =
    [
      r ~node:2 1.0
        (Trace.Lease_grant { file = 5; mode = "write"; holder = 1; duration = 6.0 });
      r ~node:2 2.0
        (Trace.Write_committed
           { file = 5; off = 0; len = 4; digest = 0; mtime = 2.0 });
    ]
  in
  let stale =
    base @ [ r ~node:3 3.0 (Trace.Cached_read { file = 5; holder = 3; mtime = 1.0 }) ]
  in
  Alcotest.(check bool) "stale cached read flagged" false
    (invariant "no-stale-lease-reads" stale).Check.v_ok;
  let after_crash =
    base
    @ [
        r ~node:2 2.5 Trace.Srv_crash;
        r ~node:3 3.0 (Trace.Cached_read { file = 5; holder = 3; mtime = 1.0 });
      ]
  in
  Alcotest.(check bool) "crash voids the conflicting lease" true
    (invariant "no-stale-lease-reads" after_crash).Check.v_ok

let test_durability_invariant () =
  let commit t data =
    r ~node:2 t
      (Trace.Write_committed
         {
           file = 9;
           off = 0;
           len = Bytes.length data;
           digest = Trace.digest data;
           mtime = t;
         })
  in
  let w = commit 1.0 (Bytes.of_string "hello") in
  let returns s ~file:_ ~off:_ ~len:_ = Some (Bytes.of_string s) in
  let gone ~file:_ ~off:_ ~len:_ = None in
  Alcotest.(check bool) "matching read-back passes" true
    (invariant "durable-writes" ~read_back:(returns "hello") [ w ]).Check.v_ok;
  Alcotest.(check bool) "corrupted read-back flagged" false
    (invariant "durable-writes" ~read_back:(returns "jello") [ w ]).Check.v_ok;
  Alcotest.(check bool) "vanished file flagged" false
    (invariant "durable-writes" ~read_back:gone [ w ]).Check.v_ok;
  (* A later overlapping write supersedes the first: only the final
     extent is digest-checked. *)
  let w2 = commit 2.0 (Bytes.of_string "world") in
  Alcotest.(check bool) "superseded write not checked" true
    (invariant "durable-writes" ~read_back:(returns "world") [ w; w2 ]).Check.v_ok;
  Alcotest.(check bool) "summary names the failure" true
    (String.length
       (Check.summary [ invariant "hard-mount-errors" [ r 1.0 (Trace.Wl_error { op = "x"; soft = false }) ] ])
    >= 4)

let test_committed_durable_invariant () =
  let data = Bytes.of_string "hello" in
  let wu t verf =
    r ~node:2 t
      (Trace.Write_unstable
         { file = 9; off = 0; len = 5; digest = Trace.digest data; verf })
  in
  let cok t verf =
    r ~node:2 t (Trace.Commit_ok { file = 9; off = 0; count = 0; verf })
  in
  let wc t s =
    r ~node:2 t
      (Trace.Write_committed
         {
           file = 9;
           off = 0;
           len = String.length s;
           digest = Trace.digest (Bytes.of_string s);
           mtime = t;
         })
  in
  let returns s ~file:_ ~off:_ ~len:_ = Some (Bytes.of_string s) in
  let gone ~file:_ ~off:_ ~len:_ = None in
  (* The contract: commit-covered unstable data must survive. *)
  Alcotest.(check bool) "covered + present passes" true
    (invariant "committed-durable" ~read_back:(returns "hello") [ wu 1.0 7; cok 2.0 7 ])
      .Check.v_ok;
  let v =
    invariant "committed-durable" ~read_back:gone [ wu 1.0 7; cok 2.0 7 ]
  in
  Alcotest.(check bool) "covered + vanished flagged" false v.Check.v_ok;
  Alcotest.(check string) "named" "committed-durable" v.Check.v_name;
  (* Unstable data never covered by a COMMIT may legally vanish. *)
  Alcotest.(check bool) "uncovered may vanish" true
    (invariant "committed-durable" ~read_back:gone [ wu 1.0 7 ]).Check.v_ok;
  (* A verifier change between write and commit leaves the write
     uncovered by construction: the client owes the replay, not the
     server the data. *)
  Alcotest.(check bool) "verifier change uncovers" true
    (invariant "committed-durable" ~read_back:gone [ wu 1.0 7; cok 2.0 8 ]).Check.v_ok;
  (* A later different committed write supersedes the extent... *)
  Alcotest.(check bool) "superseded extent not checked" true
    (invariant "committed-durable" ~read_back:(returns "world")
       [ wu 1.0 7; cok 2.0 7; wc 3.0 "world" ])
      .Check.v_ok;
  (* ...but the server's own COMMIT-flush echo (identical extent and
     digest) does not — the data must still read back. *)
  Alcotest.(check bool) "flush echo does not supersede" false
    (invariant "committed-durable" ~read_back:(returns "jello")
       [ wu 1.0 7; cok 2.0 7; wc 2.0 "hello" ])
      .Check.v_ok;
  (* No read-back handle: vacuous pass, and it says so. *)
  let vac = invariant "committed-durable" [ wu 1.0 7; cok 2.0 7 ] in
  Alcotest.(check bool) "vacuous without read_back" true vac.Check.v_ok

(* A mark starts a fresh world: the post-run read-back cannot see the
   old world's files, its xids restart and its leases are gone. *)
let test_mark_starts_fresh_world () =
  let mark t = r ~node:(-1) t (Trace.Run_mark { label = "next" }) in
  let gone ~file:_ ~off:_ ~len:_ = None in
  let hello = Bytes.of_string "hello" in
  let wc t =
    r ~node:2 t
      (Trace.Write_committed
         { file = 9; off = 0; len = 5; digest = Trace.digest hello; mtime = t })
  in
  let wu t =
    r ~node:2 t
      (Trace.Write_unstable
         { file = 9; off = 0; len = 5; digest = Trace.digest hello; verf = 7 })
  in
  let cok t =
    r ~node:2 t (Trace.Commit_ok { file = 9; off = 0; count = 0; verf = 7 })
  in
  let svc t =
    r ~node:2 t (Trace.Srv_service { xid = 7l; proc = 9; service = 0.001 })
  in
  let grant t =
    r ~node:2 t
      (Trace.Lease_grant
         { file = 9; mode = "write"; holder = 1; duration = 60.0 })
  in
  let cached t =
    r ~node:3 t (Trace.Cached_read { file = 9; holder = 3; mtime = 0.0 })
  in
  let ok name v = Alcotest.(check bool) name true v.Check.v_ok in
  let bad name v = Alcotest.(check bool) name false v.Check.v_ok in
  let durable = invariant "durable-writes" ~read_back:gone in
  let committed = invariant "committed-durable" ~read_back:gone in
  let doubles = invariant "no-double-effect" in
  let stale = invariant "no-stale-lease-reads" in
  bad "write read back in its world" (durable [ wc 1.0 ]);
  ok "not after a mark" (durable [ wc 1.0; mark 2.0 ]);
  bad "commit read back in its world" (committed [ wu 1.0; cok 1.5 ]);
  ok "not after a mark" (committed [ wu 1.0; cok 1.5; mark 2.0 ]);
  bad "double in one world" (doubles [ svc 1.0; svc 3.0 ]);
  ok "xids restart at a mark" (doubles [ svc 1.0; mark 2.0; svc 3.0 ]);
  bad "stale in one world" (stale [ grant 1.0; wc 2.0; cached 3.0 ]);
  ok "leases end at a mark" (stale [ grant 1.0; wc 2.0; mark 2.5; cached 3.0 ])

(* Random streams of the events the invariants read: three server
   nodes and four files, overlapping extents with right or wrong
   digests, verifiers, commits, crashes, non-idempotent executions,
   lease grants and cached reads, mount errors, marks, and
   enable/disable toggles.  Times only grow, as a run's do. *)
let content ~file ~off ~len =
  Bytes.init len (fun i -> Char.chr (((file * 31) + off + i) land 0xff))

(* File 3 is gone after the run; the others read back [content]. *)
let model_read_back ~file ~off ~len =
  if file = 3 then None else Some (content ~file ~off ~len)

type step = Rec of Trace.record_ | Toggle of bool

let gen_steps =
  let open QCheck.Gen in
  let server = int_range 1 3 and client = int_range 10 12 in
  let file = int_bound 3 and verf = int_bound 2 in
  let extent =
    pair (map (fun k -> k * 512) (int_bound 7)) (oneofl [ 0; 512; 1024; 2048 ])
  in
  let digest ~file ~off ~len =
    frequency
      [
        (4, return (Trace.digest (content ~file ~off ~len)));
        (1, int_bound 1000);
      ]
  in
  let write =
    let* file = file and* off, len = extent in
    let* d = digest ~file ~off ~len and* mtime = float_bound_inclusive 10.0 in
    return (Trace.Write_committed { file; off; len; digest = d; mtime })
  in
  let unstable =
    let* file = file and* off, len = extent and* verf = verf in
    let* d = digest ~file ~off ~len in
    return (Trace.Write_unstable { file; off; len; digest = d; verf })
  in
  let commit =
    let+ file = file
    and+ off = map (fun k -> k * 512) (int_bound 3)
    and+ count = oneofl [ 0; 1024; 4096 ]
    and+ verf = verf in
    Trace.Commit_ok { file; off; count; verf }
  in
  let service =
    let+ xid = int_range 1 4 and+ proc = oneofl [ 1; 9; 10; 11 ] in
    Trace.Srv_service { xid = Int32.of_int xid; proc; service = 0.001 }
  in
  let grant =
    let+ file = file
    and+ mode = oneofl [ "write"; "read" ]
    and+ holder = client
    and+ duration = float_range 0.5 3.0 in
    Trace.Lease_grant { file; mode; holder; duration }
  in
  let at_server ev = map2 (fun node ev -> (node, ev)) server ev in
  let event =
    frequency
      [
        (4, at_server write);
        (4, at_server unstable);
        (2, at_server commit);
        (1, at_server (return Trace.Srv_crash));
        (3, at_server service);
        (2, at_server grant);
        ( 2,
          let+ holder = client
          and+ file = file
          and+ mtime = float_bound_inclusive 10.0 in
          (holder, Trace.Cached_read { file; holder; mtime }) );
        ( 1,
          let+ node = client
          and+ soft = frequency [ (5, return true); (1, return false) ] in
          (node, Trace.Wl_error { op = "write"; soft }) );
        (1, return (-1, Trace.Run_mark { label = "next" }));
      ]
  in
  let* n = int_range 0 200 in
  let rec steps k time acc =
    if k = 0 then return (List.rev acc)
    else
      let* dt = float_bound_inclusive 0.5 and* toggle = int_bound 19 in
      if toggle = 0 then
        let* on = bool in
        steps (k - 1) time (Toggle on :: acc)
      else
        let* node, ev = event in
        let time = time +. dt in
        steps (k - 1) time (Rec { Trace.time; node; ev } :: acc)
  in
  steps n 0.0 []

let prop_hook_equals_list =
  QCheck.Test.make ~name:"hook on a 64-record ring equals check_all" ~count:300
    (QCheck.make
       ~print:(fun steps -> Printf.sprintf "%d steps" (List.length steps))
       gen_steps)
    (fun steps ->
      let check = Check.create () in
      let ring = Trace.create ~capacity:64 () in
      Trace.set_hook ring (Some (Check.observe check));
      let full = Trace.create ~capacity:4096 () in
      List.iter
        (function
          | Toggle on ->
              Trace.set_enabled ring on;
              Trace.set_enabled full on
          | Rec r ->
              List.iter
                (fun tr ->
                  Trace.record tr ~time:r.Trace.time ~node:r.Trace.node
                    r.Trace.ev)
                [ ring; full ])
        steps;
      let replay = Check.create () in
      List.iter (Check.observe replay) (Trace.to_list full);
      Check.verdicts check ~read_back:(fun ~node:_ -> model_read_back)
      = Check.check_all ~read_back:model_read_back (Trace.to_list full)
      && Check.recovery check = Check.recovery replay)

(* The fold keeps live state only: 100,000 rewrites of one 8 KiB
   extent, UNSTABLE and committed under COMMITs, with a write lease
   regranted each time, leave one extent and one lease behind. *)
let test_fold_state_bounded () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let check = Check.create () in
  let w0 = live () in
  for i = 1 to 100_000 do
    let time = float_of_int i in
    let digest = i land 0xffff in
    List.iter
      (fun ev -> Check.observe check { Trace.time; node = 2; ev })
      [
        Trace.Write_unstable { file = 7; off = 0; len = 8192; digest; verf = 1 };
        Trace.Commit_ok { file = 7; off = 0; count = 0; verf = 1 };
        Trace.Write_committed
          { file = 7; off = 0; len = 8192; digest; mtime = time };
        Trace.Lease_grant
          { file = 7; mode = "write"; holder = 3; duration = 0.5 };
      ]
  done;
  let words = live () - w0 in
  ignore (Sys.opaque_identity check);
  if words > 4_096 then Alcotest.failf "fold holds %d live words" words

(* ---------------------------------------------------------------- *)
(* v3 over the wire: lying COMMIT convicted, crash replay heals,     *)
(* soft COMMIT give-up never wedges the ledger                       *)
(* ---------------------------------------------------------------- *)

type v3_world = {
  w_sim : Sim.t;
  w_server : Nfs_server.t;
  w_trace : Trace.t;
  w_cudp : Udp.stack;
  w_server_id : int;
  w_mount : Nfs_client.mount_opts -> Nfs_client.t;
}

let make_v3_world () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let tr = Trace.create () in
  List.iter
    (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr })
    topo.Net.Topology.all;
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server =
    Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp ()
  in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  let w_mount opts =
    Nfs_client.mount ~udp:cudp ~tcp:ctcp
      ~server:(Net.Topology.server_id topo)
      ~root:(Nfs_server.root_fhandle server)
      opts
  in
  {
    w_sim = sim;
    w_server = server;
    w_trace = tr;
    w_cudp = cudp;
    w_server_id = Net.Topology.server_id topo;
    w_mount;
  }

let server_read_back server ~file ~off ~len =
  let fs = Nfs_server.fs server in
  try Some (Renofs_vfs.Fs.read fs (Renofs_vfs.Fs.vnode_by_ino fs file) ~off ~len)
  with _ -> None

let commit_durable_verdict_with ~lie =
  let w = make_v3_world () in
  Nfs_server.set_lie_on_commit w.w_server lie;
  let verdict = ref None in
  Proc.spawn w.w_sim (fun () ->
      let m = w.w_mount Nfs_client.v3_mount in
      let fd = Nfs_client.create m "liar" in
      Nfs_client.write m fd ~off:0 (Bytes.make 4096 'L');
      (* fsync = flush UNSTABLE + COMMIT; a lying server acks the
         COMMIT while the data never leaves its volatile buffer. *)
      Nfs_client.fsync m fd;
      Nfs_client.close m fd;
      (* [Fs] operations suspend on the modelled CPU, so the read-back
         must run inside a fiber too. *)
      verdict :=
        Some
          (invariant "committed-durable"
             ~read_back:(server_read_back w.w_server)
             (Trace.to_list w.w_trace)));
  Sim.run ~until:600.0 w.w_sim;
  match !verdict with
  | None -> Alcotest.fail "client never finished"
  | Some v -> v

let test_lying_commit_convicted () =
  (* The seeded negative case: a server acking COMMIT without durable
     data must be caught by the invariant... *)
  Alcotest.(check bool) "lying server convicted" false
    (commit_durable_verdict_with ~lie:true).Check.v_ok;
  (* ...and the honest server must pass the identical workload. *)
  Alcotest.(check bool) "honest server passes" true
    (commit_durable_verdict_with ~lie:false).Check.v_ok

let test_v3_crash_replay () =
  let w = make_v3_world () in
  let bsize = Nfs_client.v3_mount.Nfs_client.bsize in
  let payload = Bytes.init bsize (fun i -> Char.chr (i land 0xff)) in
  let finished = ref false in
  Proc.spawn w.w_sim (fun () ->
      let m = w.w_mount Nfs_client.v3_mount in
      let fd = Nfs_client.create m "replay" in
      (* A full block goes out asynchronously as UNSTABLE; wait for
         the biod push so the server is really buffering it. *)
      Nfs_client.write m fd ~off:0 payload;
      Proc.sleep w.w_sim 2.0;
      Alcotest.(check bool) "server buffers unstable data" true
        (Nfs_server.unstable_bytes w.w_server > 0);
      let verf0 = Nfs_server.write_verf w.w_server in
      (* Crash: the buffered data legally vanishes, the verifier
         changes on reboot. *)
      Nfs_server.crash w.w_server;
      Proc.sleep w.w_sim 1.0;
      Nfs_server.reboot w.w_server;
      Alcotest.(check bool) "verifier regenerated" true
        (Nfs_server.write_verf w.w_server <> verf0);
      (* fsync's COMMIT sees the new verifier and must rewrite the
         lost ranges before succeeding. *)
      Nfs_client.fsync m fd;
      Nfs_client.close m fd;
      let records = Trace.to_list w.w_trace in
      Alcotest.(check bool) "verifier mismatch traced" true
        (List.exists
           (fun r ->
             match r.Trace.ev with Trace.Verf_mismatch _ -> true | _ -> false)
           records);
      (* The replay made it durable: the bytes are on stable storage and
         every invariant (including committed-durable) holds. *)
      let fs = Nfs_server.fs w.w_server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "replay" in
      Alcotest.(check bytes) "replayed data durable" payload
        (Renofs_vfs.Fs.read fs v ~off:0 ~len:bsize);
      Alcotest.(check int) "no unstable residue" 0
        (Nfs_server.unstable_bytes w.w_server);
      List.iter
        (fun verdict ->
          Alcotest.(check bool) (verdict.Check.v_name ^ " holds") true
            verdict.Check.v_ok)
        (Check.check_all ~read_back:(server_read_back w.w_server) records);
      finished := true);
  Sim.run ~until:600.0 w.w_sim;
  Alcotest.(check bool) "client finished" true !finished

let test_v3_commit_digests_untraced_writes () =
  (* The server builds digest-carrying events only while a sink records,
     and hashes a buffered extent on first use: UNSTABLE writes made
     with the sink off must still be echoed at COMMIT with the digest of
     their data, or the durability check cannot vouch for them. *)
  let w = make_v3_world () in
  let bsize = Nfs_client.v3_mount.Nfs_client.bsize in
  let payload = Bytes.init (2 * bsize) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let finished = ref false in
  Proc.spawn w.w_sim (fun () ->
      let m = w.w_mount Nfs_client.v3_mount in
      let fd = Nfs_client.create m "quiet" in
      Trace.set_enabled w.w_trace false;
      Nfs_client.write m fd ~off:0 payload;
      Proc.sleep w.w_sim 2.0;
      Alcotest.(check bool) "server buffers unstable data" true
        (Nfs_server.unstable_bytes w.w_server > 0);
      Trace.set_enabled w.w_trace true;
      Nfs_client.fsync m fd;
      Nfs_client.close m fd;
      let records = Trace.to_list w.w_trace in
      let committed =
        List.filter_map
          (fun r ->
            match r.Trace.ev with
            | Trace.Write_committed { off; len; digest; _ } -> Some (off, len, digest)
            | _ -> None)
          records
      in
      Alcotest.(check int) "both blocks echoed at COMMIT" 2 (List.length committed);
      List.iter
        (fun (off, len, digest) ->
          Alcotest.(check int)
            (Printf.sprintf "digest of bytes %d+%d" off len)
            (Trace.digest (Bytes.sub payload off len))
            digest)
        committed;
      Alcotest.(check bool) "durable writes pass with read-back" true
        (invariant "durable-writes" ~read_back:(server_read_back w.w_server) records)
          .Check.v_ok;
      finished := true);
  Sim.run ~until:600.0 w.w_sim;
  Alcotest.(check bool) "client finished" true !finished

let test_soft_v3_commit_never_wedges () =
  let w = make_v3_world () in
  let soft =
    { Nfs_client.v3_mount with Nfs_client.soft = true; retrans = 2 }
  in
  let bsize = soft.Nfs_client.bsize in
  let payload = Bytes.make bsize 's' in
  let finished = ref false in
  Proc.spawn w.w_sim (fun () ->
      let m = w.w_mount soft in
      let fd = Nfs_client.create m "soft" in
      Nfs_client.write m fd ~off:0 payload;
      Proc.sleep w.w_sim 2.0;
      (* Server dies holding the unstable data and stays down past the
         soft give-up: the COMMIT must fail with EIO, not wedge. *)
      Nfs_server.crash w.w_server;
      (match Nfs_client.fsync m fd with
      | () -> Alcotest.fail "soft COMMIT against a dead server succeeded"
      | exception Nfs_client.Nfs_error _ -> ());
      (* The give-up released the write-behind ledger: once the server
         returns, the same fd keeps working and a clean write commits. *)
      Nfs_server.reboot w.w_server;
      let second = Bytes.make bsize 'S' in
      Nfs_client.write m fd ~off:0 second;
      Nfs_client.fsync m fd;
      Nfs_client.close m fd;
      let fs = Nfs_server.fs w.w_server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "soft" in
      Alcotest.(check bytes) "post-recovery write durable" second
        (Renofs_vfs.Fs.read fs v ~off:0 ~len:bsize);
      finished := true);
  Sim.run ~until:3_600.0 w.w_sim;
  Alcotest.(check bool) "client finished" true !finished

let test_soft_giveup_reports_capped_timeo () =
  (* The Rpc_timeout record carries the final backed-off timeout, and
     the exponential backoff is clamped at 60 s (BSD's NFS_MAXTIMEO):
     timeo 25 s doubled twice would be 100 s without the cap. *)
  let w = make_v3_world () in
  let root = Nfs_server.root_fhandle w.w_server in
  Nfs_server.crash w.w_server;
  let observed = ref None in
  Proc.spawn w.w_sim (fun () ->
      let x =
        Client_transport.create_udp_fixed w.w_cudp ~server:w.w_server_id
          ~timeo:25.0 ~max_retries:2 ()
      in
      match Client_transport.call x (P.Getattr root) with
      | _ -> Alcotest.fail "call against a dead server completed"
      | exception Client_transport.Rpc_timed_out { proc; final_timeo } ->
          observed := Some (proc, final_timeo));
  Sim.run ~until:3_600.0 w.w_sim;
  match !observed with
  | None -> Alcotest.fail "never gave up"
  | Some (proc, final_timeo) ->
      Alcotest.(check string) "names the procedure" "getattr" proc;
      Alcotest.(check bool) "backed off past the mount timeo" true
        (final_timeo > 25.0);
      Alcotest.(check (float 1e-9)) "capped at NFS_MAXTIMEO" 60.0 final_timeo

(* ---------------------------------------------------------------- *)
(* Duplicate CREATE over the wire: the checker sees what the         *)
(* Juszczak cache does (and flags its absence)                       *)
(* ---------------------------------------------------------------- *)

let double_create_verdict profile =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let tr = Trace.create () in
  List.iter (fun n -> Net.Node.attach n { Net.Node.detached with trace = Some tr }) topo.Net.Topology.all;
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server =
    Nfs_server.create topo.Net.Topology.server ~profile ~udp:sudp ~tcp:stcp ()
  in
  Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  Proc.spawn sim (fun () ->
      let sock = Udp.bind_ephemeral cudp in
      let call =
        P.Create
          {
            P.where = { P.dir = Nfs_server.root_fhandle server; name = "dup" };
            attributes =
              {
                P.s_mode = 0o644;
                s_uid = 0;
                s_gid = 0;
                s_size = 0;
                s_atime = None;
                s_mtime = None;
              };
          }
      in
      (* The same xid twice: a retransmitted non-idempotent request. *)
      let send () =
        let enc =
          Rpc_msg.encode_call
            {
              Rpc_msg.xid = 4242l;
              prog = P.program;
              vers = P.version;
              proc = P.proc_of_call call;
              cred = Rpc_msg.Auth_unix { stamp = 0; machine = "t"; uid = 0; gid = 0 };
            }
        in
        P.encode_call enc call;
        Udp.sendto sock ~dst:(Net.Topology.server_id topo) ~dst_port:P.port
          (Xdr.Enc.chain enc)
      in
      send ();
      Proc.sleep sim 0.5;
      send ());
  Sim.run ~until:5.0 sim;
  invariant "no-double-effect" (Trace.to_list tr)

let test_dup_cache_off_double_create_flagged () =
  Alcotest.(check bool) "no cache: double effect flagged" false
    (double_create_verdict Nfs_server.reference_port_profile).Check.v_ok

let test_dup_cache_on_double_create_clean () =
  Alcotest.(check bool) "cache replays, no second effect" true
    (double_create_verdict Nfs_server.reno_profile).Check.v_ok

(* ---------------------------------------------------------------- *)
(* Chaos determinism: identical trace and JSON at any --jobs         *)
(* ---------------------------------------------------------------- *)

let test_chaos_determinism () =
  let spec = Option.get (E.spec ~scale:E.Quick "chaos") in
  (* Two cells keep the test fast; determinism does not depend on the
     cell count. *)
  let mini =
    { spec with E.sp_cells = List.filteri (fun i _ -> i < 2) spec.E.sp_cells }
  in
  let run jobs =
    let tr = Trace.create ~capacity:(1 lsl 18) () in
    let results = E.run_spec ~jobs ~trace:tr mini in
    ( Bench_json.emit ~scale:E.Quick ~jobs:1 [ results ],
      List.map Trace.line_of_record (Trace.to_list tr) )
  in
  let json1, trace1 = run 1 in
  let json3, trace3 = run 3 in
  Alcotest.(check string) "JSON byte-identical across jobs" json1 json3;
  Alcotest.(check (list string)) "trace byte-identical across jobs" trace1 trace3;
  Alcotest.(check bool) "invariants green on defaults" true
    (String.length json1 > 0
    && not
         (List.exists
            (List.exists (function
              | E.Text s -> String.length s >= 4 && String.sub s 0 4 = "FAIL"
              | _ -> false))
            (E.run_spec ~jobs:1 mini).E.r_rows))

(* A 64-record ring wraps within a chaos cell.  The verdict is folded
   over every record as it is made, so it reads the same with or
   without the ring. *)
let test_chaos_exact_over_wrapped_ring () =
  let spec = Option.get (E.spec ~scale:E.Quick "chaos") in
  let one = { spec with E.sp_cells = [ List.hd spec.E.sp_cells ] } in
  let verdict results =
    match List.rev (List.hd results.E.r_rows) with
    | E.Text v :: _ -> v
    | _ -> Alcotest.fail "verdict column is not text"
  in
  Alcotest.(check string) "no trace" "5/5 ok"
    (verdict (E.run_spec ~jobs:1 one));
  let trace = Trace.create ~capacity:64 () in
  Alcotest.(check string) "wrapped ring" "5/5 ok"
    (verdict (E.run_spec ~jobs:1 ~trace one));
  Alcotest.(check bool) "the ring wrapped" true (Trace.dropped trace > 0)

(* Two fuzz cells (corrupt and truncate on udp-fixed), deterministic
   across --jobs, and green with checksums on. *)
let test_fuzz_smoke_and_determinism () =
  let spec = E.fuzz_spec ~seeds:2 ~base_seed:0 E.Quick in
  let run jobs = Bench_json.emit ~scale:E.Quick ~jobs:1 [ E.run_spec ~jobs spec ] in
  let j1 = run 1 in
  Alcotest.(check string) "byte-identical across jobs" j1 (run 2);
  let rows = (E.run_spec ~jobs:1 spec).E.r_rows in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (List.iter (function
      | E.Text s when String.length s >= 4 && String.sub s 0 4 = "FAIL" ->
          Alcotest.failf "fuzz cell failed: %s" s
      | _ -> ()))
    rows

(* ---------------------------------------------------------------- *)
(* test_crash's hard-mount scenario on the schedule API              *)
(* ---------------------------------------------------------------- *)

let test_schedule_crash_rides_through () =
  let sim = Sim.create () in
  let topo = Net.Topology.build sim Net.Topology.default_spec in
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  Nfs_server.start server;
  Fault.install
    { Fault.sim; nodes = topo.Net.Topology.all; servers = [ server ]; trace = None }
    {
      Fault.name = "crash-early";
      description = "crash at 0.5s, reboot 5s later";
      actions = [ Fault.Server_crash { at = 0.5; downtime = 5.0; server = "*" } ];
    };
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  let finished = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      in
      let fd = Nfs_client.create m "before" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "pre-crash");
      Nfs_client.close m fd;
      Proc.sleep sim 0.6;
      Alcotest.(check bool) "schedule crashed the server" false
        (Nfs_server.is_up server);
      (* The hard mount blocks and retransmits until the reboot. *)
      let t0 = Sim.now sim in
      let fd2 = Nfs_client.create m "during" in
      Nfs_client.close m fd2;
      Alcotest.(check bool) "operation stalled across downtime" true
        (Sim.now sim -. t0 >= 3.0);
      let back = Nfs_client.read m (Nfs_client.open_ m "before") ~off:0 ~len:100 in
      Alcotest.(check string) "stable storage survived" "pre-crash"
        (Bytes.to_string back);
      Alcotest.(check bool) "client retransmitted" true
        (Client_transport.retransmits (Nfs_client.transport m) > 0);
      finished := true);
  Sim.run ~until:36_000.0 sim;
  if not !finished then Alcotest.fail "never finished"

let () =
  Alcotest.run "fault"
    [
      ( "schedules",
        [
          Alcotest.test_case "json round-trip and errors" `Quick test_schedule_json;
          Alcotest.test_case "mangle actions json" `Quick test_mangle_actions_json;
          Alcotest.test_case "new trace events roundtrip jsonl" `Quick
            test_new_events_jsonl_roundtrip;
          Alcotest.test_case "crash schedule rides through" `Quick
            test_schedule_crash_rides_through;
          Alcotest.test_case "faults reach scaling and fleet" `Quick
            test_faults_reach_scaling_and_fleet;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "hard mount errors" `Quick test_hard_mount_invariant;
          Alcotest.test_case "double effect" `Quick test_double_effect_invariant;
          Alcotest.test_case "stale lease reads" `Quick test_stale_lease_invariant;
          Alcotest.test_case "durable writes" `Quick test_durability_invariant;
          Alcotest.test_case "dup cache off: flagged" `Quick
            test_dup_cache_off_double_create_flagged;
          Alcotest.test_case "dup cache on: clean" `Quick
            test_dup_cache_on_double_create_clean;
          Alcotest.test_case "data integrity" `Quick test_data_integrity_check;
          Alcotest.test_case "committed durable" `Quick
            test_committed_durable_invariant;
          Alcotest.test_case "mark starts a fresh world" `Quick
            test_mark_starts_fresh_world;
          Alcotest.test_case "fold state bounded" `Quick
            test_fold_state_bounded;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_hook_equals_list ] );
      ( "v3",
        [
          Alcotest.test_case "lying COMMIT convicted" `Quick
            test_lying_commit_convicted;
          Alcotest.test_case "crash replay heals" `Quick test_v3_crash_replay;
          Alcotest.test_case "COMMIT digests untraced writes" `Quick
            test_v3_commit_digests_untraced_writes;
          Alcotest.test_case "soft COMMIT never wedges" `Quick
            test_soft_v3_commit_never_wedges;
          Alcotest.test_case "soft give-up reports capped timeo" `Quick
            test_soft_giveup_reports_capped_timeo;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic at any --jobs" `Quick
            test_chaos_determinism;
          Alcotest.test_case "fuzz smoke + determinism" `Quick
            test_fuzz_smoke_and_determinism;
          Alcotest.test_case "exact over a wrapped ring" `Quick
            test_chaos_exact_over_wrapped_ring;
        ] );
    ]
