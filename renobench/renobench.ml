(* One measurement per process, printed as one JSON line on stdout.

     renobench.exe world --workload W --seed N [--profile] [--mini]
     renobench.exe queue --seed N --pending P [--events E]
     renobench.exe codec --seed N [--trips T]
     renobench.exe reference

   [world] runs one world once; a fresh process per run keeps the GC's
   peak heap a property of that run alone.  [--profile] attaches the
   self-profiler to the load and adds each slot's self time, event
   fires and scope enters.  The digested text of the simulated results
   goes to stderr, for diagnosis when a digest differs.  [run.py]
   repeats these, checks the digests and aggregates. *)

module Profile = Renofs_profile.Profile

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_int = string_of_int

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"
let word_bytes = float_of_int (Sys.word_size / 8)

let percentile xs q =
  match List.sort compare xs with
  | [] -> 0
  | s -> List.nth s (min (List.length s - 1) (int_of_float (q *. float_of_int (List.length s))))

let world ~workload ~seed ~profile ~mini =
  let acc = Worlds.create_acc ~traced:profile in
  let size = if mini then Worlds.Mini else Worlds.Full in
  let error =
    match Worlds.run acc ~workload ~size ~seed with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  (* A run that raised, stuck or breached an invariant fails every
     operation it attempted. *)
  let ok = error = None && acc.Worlds.breaches = [] in
  let failed = if ok then acc.Worlds.failed else max 1 acc.Worlds.attempted in
  prerr_string (Buffer.contents acc.Worlds.digest);
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.0
  in
  let per_event x =
    if acc.Worlds.events > 0 then x /. float_of_int acc.Worlds.events else 0.0
  in
  let slots =
    match acc.Worlds.profile with
    | None -> []
    | Some p ->
        let s = Profile.snapshot p in
        ("profile_wall_s", json_float s.Profile.p_wall_s)
        :: List.concat_map
             (fun ss ->
               [
                 (ss.Profile.ss_name ^ ".self_s", json_float ss.Profile.ss_self_s);
                 (ss.Profile.ss_name ^ ".fires", json_int ss.Profile.ss_fires);
                 (ss.Profile.ss_name ^ ".enters", json_int ss.Profile.ss_enters);
               ])
             s.Profile.p_slots
  in
  print_endline
    (json_obj
       ([
          ("workload", json_str workload);
          ("seed", json_int seed);
          ("ok", string_of_bool ok);
          ("error", match error with None -> "null" | Some e -> json_str e);
          ("breaches", json_str (String.concat "," acc.Worlds.breaches));
          ("clients", json_int acc.Worlds.clients);
          ( "setup_s",
            json_float (acc.Worlds.build_s +. acc.Worlds.provision_s +. acc.Worlds.mount_s) );
          ("build_s", json_float acc.Worlds.build_s);
          ("provision_s", json_float acc.Worlds.provision_s);
          ("mount_s", json_float acc.Worlds.mount_s);
          ("wall_s", json_float acc.Worlds.wall_s);
          ("events", json_int acc.Worlds.events);
          ("minor_words_per_event", json_float (per_event acc.Worlds.minor_words));
          ("promoted_words_per_event", json_float (per_event acc.Worlds.promoted_words));
          ("major_collections", json_int acc.Worlds.major_collections);
          ("peak_heap_mb", json_float heap_mb);
          ("pending_p50", json_int (percentile acc.Worlds.pending 0.5));
          ("pending_max", json_int (percentile acc.Worlds.pending 1.0));
          ("attempted", json_int acc.Worlds.attempted);
          ("failed", json_int failed);
          ("rpcs", json_int acc.Worlds.rpcs);
          ("retransmits", json_int acc.Worlds.retransmits);
          ("trace_records", json_int acc.Worlds.trace_records);
          ("trace_dropped", json_int acc.Worlds.trace_dropped);
          ("verdict_s", json_float acc.Worlds.verdict_s);
          ("digest", json_str (Digest.to_hex (Digest.string (Buffer.contents acc.Worlds.digest))));
        ]
       @ slots))

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and profile = ref false and mini = ref false in
  let pending = ref 0 and events = ref 1_000_000 and trips = ref 4000 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  fleet-1000c | graph5-wan | lan-write");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--profile", Arg.Set profile, " attach the self-profiler to the load");
      ("--mini", Arg.Set mini, " a few clients for a few simulated seconds");
      ("--pending", Arg.Set_int pending, "P  queue replay population");
      ("--events", Arg.Set_int events, "E  queue replay events to time");
      ("--trips", Arg.Set_int trips, "T  codec replay messages per batch");
    ]
  in
  let usage = "renobench.exe (world|queue|codec|reference) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  match cmd with
  | "world" when List.mem !workload Worlds.workloads ->
      world ~workload:!workload ~seed:!seed ~profile:!profile ~mini:!mini
  | "queue" ->
      let ns = Replay.queue_ns_per_event ~seed:!seed ~pending:!pending ~events:!events in
      print_endline
        (json_obj [ ("pending", json_int !pending); ("queue_ns_per_event", json_float ns) ])
  | "reference" ->
      let samples =
        List.init 3 (fun _ ->
            let t0 = Worlds.now () in
            Reference.run ();
            Worlds.now () -. t0)
      in
      print_endline
        (json_obj
           [
             ("nominal_s", json_float Reference.nominal_s);
             ("samples_s", "[" ^ String.concat "," (List.map json_float samples) ^ "]");
           ])
  | "codec" ->
      print_endline
        (json_obj
           (List.map (fun (k, v) -> (k, json_float v)) (Replay.codec ~seed:!seed ~trips:!trips)))
  | _ ->
      prerr_endline usage;
      exit 2
