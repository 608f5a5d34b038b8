(** The one spelling of "how to run an experiment".

    The nfsbench subcommands run, all, chaos, fuzz and slo, and the
    scenario loader, build one of these records — from command-line
    flags or from a scenario file's ["run"] object — and hand it to
    {!execute}.  Each subcommand parses only the flags it honours, so a
    field it cannot use stays unset: run and all have no [--seed],
    chaos and fuzz no [--faults], and slo none of [--scale], [--seed]
    and [--faults].  A scenario file's ["run"] object holds exactly
    slo's flags, so it and slo's command line are two spellings of the
    same spec: same fields, same defaults, same output-path checks,
    same export behavior.

    Fields are optional ("not set") so that a scenario file's run
    section and the command line can be layered with {!override}
    before defaults apply. *)

type t = {
  rs_scale : Experiments.scale option;
  rs_jobs : int option;  (** domains for the cell sweep *)
  rs_seed : int option;  (** world / base seed *)
  rs_json : string option;  (** renofs-bench/1 results file *)
  rs_trace : string option;  (** JSONL event-trace file *)
  rs_report : bool;  (** print the nfsstat-style trace report *)
  rs_metrics : string option;  (** metrics JSONL (or .csv) file *)
  rs_faults : string option;  (** builtin schedule name or file *)
  rs_profile : string option;  (** renofs-profile/1 self-profile file *)
  rs_perfetto : string option;  (** Chrome trace-event (Perfetto) file *)
  rs_flight : string option;  (** flight-recorder bundle directory *)
}

val empty : t
(** Nothing set: quick scale, default jobs, seed 0, no exports. *)

val scale : t -> Experiments.scale
(** [rs_scale], defaulting to [Quick]. *)

val seed : t -> int
(** [rs_seed], defaulting to 0. *)

val override : base:t -> t -> t
(** [override ~base t] layers [t] over [base]: fields set in [t] win,
    unset fields fall through to [base] ([rs_report] ors).  The CLI
    overriding a scenario file's run section is [override
    ~base:(from_file) (from_cli)]. *)

val of_json : ctx:string -> (string * Renofs_json.Json.json) list -> t
(** Decode a scenario's run object — slo's flags [{"jobs","json",
    "trace","report","metrics","profile","perfetto","flight"}], every
    field optional — raising {!Renofs_json.Json.Bad} (prefixed with
    [ctx]) on wrong shapes and on any other field, naming it.  A typo
    fails loudly instead of silently running with defaults, and
    ["scale"], ["seed"] and ["faults"] fail because the scenario's
    world, load and faults fix them. *)

val check_outputs : (string * string option) list -> string option
(** [check_outputs [("json", t.rs_json); ...]] probe-opens each set
    path for writing and returns the first failure message, if any. *)

val execute_many :
  ?print:(Experiments.table -> unit) ->
  t ->
  Experiments.spec list ->
  (Experiments.results list, string) result
(** The shared run path: check output paths, resolve the fault
    schedule (announcing it), clamp jobs to the pooled cell count,
    create the trace sink (when [rs_trace], [rs_report] or
    [rs_perfetto]), metrics sink (when [rs_metrics]) and self-profiler
    (when [rs_profile] or [rs_perfetto]), arm the flight recorder
    (when [rs_flight]), execute every spec's cells in one pooled sweep
    via {!Experiments.run_specs}, print each rendered table through
    [print], then export JSON / metrics / trace / profile / perfetto
    and print the report and profile table.  Returns the typed results
    so callers can apply their own verdict (chaos/fuzz/slo exit
    codes).  Cell results are byte-identical at any [rs_jobs];
    profiler wall-times are not (fire counts are). *)

val execute :
  ?print:(Experiments.table -> unit) ->
  t ->
  Experiments.spec ->
  (Experiments.results, string) result
(** {!execute_many} over one spec. *)
