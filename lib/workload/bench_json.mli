(** Structured JSON output for experiment results ([nfsbench --json]).

    The document schema, version ["renofs-bench/1"], as written:

    {v
    {
      "schema":"renofs-bench/1",
      "scale":"quick",
      "jobs":2,
      "experiments":[
        {
          "id":"graph1",
          "title":"Ave RTT vs load, lookup mix, same LAN",
          "header":["load(rpc/s)","udp-fixed RTT(ms)",...],
          "rows":[
            [
              {"type":"float","value":5,"unit":"per_s","prec":1},
              {"type":"int","value":42,"unit":"count"},
              {"type":"text","value":"same LAN"},
              ...
            ],
            ...
          ]
        },
        ...
      ]
    }
    v}

    [scale] is ["quick"] or ["full"].  Every row has exactly as many
    cells as the header has columns; [unit] is one of
    {!Experiments.unit_name}'s outputs.  The file is printed by
    {!Renofs_json.Json} in its document layout: fields in the order
    above, one cell per line, numbers by the one float rule (integers
    bare, anything else the shortest decimal that round-trips).  Serial
    and parallel runs of the same experiments therefore write files that
    differ only in ["jobs"], which sits on a line of its own. *)

val emit : scale:Experiments.scale -> jobs:int -> Experiments.results list -> string
(** The whole document, newline-terminated. *)

val write_file :
  scale:Experiments.scale -> jobs:int -> path:string -> Experiments.results list -> unit

(** {2 Validation and diffing} *)

val validate : string -> (unit, string) result
(** Check a document against the schema above: required fields, row
    rectangularity, known cell types and units.  [Ok ()] means a
    conforming "renofs-bench/1" file. *)

val validate_file : string -> (unit, string) result

(** {2 Regression diffing ([nfsbench diff])} *)

type diff_report = {
  compared : int;  (** numeric cells judged against the tolerance *)
  regressions : string list;
      (** latency (ms/s) grew, or throughput (per_s) shrank, by more
          than the tolerance *)
  improvements : string list;  (** moved past the tolerance the good way *)
  warnings : string list;
      (** skipped material: missing experiments, shape/unit changes *)
}

val diff_files :
  tolerance:float -> string -> string -> (diff_report, string) result
(** [diff_files ~tolerance old new] compares two "renofs-bench/1" files
    cell by cell (matched by experiment id and position; [tolerance] is
    a fraction, e.g. [0.15]).  Only ms/s/per_s cells are judged; other
    units, text cells and zero baselines are informational.  [Error] is
    reserved for unreadable or non-conforming files. *)
