(** Minimal dependency-free JSON reader and writer.

    Every JSON file renofs reads or writes goes through this module, so
    layers below the workload library (trace, metrics, fault schedules,
    the profiler) read and print documents without depending on the
    experiment registry.

    The reader accepts standard JSON: objects, arrays, strings with the
    common escapes, numbers, booleans and [null].  Object members keep
    their order.  A [\u] escape above 0x7F reads back as a question
    mark (the writer never produces one).

    The writer has one number rule, one string escape and two layouts:

    - {b Numbers} ({!float_str}): an integer below 1e15 in magnitude
      prints as [%.0f]; any other finite value prints as the shortest of
      [%.15g], [%.16g] and [%.17g] that reads back as the same double;
      nan and the infinities print as [null].  Written files therefore
      hold exactly the values that were written.
    - {b Strings}: the double quote, backslash, newline, carriage return
      and tab get their short escapes, every other byte below 0x20
      prints as [\u00XX], and every other byte, including those of
      UTF-8 sequences, prints raw.  Any byte string reads back
      unchanged.
    - {b Layouts} (see {!layout}).  Neither puts a space after [:] or
      [,]. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

val parse_exn : string -> json
(** Raises {!Bad} with a message carrying line, column and byte offset
    on malformed input. *)

val parse : string -> (json, string) result

(** {2 Writer} *)

type layout =
  | Compact
      (** The whole value on one line: one record of a JSONL stream
          (trace, metrics, a flight bundle's trace tail). *)
  | Document
      (** For files people diff: a container holding only scalars
          (or nothing) stays on one line; any other container puts one
          member per line, indented two spaces per level. *)

val float_str : float -> string
(** The number rule above; also the spelling of numbers in the metrics
    CSV and in [nfsbench diff] lines. *)

val to_string : layout -> json -> string
(** No trailing newline. *)

val output_line : out_channel -> json -> unit
(** One JSONL record: the {!Compact} rendering and a newline. *)

val write_file : string -> json -> unit
(** The {!Document} rendering and a newline, replacing the file. *)

(** {2 Accessors}

    Each raises {!Bad} naming [ctx] when the shape is wrong — suitable
    for schema readers that want one error message out. *)

val member : ctx:string -> string -> (string * json) list -> json
(** [member ~ctx name obj] is the field, or raises "[ctx]: missing
    field [name]". *)

val member_opt : string -> (string * json) list -> json option
val str : ctx:string -> json -> string
val num : ctx:string -> json -> float

val int : ctx:string -> json -> int
(** A number that is an integer within OCaml's [int] range; a
    fraction, or a value beyond the range, raises {!Bad} naming [ctx]. *)

val arr : ctx:string -> json -> json list
val obj : ctx:string -> json -> (string * json) list

val reject_unknown : ctx:string -> string list -> (string * json) list -> unit
(** [reject_unknown ~ctx known obj] raises "[ctx]: unknown field [k]"
    for the first member of [obj] whose name is not in [known], so a
    misspelt field is refused instead of silently taking its default. *)

(** {2 Located file/line decoding}

    The one place [path:] / [path:line:] error prefixes are built, so
    the bench, fault, metrics and scenario loaders report malformed
    input identically. *)

val read_file : string -> (string, string) result
(** Whole-file read; [Error] is ["path: cause"], e.g.
    ["examples: is a directory"]. *)

val load_file : string -> (json, string) result
(** {!read_file} + {!parse}; parse failures come back as
    ["path: parse error: ..."] with the line/column already inside. *)

val decode_file : string -> (json -> 'a) -> ('a, string) result
(** {!load_file}, then run a decoder that may raise {!Bad}; decoder
    failures come back as ["path: ..."]. *)

val decode_text :
  path:string -> string -> (json -> 'a) -> ('a, string) result
(** {!decode_file} of text already read from [path]. *)

val decode_line :
  path:string -> lineno:int -> string -> (json -> 'a) -> ('a, string) result
(** Parse and decode one JSONL line; both parse and decoder failures
    come back as ["path:line: ..."]. *)
