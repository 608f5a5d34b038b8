type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    (* Count newlines up to the failure point so callers can report
       file:line:col on multi-line documents (fault schedules, JSONL). *)
    let line = ref 1 and bol = ref 0 in
    for i = 0 to Stdlib.min !pos n - 1 do
      if s.[i] = '\n' then begin
        incr line;
        bol := i + 1
      end
    done;
    raise
      (Bad
         (Printf.sprintf "%s at line %d, column %d (offset %d)" msg !line
            (!pos - !bol + 1) !pos))
  in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail "bad \\u escape"
               in
               (* ASCII round-trips; anything higher degrades to '?'
                  (our emitters never produce it). *)
               Buffer.add_char b (if code < 128 then Char.chr code else '?');
               pos := !pos + 5
           | _ -> fail "unknown escape");
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

type layout = Compact | Document

(* Integers below 1e15 print without a fraction; anything else takes
   the fewest of 15, 16 or 17 significant digits that read back as the
   same double, so a file holds exactly the values that were written
   and serial and parallel runs compare byte for byte.  JSON cannot
   spell nan or infinity. *)
let float_str v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s15 = Printf.sprintf "%.15g" v in
    if float_of_string s15 = v then s15
    else
      let s16 = Printf.sprintf "%.16g" v in
      if float_of_string s16 = v then s16 else Printf.sprintf "%.17g" v

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_container = function Arr _ | Obj _ -> true | _ -> false

(* In the document layout a container of scalars stays on one line; a
   container holding a container puts each member on its own line,
   indented two spaces deeper than the container. *)
let rec add layout b indent v =
  let spread =
    layout = Document
    &&
    match v with
    | Arr l -> List.exists is_container l
    | Obj o -> List.exists (fun (_, v) -> is_container v) o
    | _ -> false
  in
  let newline depth =
    if spread then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make depth ' ')
    end
  in
  let members opening closing add_member l =
    Buffer.add_char b opening;
    List.iteri
      (fun i m ->
        if i > 0 then Buffer.add_char b ',';
        newline (indent + 2);
        add_member m)
      l;
    newline indent;
    Buffer.add_char b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (float_str v)
  | Str s -> add_string b s
  | Arr l -> members '[' ']' (add layout b (indent + 2)) l
  | Obj o ->
      members '{' '}'
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          add layout b (indent + 2) v)
        o

let to_string layout v =
  let b = Buffer.create 256 in
  add layout b 0 v;
  Buffer.contents b

let output_line oc v =
  output_string oc (to_string Compact v);
  output_char oc '\n'

let write_file path v =
  let b = Buffer.create 4096 in
  add Document b 0 v;
  Buffer.add_char b '\n';
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let fail ctx msg = raise (Bad (Printf.sprintf "%s: %s" ctx msg))

let member ~ctx name o =
  match List.assoc_opt name o with
  | Some v -> v
  | None -> fail ctx (Printf.sprintf "missing field %S" name)

let member_opt name o = List.assoc_opt name o
let str ~ctx = function Str s -> s | _ -> fail ctx "expected string"
let num ~ctx = function Num v -> v | _ -> fail ctx "expected number"

(* [Float.of_int min_int] is -2^62, exact; the range is [-2^62, 2^62). *)
let int ~ctx j =
  let v = num ~ctx j in
  let lo = Float.of_int min_int in
  if Float.is_integer v && v >= lo && v < -.lo then int_of_float v
  else fail ctx ("expected an integer, got " ^ float_str v)

let arr ~ctx = function Arr l -> l | _ -> fail ctx "expected array"
let obj ~ctx = function Obj o -> o | _ -> fail ctx "expected object"

let reject_unknown ~ctx known o =
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then fail ctx (Printf.sprintf "unknown field %S" k))
    o

(* ------------------------------------------------------------------ *)
(* Located file/line decoding                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> Ok content
  | exception Sys_error msg -> Error msg

(* Parse errors already carry line/column; add which file. *)
let parse_located path content =
  Result.map_error (fun msg -> path ^ ": parse error: " ^ msg) (parse content)

let load_file path = Result.bind (read_file path) (parse_located path)

let decode_text ~path content decode =
  match parse_located path content with
  | Error _ as e -> e
  | Ok doc -> (
      try Ok (decode doc) with Bad msg -> Error (path ^ ": " ^ msg))

let decode_file path decode =
  Result.bind (read_file path) (fun content -> decode_text ~path content decode)

let decode_line ~path ~lineno line decode =
  match parse line with
  | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
  | Ok doc -> (
      try Ok (decode doc)
      with Bad msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
