(* The JSON writer: its float rule, its string escape and its two
   layouts, checked by known answers pinned from files the emitters
   wrote before they shared this writer, and by a round-trip property
   through the reader. *)

module Json = Renofs_json.Json

let str = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Float rule                                                         *)
(* ------------------------------------------------------------------ *)

let test_float_known_answers () =
  List.iter
    (fun (v, want) -> Alcotest.check str (Printf.sprintf "%h" v) want (Json.float_str v))
    [
      (5., "5");
      (-3., "-3");
      (* From all-jobs1.json: sixteen digits, printed as they were. *)
      (7.639254370942425, "7.639254370942425");
      (0.1 +. 0.2, "0.30000000000000004");
      (1e15, "1e+15");
      (Float.pred 1e15, "999999999999999.9");
      (* The first record time of table5's trace, once spelled with
         twenty digits. *)
      (float_of_string "0.00028888888888888888", "0.0002888888888888889");
      (nan, "null");
      (infinity, "null");
      (neg_infinity, "null");
    ]

let test_non_finite_in_a_tree () =
  Alcotest.check str "null members" {|[null,1,null]|}
    (Json.to_string Compact (Arr [ Num nan; Num 1.; Num infinity ]))

(* ------------------------------------------------------------------ *)
(* String escape                                                      *)
(* ------------------------------------------------------------------ *)

let test_escape_known_answer () =
  Alcotest.check str "short escapes, \\u00XX below 0x20, raw above"
    "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f \127\200\255\""
    (Json.to_string Compact (Str "q\"b\\n\nr\rt\t\001\031 \127\200\255"));
  Alcotest.check str "keys escape the same way" "{\"a\\nb\":\"\\u0000\"}"
    (Json.to_string Compact (Obj [ ("a\nb", Str "\000") ]))

(* ------------------------------------------------------------------ *)
(* Layouts                                                            *)
(* ------------------------------------------------------------------ *)

let bench_like : Json.json =
  Obj
    [
      ("schema", Str "renofs-bench/1");
      ("jobs", Num 2.);
      ( "experiments",
        Arr
          [
            Obj
              [
                ("id", Str "g1");
                ("header", Arr [ Str "load(rpc/s)"; Str "rtt(ms)" ]);
                ( "rows",
                  Arr
                    [
                      Arr
                        [
                          Obj
                            [
                              ("type", Str "float");
                              ("value", Num 5.);
                              ("unit", Str "per_s");
                              ("prec", Num 1.);
                            ];
                          Obj [ ("type", Str "text"); ("value", Str "same LAN") ];
                        ];
                      Arr [];
                    ] );
              ];
          ] );
      ("empty", Obj []);
    ]

let test_document_layout () =
  Alcotest.check str "bench-shaped document"
    {|{
  "schema":"renofs-bench/1",
  "jobs":2,
  "experiments":[
    {
      "id":"g1",
      "header":["load(rpc/s)","rtt(ms)"],
      "rows":[
        [
          {"type":"float","value":5,"unit":"per_s","prec":1},
          {"type":"text","value":"same LAN"}
        ],
        []
      ]
    }
  ],
  "empty":{}
}|}
    (Json.to_string Document bench_like)

let test_compact_layout () =
  Alcotest.check str "one line"
    {|{"schema":"renofs-bench/1","jobs":2,"experiments":[{"id":"g1","header":["load(rpc/s)","rtt(ms)"],"rows":[[{"type":"float","value":5,"unit":"per_s","prec":1},{"type":"text","value":"same LAN"}],[]]}],"empty":{}}|}
    (Json.to_string Compact bench_like)

(* ------------------------------------------------------------------ *)
(* Round trip                                                         *)
(* ------------------------------------------------------------------ *)

(* Bytes the escape must handle, weighted well above their share of a
   uniform byte. *)
let gen_char =
  QCheck.Gen.(
    frequency
      [
        (4, char);
        (2, map Char.chr (int_bound 0x1f));
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\127' ]);
        (1, map Char.chr (int_range 0x80 0xff));
      ])

let gen_string = QCheck.Gen.(string_size ~gen:gen_char (int_bound 10))

(* Finite doubles from every branch of the rule: integers, 1e15 and its
   neighbours, subnormals, very large values and arbitrary bit
   patterns. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        ( 2,
          oneofl
            [
              1e15; -1e15; Float.pred 1e15; Float.succ 1e15; Float.pred (-1e15);
              Float.succ (-1e15); 1e300; -1e300; 5e-324; Float.min_float;
              Float.pred Float.min_float; -0.;
            ] );
        (1, map (fun k -> Float.ldexp (float_of_int k) (-1074)) (int_range 1 1_000_000));
        ( 4,
          map
            (fun bits ->
              let v = Int64.float_of_bits bits in
              if Float.is_finite v then v else 0.5)
            int64 );
        (2, float_range (-1000.) 1000.);
      ])

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let scalar =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (3, map (fun v -> Json.Num v) gen_float);
                 (3, map (fun s -> Json.Str s) gen_string);
               ]
           in
           if depth = 0 then scalar
           else
             let members g = list_size (int_bound 4) g in
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.Arr l) (members (self (depth - 1))));
                 ( 1,
                   map (fun o -> Json.Obj o)
                     (members (pair gen_string (self (depth - 1)))) );
               ]))

let prop_round_trip =
  QCheck.Test.make ~name:"parse of either layout gives back the tree" ~count:2000
    (QCheck.make ~print:(Json.to_string Compact) gen_json)
    (fun tree ->
      let compact = Json.to_string Compact tree in
      String.for_all (fun c -> c >= ' ') compact
      && Json.parse compact = Ok tree
      && Json.parse (Json.to_string Document tree) = Ok tree)

(* ------------------------------------------------------------------ *)
(* Integers                                                           *)
(* ------------------------------------------------------------------ *)

let test_int_rule () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Json.float_str v) (int_of_float v)
        (Json.int ~ctx:"n" (Num v)))
    [ 0.; -1.; 42.; 0x1p53; Float.of_int min_int; Float.pred 0x1p62 ];
  List.iter
    (fun j ->
      match Json.int ~ctx:"world.clients" j with
      | n -> Alcotest.failf "%s decoded as %d" (Json.to_string Compact j) n
      | exception Json.Bad msg ->
          Alcotest.(check bool) ("names the field: " ^ msg) true
            (String.starts_with ~prefix:"world.clients: " msg))
    [ Num 2.9; Num (-0.5); Num 1e300; Num 0x1p62; Num nan; Str "3" ]

let () =
  Alcotest.run "json"
    [
      ( "float rule",
        [
          Alcotest.test_case "known answers" `Quick test_float_known_answers;
          Alcotest.test_case "non-finite in a tree" `Quick test_non_finite_in_a_tree;
        ] );
      ( "escape",
        [ Alcotest.test_case "known answer" `Quick test_escape_known_answer ] );
      ( "layout",
        [
          Alcotest.test_case "document" `Quick test_document_layout;
          Alcotest.test_case "compact" `Quick test_compact_layout;
        ] );
      ("int", [ Alcotest.test_case "integers only" `Quick test_int_rule ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_round_trip ]);
    ]
