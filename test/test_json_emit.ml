(* The one JSON printer: RFC 8259 string escaping (every control
   character, not only the ones OCaml's %S knows), fixed decimals,
   null for non-finite floats, and both layouts. *)

open Webviews

let string_t = Alcotest.string

let test_escaping () =
  let all_controls = String.init 0x20 Char.chr in
  let expected =
    "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\
     \\u000b\\u000c\\u000d\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\
     \\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
  in
  Alcotest.check string_t "control characters" expected
    (Json_emit.compact (Json_emit.String all_controls));
  Alcotest.check string_t "quote, backslash, UTF-8 and DEL" "\"a\\\"b\\\\c — \127\""
    (Json_emit.compact (Json_emit.String "a\"b\\c — \127"))

let test_layouts () =
  let v =
    Json_emit.(
      Obj
        [
          ("name", String "k");
          ("ms", Fixed (2, 1.005));
          ("nan", Fixed (1, Float.nan));
          ("inf", Fixed (1, infinity));
          ("rows", List [ Obj [ ("a", Int 1); ("b", Bool true) ]; Obj [] ]);
          ("flat", Obj [ ("x", Null); ("y", List []) ]);
        ])
  in
  Alcotest.check string_t "compact"
    "{\"name\":\"k\",\"ms\":1.00,\"nan\":null,\"inf\":null,\
     \"rows\":[{\"a\":1,\"b\":true},{}],\"flat\":{\"x\":null,\"y\":[]}}"
    (Json_emit.compact v);
  Alcotest.check string_t "pretty"
    "{\n\
    \  \"name\": \"k\",\n\
    \  \"ms\": 1.00,\n\
    \  \"nan\": null,\n\
    \  \"inf\": null,\n\
    \  \"rows\": [\n\
    \    { \"a\": 1, \"b\": true },\n\
    \    {}\n\
    \  ],\n\
    \  \"flat\": { \"x\": null, \"y\": [] }\n\
     }"
    (Json_emit.pretty v)

let suite =
  ( "json",
    [
      Alcotest.test_case "RFC 8259 string escaping" `Quick test_escaping;
      Alcotest.test_case "compact and pretty layouts" `Quick test_layouts;
    ] )
