(* One JSON value type and its printer, shared by every JSON writer in
   the tree (the CLI's reports and the bench's BENCH_*.json files).

   Strings are escaped per RFC 8259: the quote, the backslash and every
   control character below U+0020 ([\n] and [\t] in their short forms,
   the rest as [\u00XX]); other bytes pass through, so UTF-8 text stays
   UTF-8. Numbers that need a fixed number of decimals carry it, so a
   report keeps its precision per field; a non-finite float (which
   JSON cannot represent) prints as [null].

   Two layouts: [compact] has no whitespace at all; [pretty] breaks a
   container over indented lines when it holds another non-empty
   container and keeps flat ones on one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let nested = function List (_ :: _) | Obj (_ :: _) -> true | _ -> false

let rec add ~pretty ~indent buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Fixed (decimals, x) ->
    Buffer.add_string buf
      (if Float.is_finite x then Printf.sprintf "%.*f" decimals x else "null")
  | String s -> add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
    members ~pretty ~indent buf ('[', ']') (List.map (fun v -> (None, v)) items)
  | Obj fields ->
    members ~pretty ~indent buf ('{', '}')
      (List.map (fun (k, v) -> (Some k, v)) fields)

and members ~pretty ~indent buf (left, right) ms =
  let broken = pretty && List.exists (fun (_, v) -> nested v) ms in
  let inner = if broken then indent + 2 else indent in
  let open_pad, sep, close_pad, colon =
    if not pretty then ("", ",", "", ":")
    else if broken then
      ( "\n" ^ String.make inner ' ',
        ",\n" ^ String.make inner ' ',
        "\n" ^ String.make indent ' ',
        ": " )
    else (" ", ", ", " ", ": ")
  in
  Buffer.add_char buf left;
  Buffer.add_string buf open_pad;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string buf sep;
      Option.iter
        (fun k ->
          add_string buf k;
          Buffer.add_string buf colon)
        key;
      add ~pretty ~indent:inner buf v)
    ms;
  Buffer.add_string buf close_pad;
  Buffer.add_char buf right

let render ~pretty v =
  let buf = Buffer.create 256 in
  add ~pretty ~indent:0 buf v;
  Buffer.contents buf

let compact v = render ~pretty:false v
let pretty v = render ~pretty:true v
