(** One JSON value type and its printer, used by every JSON writer in
    the tree: the CLI's [analyze]/[serve]/[churn] reports and the
    bench's [BENCH_*.json] files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with exactly [d] decimals; a
          non-finite [x] prints as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val compact : t -> string
(** No whitespace: [{"a":1,"b":[true,null]}]. Strings are escaped per
    RFC 8259 — quote, backslash, and every control character below
    U+0020 ([\n], [\t] short, the rest [\u00XX]); other bytes pass
    through unchanged. *)

val pretty : t -> string
(** Same escaping; a container that holds a non-empty container is
    broken over lines indented by two spaces per level, a flat one
    stays on one line as [{ "a": 1, "b": 2 }]. No trailing newline. *)
