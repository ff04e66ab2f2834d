(* The Navigational Algebra (NALG, Section 4 of the paper): the
   selection-projection-join algebra over nested relations extended
   with two navigational operators,

     unnest page  R ◦ L   — navigate inside a page's nested structure
     follow link  R →L P  — navigate between pages along link L

   Expressions are built over page-schemes of a web scheme. Every
   page-scheme occurrence carries an alias (defaulting to the scheme
   name) so that one scheme may appear several times in a plan; the
   attributes an occurrence contributes are qualified by its alias,
   e.g. "ProfPage.Name" or "ProfPage.CourseList.ToCourse" after an
   unnest. *)

type expr =
  | Entry of { scheme : string; alias : string }
      (* a page relation accessible by URL: an entry point *)
  | External of { name : string; alias : string }
      (* an external relation of the view; not computable until
         replaced by a default navigation (rule 1) *)
  | Select of Pred.t * expr
  | Project of string list * expr
  | Join of (string * string) list * expr * expr
      (* equi-join on (left attr, right attr) pairs *)
  | Unnest of expr * string (* R ◦ L, with L a full attribute name *)
  | Follow of follow
  | Call of call
      (* parameterized-entry access R ⇒[args] P: fetch pages of a
         form/service page-scheme by binding every declared parameter *)

and follow = {
  src : expr;
  link : string; (* full name of the link attribute in [src] *)
  scheme : string; (* target page-scheme *)
  alias : string; (* alias qualifying the target's attributes *)
}

(* A call through a binding pattern. With [c_src = Some r], one
   templated GET is issued per distinct argument combination drawn
   from the rows of [r] ([Arg_attr] feeds an upstream column into the
   parameter) and the reached page joins its source row, like Follow.
   With [c_src = None] every argument is a constant and the call is a
   single-page relation, like an entry point. Calls whose URL resolves
   to no page contribute no rows. *)
and call = {
  c_src : expr option;
  c_scheme : string; (* target (parameterized) page-scheme *)
  c_alias : string; (* alias qualifying the target's attributes *)
  c_args : (string * arg) list; (* parameter name -> bound value *)
}

and arg = Arg_const of string | Arg_attr of string

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let entry ?alias scheme =
  Entry { scheme; alias = Option.value alias ~default:scheme }

let external_ ?alias name =
  External { name; alias = Option.value alias ~default:name }

let select pred e = Select (pred, e)
let project attrs e = Project (attrs, e)
let join keys e1 e2 = Join (keys, e1, e2)
let unnest e attr = Unnest (e, attr)

let follow ?alias e link ~scheme =
  Follow { src = e; link; scheme; alias = Option.value alias ~default:scheme }

let call ?alias ?src scheme ~args =
  Call
    {
      c_src = src;
      c_scheme = scheme;
      c_alias = Option.value alias ~default:scheme;
      c_args = args;
    }

(* Infix helpers mirroring the paper's notation: [e /: l] is unnest
   (R ◦ L, with [l] relative to the last alias) and [e @-> (l, p)] is
   follow link. They are defined in {!Dsl} to keep the module surface
   clean. *)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Entry _ | External _ | Call { c_src = None; _ } -> acc
  | Select (_, e1) | Project (_, e1) | Unnest (e1, _) -> fold f acc e1
  | Follow { src; _ } | Call { c_src = Some src; _ } -> fold f acc src
  | Join (_, e1, e2) -> fold f (fold f acc e1) e2

(* Bottom-up rebuild. *)
let rec map f e =
  let e' =
    match e with
    | Entry _ | External _ -> e
    | Select (p, e1) -> Select (p, map f e1)
    | Project (attrs, e1) -> Project (attrs, map f e1)
    | Join (keys, e1, e2) -> Join (keys, map f e1, map f e2)
    | Unnest (e1, a) -> Unnest (map f e1, a)
    | Follow fl -> Follow { fl with src = map f fl.src }
    | Call c -> Call { c with c_src = Option.map (map f) c.c_src }
  in
  f e'

let size e = fold (fun n _ -> n + 1) 0 e

(* Structural comparison of two plans, with [pred] deciding when two
   selections' predicates agree. Shared subtrees — rewrites rebuild
   only the spine they touch — are recognised by physical equality. *)
let rec same pred e1 e2 =
  e1 == e2
  ||
  match e1, e2 with
  | Entry a, Entry b -> String.equal a.scheme b.scheme && String.equal a.alias b.alias
  | External a, External b -> String.equal a.name b.name && String.equal a.alias b.alias
  | Select (p1, a), Select (p2, b) -> pred p1 p2 && same pred a b
  | Project (attrs1, a), Project (attrs2, b) ->
    List.equal String.equal attrs1 attrs2 && same pred a b
  | Join (k1, a1, a2), Join (k2, b1, b2) ->
    List.equal
      (fun (l1, r1) (l2, r2) -> String.equal l1 l2 && String.equal r1 r2)
      k1 k2
    && same pred a1 b1 && same pred a2 b2
  | Unnest (a, x), Unnest (b, y) -> String.equal x y && same pred a b
  | Follow f1, Follow f2 ->
    String.equal f1.link f2.link
    && String.equal f1.scheme f2.scheme
    && String.equal f1.alias f2.alias && same pred f1.src f2.src
  | Call c1, Call c2 ->
    String.equal c1.c_scheme c2.c_scheme
    && String.equal c1.c_alias c2.c_alias
    && List.equal
         (fun (p1, a1) (p2, a2) ->
           String.equal p1 p2
           &&
           match a1, a2 with
           | Arg_const x, Arg_const y | Arg_attr x, Arg_attr y -> String.equal x y
           | (Arg_const _ | Arg_attr _), _ -> false)
         c1.c_args c2.c_args
    && Option.equal (same pred) c1.c_src c2.c_src
  | ( Entry _ | External _ | Select _ | Project _ | Join _ | Unnest _ | Follow _
    | Call _ ), _ -> false

(* Structural equality, with predicates compared up to
   [Pred.normalize]: plans whose selections differ only in atom order
   are equal. *)
let equal = same Pred.equal

(* ------------------------------------------------------------------ *)
(* Plan identity                                                       *)
(* ------------------------------------------------------------------ *)

(* Exact structural identity: the same tree with the same atoms in the
   same order. Two plans are identical exactly when [canonical] prints
   them alike (the printer is a function of the tree, and no two trees
   the planner builds print the same). *)
let identical = same (List.equal Pred.atom_equal)

(* A hash consistent with [identical] that reads the whole tree
   ([Hashtbl.hash] stops after a few nodes, and plans of one query
   share their top). *)
let structural_hash e =
  let mix acc h = ((acc * 31) + h) land max_int in
  let str acc s = mix acc (Hashtbl.hash s) in
  let operand acc = function
    | Pred.Attr a -> str (mix acc 1) a
    | Pred.Const v -> mix (mix acc 2) (Adm.Value.hash v)
  in
  let rec go acc = function
    | Entry { scheme; alias } -> str (str (mix acc 3) scheme) alias
    | External { name; alias } -> str (str (mix acc 5) name) alias
    | Select (p, e) ->
      go
        (List.fold_left
           (fun acc (a : Pred.atom) ->
             operand (mix (operand acc a.Pred.left) (Hashtbl.hash a.Pred.cmp)) a.Pred.right)
           (mix acc 7) p)
        e
    | Project (attrs, e) -> go (List.fold_left str (mix acc 11) attrs) e
    | Join (keys, e1, e2) ->
      go (go (List.fold_left (fun acc (a, b) -> str (str acc a) b) (mix acc 13) keys) e1) e2
    | Unnest (e, a) -> go (str (mix acc 17) a) e
    | Follow { src; link; scheme; alias } ->
      go (str (str (str (mix acc 19) link) scheme) alias) src
    | Call { c_src; c_scheme; c_alias; c_args } ->
      let acc =
        List.fold_left
          (fun acc (p, a) ->
            match a with
            | Arg_const c -> str (str (mix acc 1) p) c
            | Arg_attr x -> str (str (mix acc 2) p) x)
          (str (str (mix acc 23) c_scheme) c_alias)
          c_args
      in
      (match c_src with None -> acc | Some src -> go (mix acc 29) src)
  in
  go 17 e

type key = { plan : expr; hash : int }

let key e = { plan = e; hash = structural_hash e }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 = k1.hash = k2.hash && identical k1.plan k2.plan
  let hash k = k.hash
end)

(* Aliases in scope: alias -> page-scheme name. External occurrences
   are reported with their relation name. *)
let alias_env e =
  fold
    (fun acc node ->
      match node with
      | Entry { scheme; alias } -> (alias, scheme) :: acc
      | Follow { scheme; alias; _ } -> (alias, scheme) :: acc
      | Call { c_scheme; c_alias; _ } -> (c_alias, c_scheme) :: acc
      | External _ | Select _ | Project _ | Join _ | Unnest _ -> acc)
    [] e

let scheme_of_alias e alias = List.assoc_opt alias (alias_env e)

let aliases e = List.map fst (alias_env e)

let externals e =
  fold
    (fun acc node ->
      match node with
      | External { name; alias } -> (name, alias) :: acc
      | Entry _ | Select _ | Project _ | Join _ | Unnest _ | Follow _ | Call _ ->
        acc)
    [] e
  |> List.rev

let is_computable e = externals e = []

(* Split an attribute name into its alias and the remaining dotted
   steps, given the aliases in scope. Aliases may themselves contain
   no dots, but we match by longest prefix for safety: the prefixes
   ending at each dot are tried from the rightmost dot leftwards. *)
let split_attr known_aliases attr =
  let rec try_dot i =
    match String.rindex_from_opt attr i '.' with
    | None -> None
    | Some j ->
      let prefix = String.sub attr 0 j in
      if List.mem prefix known_aliases then
        Some
          ( prefix,
            String.split_on_char '.' (String.sub attr (j + 1) (String.length attr - j - 1)) )
      else if j = 0 then None
      else try_dot (j - 1)
  in
  if String.length attr = 0 then None else try_dot (String.length attr - 1)

(* The dotted constraint path (scheme + steps) an attribute denotes,
   resolving its alias against the expression's environment. *)
let constraint_path_of_attr e attr =
  let env = alias_env e in
  match split_attr (List.map fst env) attr with
  | Some (alias, steps) -> (
    match List.assoc_opt alias env with
    | Some scheme -> Some (Adm.Constraints.path scheme steps, alias)
    | None -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Output attributes                                                   *)
(* ------------------------------------------------------------------ *)

(* Statically computed output attribute names of an expression; nested
   (list) attributes are included with their type so unnest can be
   checked. External relations contribute their attributes only after
   binding, so here they contribute a placeholder. *)
let rec output_attrs (schema : Adm.Schema.t) e : string list =
  match e with
  | Entry { scheme; alias } -> scheme_attrs schema ~scheme ~alias
  | External { name; alias } -> [ alias ^ ".*" ^ name ]
  | Select (_, e1) -> output_attrs schema e1
  | Project (attrs, _) -> attrs
  | Join (_, e1, e2) -> output_attrs schema e1 @ output_attrs schema e2
  | Unnest (e1, attr) ->
    let inner = unnested_attrs schema e1 attr in
    List.filter (fun a -> not (String.equal a attr)) (output_attrs schema e1) @ inner
  | Follow { src; scheme; alias; _ } ->
    output_attrs schema src @ scheme_attrs schema ~scheme ~alias
  | Call { c_src; c_scheme; c_alias; _ } ->
    (match c_src with None -> [] | Some s -> output_attrs schema s)
    @ scheme_attrs schema ~scheme:c_scheme ~alias:c_alias

and scheme_attrs schema ~scheme ~alias =
  let ps = Adm.Schema.find_scheme_exn schema scheme in
  (alias ^ "." ^ Adm.Page_scheme.url_attr)
  :: List.map
       (fun (d : Adm.Page_scheme.attr_decl) -> alias ^ "." ^ d.Adm.Page_scheme.name)
       (Adm.Page_scheme.attrs ps)

(* Attributes exposed by unnesting [attr]: resolve its type through
   the alias environment. *)
and unnested_attrs schema e1 attr =
  match constraint_path_of_attr e1 attr with
  | None -> []
  | Some (path, _alias) -> (
    match Adm.Schema.find_scheme schema path.Adm.Constraints.scheme with
    | None -> []
    | Some ps -> (
      match Adm.Page_scheme.resolve_path ps path.Adm.Constraints.steps with
      | Some (Adm.Webtype.List fields) ->
        List.map (fun (a, _) -> attr ^ "." ^ a) fields
      | Some _ | None -> []))

(* Memoized variant for callers that query output attributes of many
   overlapping subexpressions (selection sinking, pruning, the
   typechecker's soundness pass): one table per invocation, keyed by
   structural equality, turns the naive quadratic recomputation into a
   single bottom-up pass. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = expr

  let equal = equal
  let hash = Hashtbl.hash
end)

let output_attrs_memo (schema : Adm.Schema.t) : expr -> string list =
  let tbl = Expr_tbl.create 256 in
  let rec go e =
    match Expr_tbl.find_opt tbl e with
    | Some attrs -> attrs
    | None ->
      let attrs =
        match e with
        | Entry { scheme; alias } -> scheme_attrs schema ~scheme ~alias
        | External { name; alias } -> [ alias ^ ".*" ^ name ]
        | Select (_, e1) -> go e1
        | Project (attrs, _) -> attrs
        | Join (_, e1, e2) -> go e1 @ go e2
        | Unnest (e1, attr) ->
          let inner = unnested_attrs schema e1 attr in
          List.filter (fun a -> not (String.equal a attr)) (go e1) @ inner
        | Follow { src; scheme; alias; _ } ->
          go src @ scheme_attrs schema ~scheme ~alias
        | Call { c_src; c_scheme; c_alias; _ } ->
          (match c_src with None -> [] | Some s -> go s)
          @ scheme_attrs schema ~scheme:c_scheme ~alias:c_alias
      in
      Expr_tbl.add tbl e attrs;
      attrs
  in
  go

(* ------------------------------------------------------------------ *)
(* Attribute renaming                                                  *)
(* ------------------------------------------------------------------ *)

(* Apply an attribute-name rewriting function everywhere (predicates,
   projections, join keys, unnest and link attributes). Aliases are
   not touched; use [rename_alias] for that. *)
let rename_attrs f e =
  map
    (function
      | Select (p, e1) -> Select (Pred.map_attrs f p, e1)
      | Project (attrs, e1) -> Project (List.map f attrs, e1)
      | Join (keys, e1, e2) -> Join (List.map (fun (a, b) -> (f a, f b)) keys, e1, e2)
      | Unnest (e1, a) -> Unnest (e1, f a)
      | Follow fl -> Follow { fl with link = f fl.link }
      | Call c ->
        Call
          {
            c with
            c_args =
              List.map
                (fun (p, a) ->
                  ( p,
                    match a with
                    | Arg_attr x -> Arg_attr (f x)
                    | Arg_const _ as k -> k ))
                c.c_args;
          }
      | (Entry _ | External _) as leaf -> leaf)
    e

(* Rename one alias (and every attribute qualified by it). *)
let rename_alias ~from ~into e =
  let prefix = from ^ "." in
  let ren a =
    if String.equal a from then into
    else if String.length a > String.length prefix
            && String.sub a 0 (String.length prefix) = prefix then
      into ^ "." ^ String.sub a (String.length prefix) (String.length a - String.length prefix)
    else a
  in
  let e = rename_attrs ren e in
  map
    (function
      | Entry { scheme; alias } when String.equal alias from -> Entry { scheme; alias = into }
      | Follow fl when String.equal fl.alias from -> Follow { fl with alias = into }
      | Call c when String.equal c.c_alias from -> Call { c with c_alias = into }
      | other -> other)
    e

(* Rename aliases so that none clashes with [taken]; returns the new
   expression. Fresh aliases are "<alias>@<n>". *)
let uniquify_aliases ~taken e =
  let taken = ref taken in
  let fresh alias =
    if not (List.mem alias !taken) then begin
      taken := alias :: !taken;
      alias
    end
    else begin
      let rec go n =
        let candidate = Fmt.str "%s@%d" alias n in
        if List.mem candidate !taken then go (n + 1) else candidate
      in
      let candidate = go 2 in
      taken := candidate :: !taken;
      candidate
    end
  in
  List.fold_left
    (fun e alias ->
      let alias' = fresh alias in
      if String.equal alias alias' then e else rename_alias ~from:alias ~into:alias' e)
    e (aliases e)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_arg ppf = function
  | Arg_const c -> Fmt.pf ppf "'%s'" c
  | Arg_attr a -> Fmt.string ppf a

let pp_args ppf args =
  Fmt.(list ~sep:comma)
    (fun ppf (p, a) -> Fmt.pf ppf "%s:=%a" p pp_arg a)
    ppf args

let rec pp ppf = function
  | Entry { scheme; alias } ->
    if String.equal scheme alias then Fmt.string ppf scheme
    else Fmt.pf ppf "%s as %s" scheme alias
  | External { name; alias } ->
    if String.equal name alias then Fmt.pf ppf "ext:%s" name
    else Fmt.pf ppf "ext:%s as %s" name alias
  | Select (p, e) -> Fmt.pf ppf "σ[%a](%a)" Pred.pp p pp e
  | Project (attrs, e) ->
    Fmt.pf ppf "π[%a](%a)" Fmt.(list ~sep:comma string) attrs pp e
  | Join (keys, e1, e2) ->
    let pp_key ppf (a, b) = Fmt.pf ppf "%s=%s" a b in
    Fmt.pf ppf "(%a ⋈[%a] %a)" pp e1 Fmt.(list ~sep:comma pp_key) keys pp e2
  | Unnest (e, a) -> Fmt.pf ppf "%a ◦ %s" pp e a
  | Follow { src; link; scheme; alias } ->
    if String.equal scheme alias then Fmt.pf ppf "%a →[%s] %s" pp src link scheme
    else Fmt.pf ppf "%a →[%s] %s as %s" pp src link scheme alias
  | Call { c_src; c_scheme; c_alias; c_args } ->
    let suffix = if String.equal c_scheme c_alias then "" else " as " ^ c_alias in
    (match c_src with
    | None -> Fmt.pf ppf "⇒[%a] %s%s" pp_args c_args c_scheme suffix
    | Some src -> Fmt.pf ppf "%a ⇒[%a] %s%s" pp src pp_args c_args c_scheme suffix)

let to_string e = Fmt.str "%a" pp e

(* Printed canonical form; plan identity ([key]) decides the same
   equalities without printing. *)
let canonical e = to_string e

(* Indented query-plan tree, in the style of the paper's Figures 2–4
   (unnest kept infix, link operators drawn as upward edges). *)
let pp_plan ppf e =
  let rec go indent ppf e =
    let pad = String.make indent ' ' in
    match e with
    | Entry { scheme; alias } ->
      Fmt.pf ppf "%s%s%s@," pad scheme
        (if String.equal scheme alias then "" else " as " ^ alias)
    | External { name; alias } ->
      Fmt.pf ppf "%sext:%s%s@," pad name
        (if String.equal name alias then "" else " as " ^ alias)
    | Select (p, e1) ->
      Fmt.pf ppf "%sσ %a@,%a" pad Pred.pp p (go (indent + 2)) e1
    | Project (attrs, e1) ->
      Fmt.pf ppf "%sπ %a@,%a" pad Fmt.(list ~sep:comma string) attrs (go (indent + 2)) e1
    | Join (keys, e1, e2) ->
      let pp_key ppf (a, b) = Fmt.pf ppf "%s=%s" a b in
      Fmt.pf ppf "%s⋈ %a@,%a%a" pad
        Fmt.(list ~sep:comma pp_key)
        keys (go (indent + 2)) e1 (go (indent + 2)) e2
    | Unnest (e1, a) -> Fmt.pf ppf "%s◦ %s@,%a" pad a (go (indent + 2)) e1
    | Follow { src; link; scheme; alias } ->
      Fmt.pf ppf "%s→ %s [via %s]%s@,%a" pad scheme link
        (if String.equal scheme alias then "" else " as " ^ alias)
        (go (indent + 2)) src
    | Call { c_src; c_scheme; c_alias; c_args } ->
      let suffix =
        if String.equal c_scheme c_alias then "" else " as " ^ c_alias
      in
      Fmt.pf ppf "%s⇒ %s [%a]%s@,%a" pad c_scheme pp_args c_args suffix
        (fun ppf -> function
          | None -> ()
          | Some src -> go (indent + 2) ppf src)
        c_src
  in
  Fmt.pf ppf "@[<v>%a@]" (go 0) e
