(* Equivalent rewritings over path views with binding patterns.

   A form or service endpoint is a *path view*: callable only with its
   input parameters bound, returning a page of output attributes
   (Rajaraman-style adornments — the inputs are the 'b' positions of
   the page-scheme's adornment, the outputs the 'f' positions). A
   query over a form-only site has no navigation-only plan: no
   crawlable index reaches the data, so Algorithm 1's rule-based
   enumeration produces nothing. Following Romero, Preda and Suchanek
   ("Equivalent rewritings on path views with binding patterns"), the
   planner instead searches for a *composition* of calls in which
   every input of every call is bound either by a query constant or by
   an output of an earlier call — a word of a transition system whose
   states are the sets of bound values. Discovered compositions are
   emitted as ordinary NALG plans (chains of {!Nalg.Call}) and rejoin
   the planner at the costing stage, exactly like registered-view
   scans.

   Values are named in a *logical vocabulary* shared by the query's
   external relations and the path views: two attributes mapped to the
   same logical name denote the same entity, so feeding one into a
   call parameter of that name is an equi-join. This is the global
   entity vocabulary of the paper's setting (functions over entities),
   declared per site next to its view registry. *)

module Nalg = Webviews.Nalg
module Pred = Webviews.Pred
module Conjunctive = Webviews.Conjunctive
module Diagnostic = Webviews.Diagnostic
module Exec = Webviews.Exec

type origin = OConst of string | OAttr of string

type path_view = {
  pv_name : string;
  pv_scheme : string;  (* the parameterized page-scheme the call fetches *)
  pv_inputs : string list;
      (* logical names consumed, positionally matching the scheme's
         declared parameters *)
  pv_unnest : string list;
      (* nested-list attributes unnested after the call, outermost
         first, so multi-valued results become rows *)
  pv_outputs : (string * string) list;
      (* logical name -> attribute relative to the call's alias (after
         the unnests, so it may be a dotted nested path) *)
}

let path_view ?(unnest = []) ?(outputs = []) ~name ~scheme ~inputs () =
  { pv_name = name; pv_scheme = scheme; pv_inputs = inputs;
    pv_unnest = unnest; pv_outputs = outputs }

(* ------------------------------------------------------------------ *)
(* Derivation from a schema                                            *)
(* ------------------------------------------------------------------ *)

(* One path view per parameterized page-scheme: inputs are the param
   names, outputs its mono-valued attributes under their own names.
   Richer views (nested unnests, renamed vocabulary) are declared by
   hand next to the site. *)
let of_schema (schema : Adm.Schema.t) : path_view list =
  List.filter_map
    (fun ps ->
      if not (Adm.Page_scheme.is_parameterized ps) then None
      else
        let name = Adm.Page_scheme.name ps in
        let inputs =
          List.map (fun p -> p.Adm.Page_scheme.p_name) (Adm.Page_scheme.params ps)
        in
        let outputs =
          List.filter_map
            (fun (d : Adm.Page_scheme.attr_decl) ->
              if Adm.Webtype.is_mono d.Adm.Page_scheme.ty then
                Some (d.Adm.Page_scheme.name, d.Adm.Page_scheme.name)
              else None)
            (Adm.Page_scheme.attrs ps)
        in
        Some (path_view ~name ~scheme:name ~inputs ~outputs ()))
    (Adm.Schema.schemes schema)

(* Synthetic decoy views for scaling experiments: a vocabulary of
   [width] synthetic entity names, and [n] one-step services chaining
   them (view i maps one synthetic name to another; a [hooks] fraction
   take a real seed name as input, so they are callable from the
   query's constants). Deterministic in [seed]. Decoys target
   nonexistent page-schemes, and since no decoy outputs a real name,
   none can feed a query: the search's relevance pass drops them all
   before the first state is expanded. *)
let decoys ?(width = 24) ?(hooks = []) ~seed ~n () : path_view list =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand m =
    (* xorshift-ish LCG: deterministic, no wall clock *)
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let syn i = Fmt.str "syn%d" (i mod width) in
  List.init n (fun i ->
      let input =
        match hooks with
        | [] -> syn (rand width)
        | hs when i mod 7 = 0 -> List.nth hs (rand (List.length hs))
        | _ -> syn (rand width)
      in
      let out = syn (rand width) in
      path_view
        ~name:(Fmt.str "decoy%d" i)
        ~scheme:(Fmt.str "DecoyPage%d" i)
        ~inputs:[ input ]
        ~outputs:[ (out, "Out") ]
        ())

(* ------------------------------------------------------------------ *)
(* Configuration: views plus the query-side vocabulary                  *)
(* ------------------------------------------------------------------ *)

type config = {
  views : path_view list;
  vocab : (string * (string * string) list) list;
      (* external relation -> (relation attribute -> logical name) *)
}

let config ~views ~vocab = { views; vocab }
let add_views t views = { t with views = t.views @ views }

(* ------------------------------------------------------------------ *)
(* The rewriting search                                                 *)
(* ------------------------------------------------------------------ *)

type state = {
  bound : (string * origin) list;  (* logical name -> how it is bound *)
  expr : Nalg.expr option;  (* the call chain so far *)
  taken : string list;  (* aliases used by the chain *)
  calls : int;
}

let find_bound st name = List.assoc_opt name st.bound

(* State signature for BFS deduplication: which names are bound and
   whether each is available as a plan attribute (an [OConst] cannot
   be projected, so the two kinds are different capabilities). *)
let signature st =
  st.bound
  |> List.map (fun (n, o) ->
         n ^ (match o with OConst _ -> "=c" | OAttr _ -> "=a"))
  |> List.sort String.compare
  |> String.concat ";"

let fresh_alias taken base =
  if not (List.mem base taken) then base
  else
    let rec go i =
      let a = Fmt.str "%s%d" base i in
      if List.mem a taken then go (i + 1) else a
    in
    go 2

(* Apply one path view to a state: None when an input is unbound, when
   the first call would need a row-valued argument (a chain must start
   from constants), or when the call adds no new capability. *)
let apply (schema : Adm.Schema.t) (st : state) (pv : path_view) : state option =
  let origins =
    List.fold_left
      (fun acc name ->
        match acc with
        | None -> None
        | Some acc -> (
          match find_bound st name with
          | Some o -> Some (o :: acc)
          | None -> None))
      (Some []) pv.pv_inputs
    |> Option.map List.rev
  in
  match origins with
  | None -> None
  | Some origins ->
    if st.expr = None && List.exists (function OAttr _ -> true | _ -> false) origins
    then None
    else
      let alias = fresh_alias st.taken pv.pv_scheme in
      let args =
        List.map2
          (fun name o ->
            ( name,
              match o with
              | OConst v -> Nalg.Arg_const v
              | OAttr a -> Nalg.Arg_attr a ))
          pv.pv_inputs origins
      in
      (* param names of the actual scheme, positional with pv_inputs *)
      let args =
        match Adm.Schema.find_scheme schema pv.pv_scheme with
        | Some ps when Adm.Page_scheme.is_parameterized ps ->
          let params = Adm.Page_scheme.params ps in
          if List.length params = List.length args then
            List.map2
              (fun p (_, a) -> (p.Adm.Page_scheme.p_name, a))
              params args
          else args
        | Some _ | None -> args
      in
      let call =
        Nalg.call ~alias ?src:st.expr pv.pv_scheme ~args
      in
      let expr, _ =
        List.fold_left
          (fun (e, prefix) u ->
            let attr = prefix ^ "." ^ u in
            (Nalg.unnest e attr, attr))
          (call, alias) pv.pv_unnest
      in
      let bound, gained =
        List.fold_left
          (fun (bound, gained) (name, rel_attr) ->
            let plan_attr = alias ^ "." ^ rel_attr in
            match List.assoc_opt name bound with
            | Some (OAttr _) -> (bound, gained)
            | Some (OConst _) ->
              (* upgrade: the value is now carried by a plan attribute *)
              ((name, OAttr plan_attr) :: List.remove_assoc name bound, true)
            | None -> ((name, OAttr plan_attr) :: bound, true))
          (st.bound, false) pv.pv_outputs
      in
      if not gained then None
      else
        Some { bound; expr = Some expr; taken = alias :: st.taken; calls = st.calls + 1 }

(* The query-side reading of a conjunctive query under the vocabulary:
   [None] when a FROM relation has no vocabulary entry or an attribute
   has no logical name — the search does not apply. *)
type goal = {
  g_logical : string -> string option;  (* "alias.Attr" -> logical name *)
  g_select : string list;
  g_where : Pred.t;
  g_consts : (string * string) list;  (* logical name -> seed constant *)
  g_names : string list;  (* logical names of the SELECT and WHERE attributes *)
}

let read_query (t : config) (q : Conjunctive.t) : goal option =
  let maps =
    List.fold_left
      (fun acc (s : Conjunctive.source) ->
        match acc with
        | None -> None
        | Some acc -> (
          match List.assoc_opt s.Conjunctive.rel t.vocab with
          | Some m -> Some ((s.Conjunctive.alias, m) :: acc)
          | None -> None))
      (Some []) q.Conjunctive.from
  in
  match maps with
  | None -> None
  | Some maps ->
    let g_logical attr =
      match String.index_opt attr '.' with
      | None -> None
      | Some i ->
        let alias = String.sub attr 0 i in
        let a = String.sub attr (i + 1) (String.length attr - i - 1) in
        Option.bind (List.assoc_opt alias maps) (fun m -> List.assoc_opt a m)
    in
    let covered attr = g_logical attr <> None in
    if
      List.for_all covered q.Conjunctive.select
      && List.for_all
           (fun atom -> List.for_all covered (Pred.atom_attrs atom))
           q.Conjunctive.where
    then
      let g_consts =
        List.filter_map
          (fun atom ->
            match Pred.orient atom with
            | { Pred.left = Pred.Attr a; cmp = Pred.Eq; right = Pred.Const v } ->
              Option.bind (g_logical a) (fun name ->
                  Option.map (fun s -> (name, s)) (Exec.param_string v))
            | _ -> None)
          q.Conjunctive.where
      in
      let g_names =
        q.Conjunctive.select @ List.concat_map Pred.atom_attrs q.Conjunctive.where
        |> List.filter_map g_logical
        |> List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) []
        |> List.rev
      in
      Some
        { g_logical; g_select = q.Conjunctive.select; g_where = q.Conjunctive.where;
          g_consts; g_names }
    else None

let seeds g = g.g_consts

(* Is [st] a goal state, and if so, the finished plan: every SELECT
   attribute carried by a plan attribute, and every WHERE atom either
   re-checkable as a residual selection or consumed by construction (a
   seeding equality whose constant was fed verbatim into a call). *)
let finish (g : goal) (st : state) : Nalg.expr option =
  match st.expr with
  | None -> None
  | Some expr ->
    let plan_attr attr =
      match Option.bind (g.g_logical attr) (find_bound st) with
      | Some (OAttr a) -> Some a
      | Some (OConst _) | None -> None
    in
    let select = List.map plan_attr g.g_select in
    if List.exists Option.is_none select then None
    else
      let residual =
        List.fold_left
          (fun acc atom ->
            match acc with
            | None -> None
            | Some acc -> (
              let mapped =
                match Pred.orient atom with
                | { Pred.left = Pred.Attr a; cmp; right = Pred.Const v } ->
                  Option.map
                    (fun a' -> Pred.atom (Pred.Attr a') cmp (Pred.Const v))
                    (plan_attr a)
                | { Pred.left = Pred.Attr a; cmp; right = Pred.Attr b } ->
                  (match plan_attr a, plan_attr b with
                  | Some a', Some b' ->
                    Some (Pred.atom (Pred.Attr a') cmp (Pred.Attr b'))
                  | _ -> None)
                | _ -> None
              in
              match mapped with
              | Some atom' -> Some (atom' :: acc)
              | None -> (
                (* consumed seed: attr = const with the constant fed
                   verbatim into a call parameter of that name *)
                match Pred.orient atom with
                | { Pred.left = Pred.Attr a; cmp = Pred.Eq; right = Pred.Const v } -> (
                  match Option.bind (g.g_logical a) (fun n -> List.assoc_opt n g.g_consts),
                        Exec.param_string v with
                  | Some fed, Some s when String.equal fed s -> Some acc
                  | _ -> None)
                | _ -> None)))
          (Some []) g.g_where
      in
      match residual with
      | None -> None
      | Some atoms ->
        let select = List.map Option.get select in
        let residual = List.rev atoms in
        (* minimality: every call of the chain must contribute — feed a
           later call's argument, a residual atom or a SELECT column.
           A state reached through a useless call (a decoy, say) also
           reaches its goal on the shorter path without it, and that
           path is the equivalent rewriting; emitting the detour would
           hand the cost model a plan that fetches pages nothing
           reads. *)
        let calls =
          Nalg.fold
            (fun acc n ->
              match n with
              | Nalg.Call { c_alias; c_args; _ } -> (c_alias, c_args) :: acc
              | _ -> acc)
            [] expr
        in
        let used =
          select
          @ List.concat_map (fun a -> Pred.atom_attrs a) residual
          @ List.concat_map
              (fun (_, args) ->
                List.filter_map
                  (function _, Nalg.Arg_attr a -> Some a | _ -> None)
                  args)
              calls
        in
        let contributes alias =
          let prefix = alias ^ "." in
          List.exists
            (fun a ->
              String.length a > String.length prefix
              && String.sub a 0 (String.length prefix) = prefix)
            used
        in
        if not (List.for_all (fun (alias, _) -> contributes alias) calls) then None
        else
          let e =
            match residual with [] -> expr | p -> Nalg.select p expr
          in
          Some (Nalg.project select e)

(* ------------------------------------------------------------------ *)
(* Relevance: the views that can feed the query                         *)
(* ------------------------------------------------------------------ *)

(* The least set of logical names holding [init] and closed under
   [step]: [step mem pv] is what view [pv] adds to the set, given
   membership [mem] in the set so far. *)
let saturate (init : string list) (views : path_view list)
    (step : (string -> bool) -> path_view -> string list) : (string, unit) Hashtbl.t =
  let set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace set n ()) init;
  let mem n = Hashtbl.mem set n in
  let rec grow () =
    let grew =
      List.fold_left
        (fun grew pv ->
          List.fold_left
            (fun grew n -> if mem n then grew else (Hashtbl.replace set n (); true))
            grew (step mem pv))
        false views
    in
    if grew then grow ()
  in
  grow ();
  set

(* The views a rewriting of [g] can use. The query's useful names are
   the least set holding every SELECT and WHERE name and every input of
   a view with a useful output; a view is relevant when it has a
   useful output. Restricting the search to relevant views drops no
   rewriting: [finish] accepts a chain only when every call feeds a
   SELECT column, a residual atom or a later call's argument, so by
   induction from the last call backwards every call of an accepted
   chain outputs a useful name. *)
let relevant (g : goal) (views : path_view list) : path_view list =
  let feeds useful pv = List.exists (fun (n, _) -> useful n) pv.pv_outputs in
  let useful =
    saturate g.g_names views (fun useful pv ->
        if feeds useful pv then pv.pv_inputs else [])
  in
  List.filter (feeds (Hashtbl.mem useful)) views

type search_report = {
  rewritings : Nalg.expr list;  (* executable compositions, fewest calls first *)
  explored : int;  (* states expanded *)
  truncated : bool;  (* the state cap stopped the search *)
}

(* Breadth-first search over binding states reached through [views],
   seeded by the query's equality constants. *)
let bfs ?(max_states = 20_000) ?(max_results = 4) ?(max_calls = 8)
    (schema : Adm.Schema.t) (g : goal) (views : path_view list) : search_report =
  let init =
    {
      bound = List.map (fun (n, v) -> (n, OConst v)) g.g_consts;
      expr = None;
      taken = [];
      calls = 0;
    }
  in
  let seen = Hashtbl.create 256 in
  Hashtbl.replace seen (signature init) ();
  let queue = Queue.create () in
  Queue.add init queue;
  let results = ref [] and explored = ref 0 and truncated = ref false in
  while (not (Queue.is_empty queue)) && List.length !results < max_results do
    if !explored >= max_states then begin
      truncated := true;
      Queue.clear queue
    end
    else begin
      let st = Queue.pop queue in
      incr explored;
      (match finish g st with
      | Some plan -> results := plan :: !results
      | None -> ());
      if st.calls < max_calls then
        List.iter
          (fun pv ->
            match apply schema st pv with
            | None -> ()
            | Some st' ->
              let k = signature st' in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.replace seen k ();
                Queue.add st' queue
              end)
          views
    end
  done;
  { rewritings = List.rev !results; explored = !explored; truncated = !truncated }

let search ?max_states ?max_results ?max_calls (t : config) (schema : Adm.Schema.t)
    (q : Conjunctive.t) : search_report =
  match read_query t q with
  | Some g when g.g_consts <> [] ->
    bfs ?max_states ?max_results ?max_calls schema g (relevant g t.views)
  | Some _ | None -> { rewritings = []; explored = 0; truncated = false }

(* ------------------------------------------------------------------ *)
(* Planner hook and lint                                                *)
(* ------------------------------------------------------------------ *)

(* The function {!Planner.enumerate} takes as [?bindings]: candidates
   for a (minimized) conjunctive query, emitted into the enumeration
   beside the navigation plans and view scans. *)
let planner_hook ?max_states ?max_results ?max_calls (t : config)
    (schema : Adm.Schema.t) : Conjunctive.t -> Nalg.expr list =
 fun q -> (search ?max_states ?max_results ?max_calls t schema q).rewritings

(* Binding-pattern lint of one query: E0111 when the vocabulary covers
   the query but no executable composition answers it — the
   binding-pattern analogue of "no computable plan". The message names
   the query's names that no chain of relevant calls can bind from the
   seed constants (an over-approximation of what the search can bind,
   so a name it lists is certainly out of reach). *)
let lint ?max_states (t : config) (schema : Adm.Schema.t) (q : Conjunctive.t) :
    Diagnostic.t list =
  match read_query t q with
  | None -> []
  | Some g when g.g_consts = [] ->
    [
      Diagnostic.error ~code:"E0111"
        "no executable composition: the query binds no parameter (every \
         path view needs a bound input to start from)";
    ]
  | Some g ->
    let views = relevant g t.views in
    let r = bfs ?max_states schema g views in
    if r.rewritings <> [] then []
    else
      let bindable =
        saturate (List.map fst g.g_consts) views (fun bound pv ->
            if List.for_all bound pv.pv_inputs then List.map fst pv.pv_outputs else [])
      in
      let why =
        match List.filter (fun n -> not (Hashtbl.mem bindable n)) g.g_names with
        | [] ->
          Fmt.str "no chain of the %d relevant path views covers it" (List.length views)
        | unbound ->
          Fmt.str "%s cannot be bound from the query's constants through the %d relevant \
                   path views"
            (String.concat ", " unbound) (List.length views)
      in
      [
        Diagnostic.error ~code:"E0111"
          "no executable composition of the %d registered path views answers \
           this query: %s (searched %d binding state%s%s)"
          (List.length t.views) why r.explored
          (if r.explored = 1 then "" else "s")
          (if r.truncated then ", truncated" else "");
      ]

let pp_path_view ppf pv =
  Fmt.pf ppf "%s: %s(%a) -> %a" pv.pv_name pv.pv_scheme
    Fmt.(list ~sep:comma string)
    pv.pv_inputs
    Fmt.(list ~sep:comma (fun ppf (n, a) -> Fmt.pf ppf "%s:=%s" n a))
    pv.pv_outputs
