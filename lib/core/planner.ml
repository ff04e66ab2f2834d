(* Plan selection (Algorithm 1, Section 6.3):

   1. translate the conjunctive query into relational algebra over
      external relations;
   2. replace each external relation with its default navigations in
      all possible ways (rule 1);
   3. eliminate repeated navigations (rule 4);
   4. push and prune joins (rules 8 and 9);
   5. push selections (rule 6 + commutation);
   6/7. push projections and eliminate unnecessary navigations
      (rules 7, 3, 5 — the [prune] pass);
   8. estimate the cost of every candidate and pick the cheapest. *)

type plan = { expr : Nalg.expr; cost : float; card : float }

(* A registered-view access path offered to the enumeration: the
   filter tree finds subsuming views, the economics snapshot prices
   them, and the typed environments let the soundness gate accept
   plans whose leaves are view scans. *)
type view_context = {
  vc_index : Viewmatch.t;
  vc_econ : Cost.view_econ;
  vc_env : string -> Typecheck.env option;
}

(* Provenance of one view substitution in a chosen plan: which
   registered view answers which query occurrence, the residual
   predicate the executor still applies above the scan, and the
   priced HEAD/GET wire split of the scan. *)
type substitution = {
  sub_view : string;
  sub_alias : string;
  sub_residual : Pred.t;
  sub_heads : float;
  sub_gets : float;
}

type outcome = {
  best : plan;
  candidates : plan list; (* all candidates, sorted by cost *)
  explored : int;
  merged : int;
      (* candidates dropped because an equivalent (cheaper) plan kept
         their Contain.plan_key *)
  select : string list; (* the query's output attributes, in order *)
  view_used : substitution list;
      (* view substitutions of the best plan, one per External leaf;
         empty when the cost race chose pure navigation *)
  diagnostics : Diagnostic.t list;
      (* findings of the enumeration: W0401 when a plan-space cap
         truncated a closure phase, E0402/E0403 when a rewrite step
         failed the soundness check, E0404 for candidates rejected as
         ill-typed before costing, E0601/W0602 from input-query
         minimization, W0605 when the best plan answers from a
         materialized view *)
}

(* Candidate plans name their output columns after the page-scheme
   occurrences they navigate, which differ between plans (aliasing);
   the projection order, however, always follows the query's SELECT
   list. Rebuild the header positionally with the user's names — this
   also copes with plans where rule 4 merged two SELECT columns onto
   the same plan attribute (duplicate projection names). *)
let rename_output (o : outcome) rel =
  let attrs = Adm.Relation.attrs rel in
  if List.length attrs = List.length o.select then
    Adm.Relation.of_arrays o.select (Adm.Relation.rows_arrays rel)
  else rel

(* Closure of a set of plans under one-step rewritings, with
   deduplication by plan identity and a safety cap. Every plan is keyed
   once ({!Nalg.key}) as it is produced, and the key travels with it:
   into [seen], to [on_rewrite], and out to the caller. Returns the
   plans plus how the cap bounded the exploration: [`Complete] when the
   queue drained, [`Truncated] when work was left queued, and
   [`Unexplored n] when the [n] distinct seeds alone already filled the
   cap, so the loop never ran and no rule was applied. [on_rewrite]
   fires on every rule application, before deduplication — the planner
   hooks the rewrite-soundness check here. *)
let closure ?(cap = 400) ?(on_rewrite = fun ~parent:_ ~child:_ -> ())
    (rules : (Nalg.expr -> Nalg.expr list) list) (seeds : Nalg.key list) =
  let seen = Nalg.Key_tbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let add k =
    if not (Nalg.Key_tbl.mem seen k) then begin
      Nalg.Key_tbl.replace seen k ();
      out := k :: !out;
      Queue.add k queue
    end
  in
  List.iter add seeds;
  let n_seeds = Nalg.Key_tbl.length seen in
  while (not (Queue.is_empty queue)) && Nalg.Key_tbl.length seen < cap do
    let k = Queue.pop queue in
    List.iter
      (fun rule ->
        List.iter
          (fun e' ->
            let k' = Nalg.key e' in
            on_rewrite ~parent:k ~child:k';
            add k')
          (rule k.Nalg.plan))
      rules
  done;
  let bound =
    if Queue.is_empty queue then `Complete
    else if n_seeds >= cap then `Unexplored n_seeds
    else `Truncated
  in
  (List.rev !out, bound)

(* Apply a deterministic rule to fixpoint (first rewrite each round). *)
let fixpoint ?(max_rounds = 50) (rule : Nalg.expr -> Nalg.expr list) e =
  let rec go n e =
    if n = 0 then e
    else
      match rule e with
      | [] -> e
      | e' :: _ -> go (n - 1) e'
  in
  go max_rounds e

(* The residual predicate of a view substitution: the selection atoms
   of the plan that reference the substituted occurrence's alias —
   what the executor still filters above the view scan. *)
let residual_of (e : Nalg.expr) alias : Pred.t =
  let prefix = alias ^ "." in
  let refers a =
    String.length a > String.length prefix
    && String.sub a 0 (String.length prefix) = prefix
  in
  Nalg.fold
    (fun acc n ->
      match n with
      | Nalg.Select (p, _) ->
        List.filter (fun atom -> List.exists refers (Pred.atom_attrs atom)) p
        @ acc
      | _ -> acc)
    [] e
  |> Pred.normalize

(* The view substitutions a plan answers from: one per External leaf
   the economics snapshot prices (and therefore the executor can
   scan), with the HEAD/GET wire split that price predicts. *)
let substitutions_of (views : view_context option) (e : Nalg.expr) :
    substitution list =
  match views with
  | None -> []
  | Some vc ->
    List.filter_map
      (fun (name, alias) ->
        match vc.vc_econ.Cost.view name with
        | None -> None
        | Some v ->
          let heads = v.Cost.view_pages *. v.Cost.view_stale in
          Some
            {
              sub_view = name;
              sub_alias = alias;
              sub_residual = residual_of e alias;
              sub_heads = heads;
              sub_gets = heads *. v.Cost.view_change;
            })
      (Nalg.externals e)

let enumerate ?cap ?(pointer_rules = true) ?(constraint_selections = true)
    ?(minimize = true) ?views ?bindings (schema : Adm.Schema.t)
    (stats : Stats.t) (registry : View.registry) (q : Conjunctive.t) : outcome =
  (* [pointer_rules] and [constraint_selections] exist for ablation
     studies: without rules 8/9 (resp. rule 6) the planner falls back
     to the constraint-blind plans. [cap], when given, overrides the
     per-phase plan-space caps (join 1500, selection/projection 400). *)
  let join_cap = Option.value cap ~default:1500 in
  let other_cap = Option.value cap ~default:400 in
  let diagnostics = ref [] in
  let diag d = diagnostics := d :: !diagnostics in
  (* View access paths: the economics snapshot prices materialized
     views; an External leaf it knows is a legitimate scan, not a
     computability failure. *)
  let econ =
    match views with Some vc -> vc.vc_econ | None -> Cost.no_views
  in
  let known name = econ.Cost.view name <> None in
  let tc_views name =
    match views with None -> None | Some vc -> vc.vc_env name
  in
  (* Rewrite soundness (E0402/E0403), with type inference memoized by
     plan identity — each distinct plan of the closure is inferred
     once — and at most one report per offending child plan. *)
  let inferred = Nalg.Key_tbl.create 256 in
  let infer_cached k =
    match Nalg.Key_tbl.find_opt inferred k with
    | Some r -> r
    | None ->
      let r = Typecheck.infer ~views:tc_views schema k.Nalg.plan in
      Nalg.Key_tbl.add inferred k r;
      r
  in
  let judged = Nalg.Key_tbl.create 256 in
  let on_rewrite ~parent ~child =
    if not (Nalg.Key_tbl.mem judged child) then begin
      Nalg.Key_tbl.add judged child ();
      List.iter diag
        (Typecheck.judge ~parent:(infer_cached parent)
           ~child:(infer_cached child))
    end
  in
  let closure_phase ~phase ~rules_named ~cap rules seeds =
    let plans, bound = closure ~cap ~on_rewrite rules seeds in
    (match bound with
    | `Complete -> ()
    | `Truncated ->
      diag
        (Diagnostic.warning ~code:"W0401"
           "plan-space cap %d hit during the %s phase; enumeration truncated \
            (raise --cap to explore further)"
           cap phase)
    | `Unexplored n_seeds ->
      diag
        (Diagnostic.warning ~code:"W0401"
           "plan-space cap %d hit during the %s phase: its %d seed plans \
            already fill the cap, so the phase never applied %s (raise \
            --cap to explore further)"
           cap phase n_seeds rules_named));
    plans
  in
  let rekey f k = Nalg.key (f k.Nalg.plan) in
  (* Semantic minimization first (Contain): fold FROM occurrences
     equated on declared keys (bag-sound), normalize the WHERE
     conjunction, report provable emptiness. The minimized query has
     the same select arity and position-wise the same output values,
     so [rename_output] keeps working with the original SELECT. *)
  let q_plan =
    if minimize then begin
      let q', ds = Contain.minimize_query registry q in
      List.iter diag ds;
      q'
    end
    else q
  in
  let base = Conjunctive.to_algebra q_plan in
  (* Step 2: rule 1 *)
  let expanded = View.expand registry base in
  (* Step 2': rule 1 generalized to access paths — each occurrence may
     also resolve to a scan of a materialized view that subsumes it
     (itself, or a registered view the filter tree proves equivalent
     on the occurrence's attributes). These plans keep External leaves
     and bypass the navigation rewrites below: the rewrite rules
     reason over page navigations, and a view scan exposes none. They
     rejoin the pipeline at the costing stage, where the economics
     snapshot prices their staleness against pure navigation. *)
  let view_plans =
    match views with
    | None -> []
    | Some vc ->
      let scans (rel : View.relation) ~alias =
        let self =
          if known rel.View.rel_name then
            [ Nalg.external_ ~alias rel.View.rel_name ]
          else []
        in
        let subsumed =
          Viewmatch.subsumers vc.vc_index rel
          |> List.filter_map (fun (g : View.relation) ->
                 if known g.View.rel_name then
                   Some (Nalg.external_ ~alias g.View.rel_name)
                 else None)
        in
        self @ subsumed
      in
      View.expand_access registry ~scans base
      |> List.filter (fun e -> Nalg.externals e <> [])
  in
  (* Step 3: rule 4 to fixpoint on each expansion (cheap first pass) *)
  let merged =
    List.map (fun e -> Nalg.key (fixpoint (Rewrite.rule4 schema) e)) expanded
  in
  (* Step 4: closure under join reordering and rules 4, 8, 9 (and 2);
     reordering exposes repeated / joinable navigations that the
     left-deep FROM-order tree hides *)
  let join_rules =
    [
      Rewrite.rule4 schema;
      Rewrite.join_commute schema;
      Rewrite.join_rotate schema;
    ]
    @
    if pointer_rules then
      [ Rewrite.rule8 schema; Rewrite.rule9 schema; Rewrite.rule2 schema ]
    else []
  in
  let with_joins =
    closure_phase ~phase:"join"
      ~rules_named:
        (if pointer_rules then "join reordering or rules 2, 4, 8, 9"
         else "join reordering or rule 4")
      ~cap:join_cap
      join_rules merged
  in
  (* Step 5: closure under rule 6, then sink selections *)
  let with_selections =
    (if constraint_selections then
       closure_phase ~phase:"selection" ~rules_named:"rule 6" ~cap:other_cap
         [ Rewrite.rule6 schema ] with_joins
     else with_joins)
    |> List.map (rekey (Rewrite.sink_selections schema))
  in
  (* Steps 6/7: move projected attributes to the source side of link
     constraints (rule 7), then prune unneeded unnests and navigations
     — together these drop navigations that only read replicated
     values *)
  let with_projections =
    (if constraint_selections then
       closure_phase ~phase:"projection" ~rules_named:"rule 7" ~cap:other_cap
         [ Rewrite.rule7_replace schema ] with_selections
     else with_selections)
    |> List.map (rekey (Rewrite.prune schema))
  in
  (* Step 2'': binding-pattern access paths — on sites whose data sits
     behind parameterized forms, an equivalent-rewriting search over
     the registered path views (see {!Bindings}) supplies chains of
     [Call] operators answering the query with every input bound.
     Like view scans, they bypass the navigation rewrites (the rules
     reason over link structure, which a call does not expose) and
     rejoin at the costing stage as ordinary candidates. The hook is
     function-typed so the search can live above this library. *)
  let binding_plans =
    match bindings with None -> [] | Some f -> f q_plan
  in
  let pruned =
    with_projections @ List.map Nalg.key (view_plans @ binding_plans)
  in
  (* dedup once more; typecheck gate; estimate; sort. Computability is
     relaxed to access paths: a plan may keep External leaves when
     every one names a view the economics snapshot prices (the
     executor answers those from the store). *)
  let seen = Nalg.Key_tbl.create 64 in
  let costed =
    List.filter
      (fun k ->
        if Nalg.Key_tbl.mem seen k then false
        else begin
          Nalg.Key_tbl.replace seen k ();
          true
        end)
      pruned
    |> List.filter (fun k ->
           List.for_all (fun (name, _) -> known name) (Nalg.externals k.Nalg.plan))
    |> List.filter (fun k ->
           let _, ds = infer_cached k in
           if Diagnostic.has_errors ds then begin
             diag
               (Diagnostic.error ~code:"E0404"
                  "rejected ill-typed candidate plan %s" (Nalg.to_string k.Nalg.plan));
             false
           end
           else true)
    |> List.map (fun { Nalg.plan = e; _ } ->
           let est = Cost.estimate ~views:econ schema stats e e in
           { expr = e; cost = est.Cost.cost; card = est.Cost.card })
    |> List.sort (fun p1 p2 -> Float.compare p1.cost p2.cost)
  in
  (* Semantic dedup: plans whose tableaux are isomorphic
     (Contain.plan_key) are the same query written differently — keep
     one representative per key. Running after the cost sort keeps the
     cheapest representative, so the chosen plan is exactly what it
     would have been without deduplication. *)
  let keyed = Hashtbl.create 64 in
  let merged = ref 0 in
  let candidates =
    List.filter
      (fun p ->
        let k = Contain.plan_key p.expr in
        if Hashtbl.mem keyed k then begin
          incr merged;
          false
        end
        else begin
          Hashtbl.replace keyed k ();
          true
        end)
      costed
  in
  match candidates with
  | [] -> invalid_arg "Planner.enumerate: no computable plan"
  | best :: _ ->
    let view_used = substitutions_of views best.expr in
    List.iter
      (fun s ->
        diag
          (Diagnostic.warning ~code:"W0605"
             "best plan answers occurrence %s from materialized view %s \
              (≈%.1f HEAD, ≈%.1f GET)"
             s.sub_alias s.sub_view s.sub_heads s.sub_gets))
      view_used;
    {
      best;
      candidates;
      explored = List.length pruned;
      merged = !merged;
      select = q.Conjunctive.select;
      view_used;
      diagnostics = List.rev !diagnostics;
    }

let plan_sql ?cap ?pointer_rules ?constraint_selections ?minimize ?views
    ?bindings schema stats registry sql =
  enumerate ?cap ?pointer_rules ?constraint_selections ?minimize ?views
    ?bindings schema stats registry
    (Sql_parser.parse registry sql)

(* Plan and execute a SQL query against a page source. Returns the
   chosen plan and the result. [views] opens registered-view access
   paths to the enumeration; [exec_views] is the store-backed answerer
   the executor needs when the chosen plan scans a view. *)
let run ?cap ?views ?bindings ?exec_views schema stats registry source sql =
  let outcome = plan_sql ?cap ?views ?bindings schema stats registry sql in
  let result =
    rename_output outcome
      (Eval.eval ?views:exec_views schema source outcome.best.expr)
  in
  (outcome, result)

let pp_plan ppf p =
  Fmt.pf ppf "@[<v>cost=%.2f est_card=%.2f@,%a@]" p.cost p.card Nalg.pp_plan p.expr
