(* Differential oracle for plan identity: Algorithm 1 as it ran before
   plans carried a structural identity key, the brute-force
   equivalence key, and attribute splitting by list surgery. The
   closure, the soundness memos and the pre-cost dedup key every plan
   by its printed canonical form, recomputed at each use; [plan_key]
   takes the least serialization over every renumbering that permutes
   same-signature occurrences. Slow on purpose — the tests check that
   {!Planner.enumerate}, {!Contain.plan_key} and {!Nalg.split_attr}
   give exactly the same answers. *)

open Webviews

(* ------------------------------------------------------------------ *)
(* Attribute splitting by list surgery                                *)
(* ------------------------------------------------------------------ *)

let split_attr known_aliases attr =
  let parts = String.split_on_char '.' attr in
  let rec try_prefix k =
    if k = 0 then None
    else
      let prefix = String.concat "." (List.filteri (fun i _ -> i < k) parts) in
      if List.mem prefix known_aliases then
        Some (prefix, List.filteri (fun i _ -> i >= k) parts)
      else try_prefix (k - 1)
  in
  try_prefix (List.length parts - 1)

(* ------------------------------------------------------------------ *)
(* Brute-force equivalence key                                        *)
(* ------------------------------------------------------------------ *)

let value_str v = Adm.Value.type_name v ^ ":" ^ Adm.Value.to_string v

let bound_str = function
  | None -> "_"
  | Some (v, s) -> (if s then "!" else "=") ^ value_str v

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let serialize_under (t : Contain.tableau) (pi : int array) (outputs : Contain.term list) =
  let buf = Buffer.create 256 in
  let term_str (o, p) = string_of_int pi.(o) ^ "." ^ String.concat "." p in
  let add = Buffer.add_string buf in
  let occ_strs =
    Array.to_list (Array.mapi (fun i _ -> (pi.(i), Contain.occ_sig t i)) t.Contain.occs)
    |> List.sort compare |> List.map snd
  in
  add (String.concat ";" occ_strs);
  add "|N:";
  t.Contain.navs
  |> List.map (fun (s, steps, d) ->
         Fmt.str "%d>%s>%d" pi.(s) (String.concat "." steps) pi.(d))
  |> List.sort String.compare
  |> List.iter (fun s -> add s; add ";");
  add "|U:";
  t.Contain.unnests |> List.map term_str |> List.sort String.compare
  |> List.iter (fun s -> add s; add ";");
  add "|C:";
  Array.to_list t.Contain.classes
  |> List.map (fun (c : Contain.cls) ->
         let members = List.map term_str c.Contain.members |> List.sort String.compare in
         Fmt.str "{%s}b%s l%s h%s x%s" (String.concat "," members)
           (match c.Contain.binding with None -> "_" | Some v -> value_str v)
           (bound_str c.Contain.lo) (bound_str c.Contain.hi)
           (String.concat "," (List.map value_str c.Contain.excluded)))
  |> List.sort String.compare
  |> List.iter (fun s -> add s; add ";");
  add "|R:";
  t.Contain.residuals
  |> List.map (fun (x, cmp, y) ->
         Fmt.str "%s%s%s" (term_str x) (Pred.cmp_to_string cmp) (term_str y))
  |> List.sort String.compare
  |> List.iter (fun s -> add s; add ";");
  add "|O:";
  List.iter
    (fun o ->
      (match Hashtbl.find_opt t.Contain.cls_of o with
      | Some i ->
        let c = t.Contain.classes.(i) in
        let members = List.map term_str c.Contain.members |> List.sort String.compare in
        add "{"; add (String.concat "," members); add "}"
      | None -> add (term_str o));
      add ";")
    outputs;
  Buffer.contents buf

let plan_key (e : Nalg.expr) : string =
  match Contain.of_expr e with
  | Some t when not t.Contain.unsat -> (
    match t.Contain.outputs with
    | None -> "S:" ^ Nalg.canonical e
    | Some outputs ->
      let n = Array.length t.Contain.occs in
      let groups = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        let s = Contain.occ_sig t i in
        Hashtbl.replace groups s (i :: Option.value ~default:[] (Hashtbl.find_opt groups s))
      done;
      let group_list =
        Hashtbl.fold (fun s is acc -> (s, List.rev is) :: acc) groups [] |> List.sort compare
      in
      let count =
        List.fold_left
          (fun acc (_, is) ->
            let rec go acc k =
              if acc > Contain.perm_cap || k <= 1 then acc else go (acc * k) (k - 1)
            in
            go acc (List.length is))
          1 group_list
      in
      if count > Contain.perm_cap then "S:" ^ Nalg.canonical e
      else begin
        let blocks =
          let base = ref 0 in
          List.map
            (fun (_, is) ->
              let b = !base in
              base := !base + List.length is;
              (b, is))
            group_list
        in
        let rec assignments = function
          | [] -> [ [] ]
          | (b, is) :: rest ->
            let tails = assignments rest in
            List.concat_map
              (fun perm ->
                let pairs = List.mapi (fun k i -> (i, b + k)) perm in
                List.map (fun tl -> pairs @ tl) tails)
              (permutations is)
        in
        let best = ref None in
        List.iter
          (fun pairs ->
            let pi = Array.make n 0 in
            List.iter (fun (i, ni) -> pi.(i) <- ni) pairs;
            let s = serialize_under t pi outputs in
            match !best with
            | Some b when String.compare b s <= 0 -> ()
            | _ -> best := Some s)
          (assignments blocks);
        match !best with Some s -> "T:" ^ s | None -> "S:" ^ Nalg.canonical e
      end)
  | Some t -> (
    match t.Contain.outputs with
    | Some outputs -> Fmt.str "T:UNSAT:%d" (List.length outputs)
    | None -> "S:" ^ Nalg.canonical e)
  | None -> "S:" ^ Nalg.canonical e

(* ------------------------------------------------------------------ *)
(* String-keyed Algorithm 1                                           *)
(* ------------------------------------------------------------------ *)

let closure ?(cap = 400) ?(on_rewrite = fun ~parent:_ ~child:_ -> ())
    (rules : (Nalg.expr -> Nalg.expr list) list) (seeds : Nalg.expr list) =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let add e =
    let k = Nalg.canonical e in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := e :: !out;
      Queue.add e queue
    end
  in
  List.iter add seeds;
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < cap do
    let e = Queue.pop queue in
    List.iter
      (fun rule ->
        List.iter
          (fun e' ->
            on_rewrite ~parent:e ~child:e';
            add e')
          (rule e))
      rules
  done;
  (List.rev !out, not (Queue.is_empty queue))

let enumerate ?cap ?(pointer_rules = true) ?(constraint_selections = true)
    ?(minimize = true) ?(views : Planner.view_context option) ?bindings
    (schema : Adm.Schema.t) (stats : Stats.t) (registry : View.registry)
    (q : Conjunctive.t) : Planner.outcome =
  let join_cap = Option.value cap ~default:1500 in
  let other_cap = Option.value cap ~default:400 in
  let diagnostics = ref [] in
  let diag d = diagnostics := d :: !diagnostics in
  let econ = match views with Some vc -> vc.Planner.vc_econ | None -> Cost.no_views in
  let known name = econ.Cost.view name <> None in
  let tc_views name = match views with None -> None | Some vc -> vc.Planner.vc_env name in
  let inferred = Hashtbl.create 256 in
  let infer_cached e =
    let k = Nalg.canonical e in
    match Hashtbl.find_opt inferred k with
    | Some r -> r
    | None ->
      let r = Typecheck.infer ~views:tc_views schema e in
      Hashtbl.add inferred k r;
      r
  in
  let judged = Hashtbl.create 256 in
  let on_rewrite ~parent ~child =
    let k = Nalg.canonical child in
    if not (Hashtbl.mem judged k) then begin
      Hashtbl.add judged k ();
      List.iter diag
        (Typecheck.judge ~parent:(infer_cached parent) ~child:(infer_cached child))
    end
  in
  let closure_phase ~phase ~cap rules seeds =
    let plans, capped = closure ~cap ~on_rewrite rules seeds in
    if capped then
      diag
        (Diagnostic.warning ~code:"W0401"
           "plan-space cap %d hit during the %s phase; enumeration truncated" cap phase);
    plans
  in
  let q_plan =
    if minimize then begin
      let q', ds = Contain.minimize_query registry q in
      List.iter diag ds;
      q'
    end
    else q
  in
  let base = Conjunctive.to_algebra q_plan in
  let expanded = View.expand registry base in
  let view_plans =
    match views with
    | None -> []
    | Some vc ->
      let scans (rel : View.relation) ~alias =
        let self =
          if known rel.View.rel_name then [ Nalg.external_ ~alias rel.View.rel_name ]
          else []
        in
        let subsumed =
          Viewmatch.subsumers vc.Planner.vc_index rel
          |> List.filter_map (fun (g : View.relation) ->
                 if known g.View.rel_name then Some (Nalg.external_ ~alias g.View.rel_name)
                 else None)
        in
        self @ subsumed
      in
      View.expand_access registry ~scans base
      |> List.filter (fun e -> Nalg.externals e <> [])
  in
  let merged = List.map (Planner.fixpoint (Rewrite.rule4 schema)) expanded in
  let join_rules =
    [ Rewrite.rule4 schema; Rewrite.join_commute schema; Rewrite.join_rotate schema ]
    @
    if pointer_rules then [ Rewrite.rule8 schema; Rewrite.rule9 schema; Rewrite.rule2 schema ]
    else []
  in
  let with_joins = closure_phase ~phase:"join" ~cap:join_cap join_rules merged in
  let with_selections =
    (if constraint_selections then
       closure_phase ~phase:"selection" ~cap:other_cap [ Rewrite.rule6 schema ] with_joins
     else with_joins)
    |> List.map (Rewrite.sink_selections schema)
  in
  let with_projections =
    (if constraint_selections then
       closure_phase ~phase:"projection" ~cap:other_cap
         [ Rewrite.rule7_replace schema ] with_selections
     else with_selections)
    |> List.map (Rewrite.prune schema)
  in
  let binding_plans = match bindings with None -> [] | Some f -> f q_plan in
  let pruned = with_projections @ view_plans @ binding_plans in
  let seen = Hashtbl.create 64 in
  let costed =
    List.filter
      (fun e ->
        let k = Nalg.canonical e in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      pruned
    |> List.filter (fun e -> List.for_all (fun (name, _) -> known name) (Nalg.externals e))
    |> List.filter (fun e ->
           let _, ds = infer_cached e in
           if Diagnostic.has_errors ds then begin
             diag
               (Diagnostic.error ~code:"E0404" "rejected ill-typed candidate plan %s"
                  (Nalg.to_string e));
             false
           end
           else true)
    |> List.map (fun e ->
           let est = Cost.estimate ~views:econ schema stats e e in
           { Planner.expr = e; cost = est.Cost.cost; card = est.Cost.card })
    |> List.sort (fun p1 p2 -> Float.compare p1.Planner.cost p2.Planner.cost)
  in
  let keyed = Hashtbl.create 64 in
  let merged = ref 0 in
  let candidates =
    List.filter
      (fun (p : Planner.plan) ->
        let k = plan_key p.Planner.expr in
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
    let view_used = Planner.substitutions_of views best.Planner.expr in
    List.iter
      (fun (s : Planner.substitution) ->
        diag
          (Diagnostic.warning ~code:"W0605" "best plan answers occurrence %s from view %s"
             s.Planner.sub_alias s.Planner.sub_view))
      view_used;
    {
      Planner.best;
      candidates;
      explored = List.length pruned;
      merged = !merged;
      select = q.Conjunctive.select;
      view_used;
      diagnostics = List.rev !diagnostics;
    }
