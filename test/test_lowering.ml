(* Lowering is total: every plan the planner emits has a physical form,
   so a query runs exactly one way — lowered, then run by Exec. Checked
   on random queries over the three crawlable sites (QCheck, seeds
   7/21/42) and on the form-only site's workload shapes; the best plan's
   streamed rows must equal the reference interpreter's. An unnest the
   typechecker rejects has no physical form: lowering raises
   Not_computable instead of handing the plan to another engine. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool

(* The random-query sites of the plan-identity suite, each with a
   crawled instance for the reference interpreter to read. *)
let sites =
  let instance_of schema site =
    lazy (Websim.Crawler.crawl schema (Websim.Http.connect (Lazy.force site)))
  in
  [
    ( Test_plan_identity.university,
      instance_of Sitegen.University.schema
        (lazy (Sitegen.University.site (Sitegen.University.build ()))) );
    ( Test_plan_identity.catalog,
      instance_of Sitegen.Catalog.schema
        (lazy (Sitegen.Catalog.site (Sitegen.Catalog.build ()))) );
    ( Test_plan_identity.bibliography,
      instance_of Sitegen.Bibliography.schema
        (lazy (Sitegen.Bibliography.site (Sitegen.Bibliography.build ()))) );
  ]

(* Every candidate lowers; the best one streams the reference rows. *)
let lowers_and_agrees schema (o : Planner.outcome) (source : Eval.source) =
  List.iter
    (fun (p : Planner.plan) -> ignore (Physplan.lower schema p.Planner.expr))
    o.Planner.candidates;
  let best = o.Planner.best.Planner.expr in
  Adm.Relation.equal
    (Exec.run schema source (Physplan.lower ~window:source.Eval.window schema best))
    (Eval.eval_legacy schema source best)

let query_arb =
  QCheck.make
    ~print:(fun ((s : Test_plan_identity.site), _, q) ->
      Fmt.str "%s: %a" s.Test_plan_identity.s_name Conjunctive.pp q)
    (fun st ->
      let s, instance = List.nth sites (Random.State.int st (List.length sites)) in
      (s, instance, Test_plan_identity.random_query s st))

let prop_total seed =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make
       ~name:(Fmt.str "every candidate lowers, best = reference (seed %d)" seed)
       ~count:20 query_arb (fun ((s : Test_plan_identity.site), instance, q) ->
         let open Test_plan_identity in
         match Planner.enumerate s.schema (Lazy.force s.stats) s.registry q with
         | o -> lowers_and_agrees s.schema o (Eval.instance_source (Lazy.force instance))
         | exception Invalid_argument _ -> true (* no computable plan *)))

(* The form-only site cannot be crawled: its pages sit behind forms, so
   the reference reads the live site through the same kind of source. *)
let test_formsite_shapes () =
  let schema = Sitegen.Formsite.schema in
  let fs = Sitegen.Formsite.build () in
  let hook = Bindings.planner_hook Sitegen.Formsite.binding_config schema in
  List.iter
    (fun sql ->
      let o =
        Planner.plan_sql ~bindings:hook schema (Sitegen.Formsite.stats fs)
          Sitegen.Formsite.view sql
      in
      let source = Eval.live_source schema (Websim.Http.connect (Sitegen.Formsite.site fs)) in
      check bool_t sql true (lowers_and_agrees schema o source))
    Server.Workload.formsite_templates

(* A hand-built unnest of a scalar (a link) and of a missing attribute:
   the typechecker rejects both, so neither has a physical form. *)
let test_ill_typed_unnest () =
  let schema = Sitegen.University.schema in
  let u = Sitegen.University.build () in
  let instance =
    Websim.Crawler.crawl schema (Websim.Http.connect (Sitegen.University.site u))
  in
  let stats = Stats.of_instance instance in
  let source = Eval.instance_source instance in
  let home = Nalg.Entry { scheme = "HomePage"; alias = "HomePage" } in
  List.iter
    (fun (attr, code) ->
      let e = Nalg.Unnest (home, attr) in
      check (Alcotest.list Alcotest.string) (attr ^ ": typechecker verdict") [ code ]
        (List.map (fun d -> d.Diagnostic.code) (Typecheck.check schema e));
      check bool_t (attr ^ ": Eval.eval raises Not_computable") true
        (match Eval.eval schema source e with
        | _ -> false
        | exception Eval.Not_computable _ -> true);
      check bool_t (attr ^ ": elapsed estimate is infinite") true
        (Cost.elapsed_estimate schema stats e = infinity))
    [ ("HomePage.ToProfList", "E0104"); ("HomePage.Nope", "E0103") ]

let suite =
  ( "lowering",
    [
      Alcotest.test_case "formsite shapes lower, best = reference" `Quick
        test_formsite_shapes;
      Alcotest.test_case "ill-typed unnest has no physical form" `Quick
        test_ill_typed_unnest;
    ]
    @ List.map prop_total Test_plan_identity.seeds )
