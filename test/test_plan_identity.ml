(* Plan identity: Algorithm 1 keys every plan once by structure
   ({!Nalg.key}) and labels tableaux canonically ({!Contain.plan_key});
   the string-keyed closure and the brute-force key it replaced live in
   {!Plan_oracle}. These tests check the two give the same answers:

   - {!Planner.enumerate} against the oracle on the `make check`
     queries, Examples 7.1 / 7.2, Figure 2, the fourteen ad hoc
     benchmark shapes and random queries over three sites (seeds
     7/21/42): same best plan and cost, same candidates in the same
     order, same [merged] / [explored], same diagnostic codes;
   - plan identity partitions every plan a closure produces exactly as
     the canonical string does;
   - on random plans (QCheck, seeds 7/21/42) the new key partitions
     them exactly as the brute-force key does. *)

open Webviews

let seeds = [ 7; 21; 42 ]

type site = {
  s_name : string;
  schema : Adm.Schema.t;
  registry : View.registry;
  stats : Stats.t Lazy.t;
}

let crawled schema site =
  lazy (Stats.of_instance (Websim.Crawler.crawl schema (Websim.Http.connect site)))

let uni_data = lazy (Sitegen.University.build ())

let university =
  {
    s_name = "university";
    schema = Sitegen.University.schema;
    registry = Sitegen.University.view;
    stats =
      lazy
        (Lazy.force
           (crawled Sitegen.University.schema
              (Sitegen.University.site (Lazy.force uni_data))));
  }

let catalog =
  {
    s_name = "catalog";
    schema = Sitegen.Catalog.schema;
    registry = Sitegen.Catalog.view;
    stats =
      lazy
        (Lazy.force
           (crawled Sitegen.Catalog.schema (Sitegen.Catalog.site (Sitegen.Catalog.build ()))));
  }

let bibliography =
  {
    s_name = "bibliography";
    schema = Sitegen.Bibliography.schema;
    registry = View.auto_registry Sitegen.Bibliography.schema;
    stats =
      lazy
        (Lazy.force
           (crawled Sitegen.Bibliography.schema
              (Sitegen.Bibliography.site (Sitegen.Bibliography.build ()))));
  }

(* ------------------------------------------------------------------ *)
(* Differential: enumerate vs the string-keyed oracle                 *)
(* ------------------------------------------------------------------ *)

let attempt f = match f () with o -> Ok o | exception Invalid_argument m -> Error m

let codes (o : Planner.outcome) =
  List.map (fun d -> d.Diagnostic.code) o.Planner.diagnostics

let exprs (o : Planner.outcome) =
  List.map (fun (p : Planner.plan) -> Nalg.canonical p.Planner.expr) o.Planner.candidates

let check_same site label q =
  let stats = Lazy.force site.stats in
  let got = attempt (fun () -> Planner.enumerate site.schema stats site.registry q) in
  let want = attempt (fun () -> Plan_oracle.enumerate site.schema stats site.registry q) in
  let name what = Fmt.str "%s %s: %s" site.s_name label what in
  match got, want with
  | Ok g, Ok w ->
    Alcotest.(check string) (name "best plan")
      (Nalg.canonical w.Planner.best.Planner.expr)
      (Nalg.canonical g.Planner.best.Planner.expr);
    Alcotest.(check (float 0.)) (name "best cost") w.Planner.best.Planner.cost
      g.Planner.best.Planner.cost;
    Alcotest.(check (list string)) (name "candidates in order") (exprs w) (exprs g);
    Alcotest.(check int) (name "merged") w.Planner.merged g.Planner.merged;
    Alcotest.(check int) (name "explored") w.Planner.explored g.Planner.explored;
    Alcotest.(check (list string)) (name "diagnostic codes") (codes w) (codes g)
  | Error g, Error w -> Alcotest.(check string) (name "same failure") w g
  | Ok _, Error w -> Alcotest.failf "%s: oracle failed (%s), planner did not" (name "") w
  | Error g, Ok _ -> Alcotest.failf "%s: planner failed (%s), oracle did not" (name "") g

let check_sql site sql = check_same site sql (Sql_parser.parse site.registry sql)

let sql_71 =
  "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
   WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'"

let sql_72 =
  "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
   WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
   AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'"

let sql_fig2 =
  "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, ProfDept pd \
   WHERE c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = 'Computer Science'"

(* the queries `make check` plans *)
let check_university =
  [
    "SELECT p.PName, p.Email FROM Professor p, ProfDept pd WHERE p.PName = pd.PName AND \
     pd.DName = 'Computer Science'";
    "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName";
    "SELECT p.PName, p.Rank FROM Professor p, ProfDept d WHERE p.PName = d.PName AND \
     d.DName = 'Computer Science'";
    "SELECT p.PName FROM Professor p";
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c WHERE \
     p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'";
  ]

let check_catalog =
  [
    "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'";
    "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50";
    "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND p.Price >= 400";
    "SELECT p.PName FROM Product p WHERE p.Price > 495";
  ]

(* the fourteen shapes of the ad hoc benchmark workload, with
   constants from the generator's ground truth *)
let adhoc_shapes () =
  let u = Lazy.force uni_data in
  let dept = (List.hd (Sitegen.University.depts u)).Sitegen.University.d_name in
  let prof = (List.nth (Sitegen.University.profs u) 3).Sitegen.University.p_name in
  let course = (List.nth (Sitegen.University.courses u) 5).Sitegen.University.c_name in
  let session = List.hd (Sitegen.University.sessions u) in
  [
    Fmt.str "SELECT p.Email, p.Rank FROM Professor p WHERE p.PName = '%s'" prof;
    "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Associate'";
    Fmt.str "SELECT d.DName, d.Address FROM Dept d WHERE d.DName = '%s'" dept;
    Fmt.str "SELECT c.Description, c.Type FROM Course c WHERE c.CName = '%s'" course;
    Fmt.str
      "SELECT c.CName, c.Description FROM Course c WHERE c.Session = '%s' AND c.Type = \
       'Graduate'"
      session;
    Fmt.str "SELECT ci.CName FROM CourseInstructor ci WHERE ci.PName = '%s'" prof;
    Fmt.str
      "SELECT p.PName, p.Email FROM Professor p, ProfDept d WHERE p.PName = d.PName AND \
       d.DName = '%s' AND p.Rank = 'Full'"
      dept;
    Fmt.str
      "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = \
       ci.CName AND c.Session = '%s'"
      session;
    Fmt.str
      "SELECT c.Session, c.Type FROM Course c, CourseInstructor ci WHERE c.CName = \
       ci.CName AND ci.PName = '%s'"
      prof;
    Fmt.str
      "SELECT p.Email FROM Professor p, CourseInstructor ci WHERE p.PName = ci.PName AND \
       ci.CName = '%s'"
      course;
    Fmt.str
      "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c WHERE \
       p.PName = ci.PName AND ci.CName = c.CName AND c.Session = '%s' AND p.Rank = \
       'Assistant'"
      session;
    Fmt.str
      "SELECT c.CName, c.Type FROM Course c, CourseInstructor ci, ProfDept pd WHERE \
       c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = '%s'"
      dept;
    Fmt.str
      "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, ProfDept \
       pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName AND \
       pd.DName = '%s' AND c.Type = 'Undergraduate'"
      dept;
    Fmt.str
      "SELECT p.PName FROM Course c, CourseInstructor ci, Professor p, ProfDept pd WHERE \
       c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName AND pd.DName = \
       '%s' AND c.Session = '%s'"
      dept session;
  ]

let test_check_queries () =
  List.iter (check_sql university) check_university;
  List.iter (check_sql catalog) check_catalog

let test_paper_examples () = List.iter (check_sql university) [ sql_71; sql_72; sql_fig2 ]

let test_adhoc_shapes () = List.iter (check_sql university) (adhoc_shapes ())

(* Random conjunctive queries of one to four occurrences over a site's
   registry: each new occurrence joins an earlier one (on a shared
   attribute name when there is one), with occasional constant
   selections and attribute comparisons. *)
let random_query (site : site) st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let rels = List.filter (fun (r : View.relation) -> r.View.rel_attrs <> []) site.registry in
  let n = 1 + Random.State.int st 4 in
  let occs =
    List.init n (fun i ->
        let r = pick rels in
        (Fmt.str "x%d" i, r))
  in
  let attr (alias, (r : View.relation)) = alias ^ "." ^ pick r.View.rel_attrs in
  let joins =
    List.concat
      (List.mapi
         (fun i ((alias, (r : View.relation)) as occ) ->
           if i = 0 then []
           else
             let ((alias', (r' : View.relation)) as prev) = List.nth occs (Random.State.int st i) in
             match
               List.filter (fun a -> List.mem a r'.View.rel_attrs) r.View.rel_attrs
             with
             | [] -> [ Pred.eq_attrs (attr occ) (attr prev) ]
             | shared ->
               let a = pick shared in
               [ Pred.eq_attrs (alias ^ "." ^ a) (alias' ^ "." ^ a) ])
         occs)
  in
  let consts =
    List.init (Random.State.int st 3) (fun _ ->
        Pred.atom
          (Pred.Attr (attr (pick occs)))
          (pick [ Pred.Eq; Pred.Eq; Pred.Neq; Pred.Lt; Pred.Ge ])
          (Pred.Const
             (pick
                [
                  Adm.Value.text "Full"; Adm.Value.text "Computer Science";
                  Adm.Value.text "Audio"; Adm.Value.text "Fall"; Adm.Value.Int 100;
                ])))
  in
  let residuals =
    if n > 1 && Random.State.int st 4 = 0 then
      [ Pred.atom (Pred.Attr (attr (pick occs))) Pred.Lt (Pred.Attr (attr (pick occs))) ]
    else []
  in
  {
    Conjunctive.select = List.init (1 + Random.State.int st 2) (fun _ -> attr (pick occs));
    from = List.map (fun (alias, (r : View.relation)) -> Conjunctive.source ~alias r.View.rel_name) occs;
    where = joins @ consts @ residuals;
  }

let test_random_queries () =
  List.iter
    (fun site ->
      List.iter
        (fun seed ->
          let st = Random.State.make [| seed |] in
          for i = 1 to 4 do
            let q = random_query site st in
            check_same site
              (Fmt.str "seed %d query %d (%a)" seed i Conjunctive.pp q)
              q
          done)
        seeds)
    [ university; catalog; bibliography ]

(* ------------------------------------------------------------------ *)
(* W0401 says when a phase never ran                                  *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_w0401_unexplored () =
  let o =
    Planner.plan_sql university.schema (Lazy.force university.stats) university.registry
      sql_72
  in
  let w0401 =
    List.filter (fun d -> d.Diagnostic.code = "W0401") o.Planner.diagnostics
    |> List.map (fun d -> d.Diagnostic.message)
  in
  Alcotest.(check int) "one finding per capped phase" 2 (List.length w0401);
  let selection = List.hd w0401 in
  Alcotest.(check bool)
    (Fmt.str "selection phase names its seeds and the unapplied rule: %s" selection)
    true
    (contains_sub selection "selection phase"
    && contains_sub selection "its 508 seed plans already fill the cap"
    && contains_sub selection "the phase never applied rule 6");
  Alcotest.(check bool)
    "projection phase names rule 7" true
    (contains_sub (List.nth w0401 1) "the phase never applied rule 7")

(* ------------------------------------------------------------------ *)
(* Plan identity ≡ canonical form                                     *)
(* ------------------------------------------------------------------ *)

(* Every plan the join, selection and projection closures of a query
   produce, children before deduplication included; the selection and
   projection caps are raised so rules 6 and 7 run on Example 7.2 too. *)
let closure_plans site sql =
  let q = Sql_parser.parse site.registry sql in
  let schema = site.schema in
  let seeds =
    View.expand site.registry (Conjunctive.to_algebra q)
    |> List.map (Planner.fixpoint (Rewrite.rule4 schema))
  in
  let all = ref seeds in
  let on_rewrite ~parent:_ ~child = all := child :: !all in
  let joins, _ =
    Plan_oracle.closure ~cap:1500 ~on_rewrite
      [
        Rewrite.rule4 schema; Rewrite.join_commute schema; Rewrite.join_rotate schema;
        Rewrite.rule8 schema; Rewrite.rule9 schema; Rewrite.rule2 schema;
      ]
      seeds
  in
  let selections, _ =
    Plan_oracle.closure ~cap:5000 ~on_rewrite [ Rewrite.rule6 schema ] joins
  in
  let sunk = List.map (Rewrite.sink_selections schema) selections in
  let _ = Plan_oracle.closure ~cap:5000 ~on_rewrite [ Rewrite.rule7_replace schema ] sunk in
  sunk @ !all

let test_key_is_canonical () =
  List.iter
    (fun sql ->
      let plans = closure_plans university sql in
      let by_string = Hashtbl.create 256 and by_key = Nalg.Key_tbl.create 256 in
      List.iter
        (fun e ->
          let s = Nalg.canonical e and k = Nalg.key e in
          (match Hashtbl.find_opt by_string s with
          | Some k' ->
            if not (Nalg.identical k'.Nalg.plan e) then
              Alcotest.failf "same canonical form, different identity: %s" s
          | None -> Hashtbl.add by_string s k);
          match Nalg.Key_tbl.find_opt by_key k with
          | Some s' ->
            if not (String.equal s s') then
              Alcotest.failf "same identity, different canonical forms:@.%s@.%s" s s'
          | None -> Nalg.Key_tbl.add by_key k s)
        plans;
      Alcotest.(check int)
        (Fmt.str "as many identities as canonical forms (%d plans)" (List.length plans))
        (Hashtbl.length by_string) (Nalg.Key_tbl.length by_key))
    [ sql_71; sql_fig2; sql_72 ]

(* ------------------------------------------------------------------ *)
(* QCheck: canonical labeling partitions as the brute force does      *)
(* ------------------------------------------------------------------ *)

(* Random university queries, then variants that must share a key
   (FROM and WHERE reordered, atoms flipped, aliases renamed), their
   navigation expansions, and plans outside the labeled fragment. The
   shapes cover:
   - symmetric self-joins: [q] and [r] in the self-join shape are
     interchangeable, so their tie survives refinement;
   - cycles of comparisons [o0 < o1 < … < o0] over one relation:
     every occurrence of the cycle looks alike to colour refinement,
     but only the rotations are symmetries, so the labeling must try
     the orders of the tied cell to find the canonical one;
   - seven occurrences of one relation: 7! renumberings exceed
     [Contain.perm_cap], so the key falls back to the canonical form;
   - contradictory constants: unsatisfiable tableaux;
   - a [Call] above the plan: no tableau. *)
let uni_rels = [ "Professor"; "Course"; "CourseInstructor"; "ProfDept"; "Dept" ]

let attrs_of rel = (View.find_exn Sitegen.University.view rel).View.rel_attrs

let query_gen : Conjunctive.t QCheck.Gen.t =
 fun st ->
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let const () = Adm.Value.text (pick [ "Full"; "Fall"; "Computer Science"; "x" ]) in
  let self_join () =
    let rel = pick [ "Professor"; "Course"; "Dept" ] in
    let a = pick (attrs_of rel) and b = pick (attrs_of rel) in
    {
      Conjunctive.select = [ "p." ^ b ];
      from = List.map (fun alias -> Conjunctive.source ~alias rel) [ "p"; "q"; "r" ];
      where =
        [ Pred.eq_attrs ("p." ^ a) ("q." ^ a); Pred.eq_attrs ("p." ^ a) ("r." ^ a) ]
        @ (if Random.State.bool st then [ Pred.eq_const ("q." ^ b) (const ()) ] else [])
        @
        if Random.State.bool st then [ Pred.eq_const ("r." ^ b) (const ()) ] else [];
    }
  in
  let many () =
    let rel = pick [ "Professor"; "Dept" ] in
    let a = List.hd (attrs_of rel) in
    let aliases = List.init 7 (Fmt.str "o%d") in
    {
      Conjunctive.select = [ "o0." ^ a ];
      from = List.map (fun alias -> Conjunctive.source ~alias rel) aliases;
      where =
        (if Random.State.bool st then [ Pred.eq_attrs ("o0." ^ a) ("o1." ^ a) ] else []);
    }
  in
  let connected () =
    let n = 1 + Random.State.int st 4 in
    let occs = List.init n (fun i -> (Fmt.str "v%d" i, pick uni_rels)) in
    let attr (alias, rel) = alias ^ "." ^ pick (attrs_of rel) in
    let joins =
      List.concat
        (List.mapi
           (fun i occ ->
             if i = 0 then []
             else [ Pred.eq_attrs (attr occ) (attr (List.nth occs (Random.State.int st i))) ])
           occs)
    in
    let filters =
      List.init (Random.State.int st 3) (fun _ ->
          Pred.atom (Pred.Attr (attr (pick occs)))
            (pick [ Pred.Eq; Pred.Neq; Pred.Le; Pred.Gt ])
            (Pred.Const (const ())))
    in
    let residuals =
      if n > 1 && Random.State.bool st then
        [ Pred.atom (Pred.Attr (attr (pick occs))) (pick [ Pred.Lt; Pred.Neq ]) (Pred.Attr (attr (pick occs))) ]
      else []
    in
    {
      Conjunctive.select = List.init (1 + Random.State.int st 2) (fun _ -> attr (pick occs));
      from = List.map (fun (alias, rel) -> Conjunctive.source ~alias rel) occs;
      where = joins @ filters @ residuals;
    }
  in
  let cycle () =
    let rel = pick [ "Professor"; "Course" ] in
    let a = pick (attrs_of rel) in
    let k = 3 + Random.State.int st 3 in
    let aliases = List.init k (Fmt.str "c%d") in
    {
      Conjunctive.select = [ "d.DName" ];
      from =
        Conjunctive.source ~alias:"d" "Dept"
        :: List.map (fun alias -> Conjunctive.source ~alias rel) aliases;
      where =
        List.mapi
          (fun i alias ->
            Pred.atom
              (Pred.Attr (alias ^ "." ^ a))
              Pred.Lt
              (Pred.Attr (List.nth aliases ((i + 1) mod k) ^ "." ^ a)))
          aliases;
    }
  in
  let q =
    match Random.State.int st 9 with
    | 0 | 1 -> self_join ()
    | 2 -> many ()
    | 3 -> cycle ()
    | _ -> connected ()
  in
  if Random.State.int st 5 = 0 then
    (* an unsatisfiable variant: one term bound to two constants *)
    let a = List.hd q.Conjunctive.select in
    {
      q with
      Conjunctive.where =
        q.Conjunctive.where
        @ [ Pred.eq_const a (Adm.Value.text "Full"); Pred.eq_const a (Adm.Value.text "Fall") ];
    }
  else q

let shuffle st l =
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* The same query written differently: reordered FROM and WHERE,
   flipped atoms, every alias renamed. *)
let variant st (q : Conjunctive.t) =
  let aliases = List.map (fun (s : Conjunctive.source) -> s.Conjunctive.alias) q.Conjunctive.from in
  let fresh = List.combine aliases (shuffle st (List.mapi (fun i _ -> Fmt.str "w%d" i) aliases)) in
  let ren a =
    match String.index_opt a '.' with
    | Some i -> (
      match List.assoc_opt (String.sub a 0 i) fresh with
      | Some b -> b ^ String.sub a i (String.length a - i)
      | None -> a)
    | None -> a
  in
  let flip (a : Pred.atom) =
    if Random.State.bool st then
      let flipped = function
        | Pred.Eq -> Pred.Eq | Neq -> Neq | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
      in
      { Pred.left = a.Pred.right; cmp = flipped a.Pred.cmp; right = a.Pred.left }
    else a
  in
  {
    Conjunctive.select = List.map ren q.Conjunctive.select;
    from =
      shuffle st
        (List.map
           (fun (s : Conjunctive.source) ->
             { s with Conjunctive.alias = List.assoc s.Conjunctive.alias fresh })
           q.Conjunctive.from);
    where = shuffle st (List.map flip (Pred.map_attrs ren q.Conjunctive.where));
  }

let plans_of st q =
  let algebra = Conjunctive.to_algebra q in
  let expansions =
    if List.length q.Conjunctive.from > 4 then []
    else List.filteri (fun i _ -> i < 3) (View.expand Sitegen.University.view algebra)
  in
  let called =
    if Random.State.int st 4 = 0 then
      [
        Nalg.project q.Conjunctive.select
          (Nalg.call ~src:algebra "DeptPage" ~args:[ ("dept", Nalg.Arg_const "cs") ]);
      ]
    else []
  in
  (algebra :: expansions) @ called

let batch_gen : Nalg.expr list QCheck.Gen.t =
 fun st ->
  let q1 = query_gen st and q2 = query_gen st in
  plans_of st q1 @ plans_of st (variant st q1) @ plans_of st (variant st q1) @ plans_of st q2

let batch_arb =
  QCheck.make
    ~print:(fun plans -> String.concat "\n" (List.map Nalg.to_string plans))
    batch_gen

let prop_plan_key_partition seed =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make
       ~name:(Fmt.str "plan_key partitions as the brute force (seed %d)" seed)
       ~count:40 batch_arb (fun plans ->
         let keys = List.map (fun e -> (Contain.plan_key e, Plan_oracle.plan_key e)) plans in
         List.for_all
           (fun (n1, o1) ->
             List.for_all
               (fun (n2, o2) -> Bool.equal (String.equal n1 n2) (String.equal o1 o2))
               keys)
           keys))

(* Attribute splitting: longest alias prefix, as the list-surgery
   definition finds it. *)
let prop_split_attr =
  let word = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '@' ]) (int_bound 8)) in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 7 |])
    (QCheck.Test.make ~name:"split_attr = list-surgery split" ~count:500
       (QCheck.make
          ~print:QCheck.Print.(pair (list string) string)
          QCheck.Gen.(pair (list_size (int_bound 4) word) word))
       (fun (aliases, attr) ->
         Nalg.split_attr aliases attr = Plan_oracle.split_attr aliases attr))

(* The generator reaches every path of the key. *)
let test_generator_coverage () =
  let st = Random.State.make [| 7 |] in
  let plans = List.concat (List.init 60 (fun _ -> batch_gen st)) in
  let keys = List.map (fun e -> (e, Contain.plan_key e)) plans in
  let count p = List.length (List.filter p keys) in
  let prefix pre (_, k) = String.length k >= String.length pre && String.sub k 0 (String.length pre) = pre in
  let has_call (e, _) = Nalg.fold (fun acc n -> acc || match n with Nalg.Call _ -> true | _ -> false) false e in
  let fallback (e, k) = prefix "S:" (e, k) && (not (has_call (e, k))) && Contain.of_expr e <> None in
  Alcotest.(check bool) "labeled plans" true (count (prefix "T:") > 0);
  Alcotest.(check bool) "unsatisfiable plans" true (count (prefix "T:UNSAT:") > 0);
  Alcotest.(check bool) "perm_cap fallbacks" true (count fallback > 0);
  Alcotest.(check bool) "plans with a call" true (count has_call > 0)

let suite =
  ( "plan identity",
    [
      Alcotest.test_case "enumerate = oracle: make check queries" `Quick test_check_queries;
      Alcotest.test_case "enumerate = oracle: Examples 7.1/7.2, Figure 2" `Slow
        test_paper_examples;
      Alcotest.test_case "enumerate = oracle: ad hoc shapes" `Slow test_adhoc_shapes;
      Alcotest.test_case "enumerate = oracle: random queries, 3 sites (7/21/42)" `Slow
        test_random_queries;
      Alcotest.test_case "W0401 names the seeds that filled the cap" `Quick
        test_w0401_unexplored;
      Alcotest.test_case "plan identity partitions as the canonical form" `Slow
        test_key_is_canonical;
      Alcotest.test_case "key generator coverage" `Quick test_generator_coverage;
      prop_split_attr;
    ]
    @ List.map prop_plan_key_partition seeds )
