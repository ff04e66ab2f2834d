(* forms: queries over the form-only site, where every data page sits
   behind a parameterized entry point and no navigation-only plan
   exists. Each query is planned with the binding-pattern rewriting
   search as the planner's [~bindings] hook, over the site's three
   real forms plus synthetic decoy services ([Bindings.decoys]) that
   bring the registry to [registry_size] path views. The search
   dominates; execution takes well under a millisecond.

   One unit is a round of the five [Server.Workload.formsite_templates]
   shapes, in an order shuffled by the seed, each with a department
   constant stepping through a seeded permutation of the departments
   (as adhoc's constants do). Answers are checked against the
   generator's records. *)

open Webviews
module F = Sitegen.Formsite

let schema = F.schema
let registry = F.view
let registry_size = 100

type shape = {
  sql_of : string -> string;
  truth : F.t -> string -> string list list;  (** the answer for a department *)
}

let courses_of fs dept = List.filter (fun (c : F.course) -> c.F.c_dept = dept) (F.courses fs)

let phone fs name = (List.find (fun (p : F.prof) -> p.F.p_name = name) (F.profs fs)).F.phone

let shapes =
  [
    {
      sql_of = Printf.sprintf "SELECT C.CName, C.Title FROM Course C WHERE C.Dept = '%s'";
      truth = (fun fs d -> List.map (fun (c : F.course) -> [ c.F.c_name; c.F.c_title ]) (courses_of fs d));
    };
    {
      sql_of = Printf.sprintf "SELECT C.CName, C.Instructor FROM Course C WHERE C.Dept = '%s'";
      truth =
        (fun fs d -> List.map (fun (c : F.course) -> [ c.F.c_name; c.F.c_instructor ]) (courses_of fs d));
    };
    {
      sql_of = Printf.sprintf "SELECT C.Title FROM Course C WHERE C.Dept = '%s'";
      truth = (fun fs d -> List.map (fun (c : F.course) -> [ c.F.c_title ]) (courses_of fs d));
    };
    {
      sql_of = F.staff_query;
      truth = (fun fs d -> List.map (fun (n, o) -> [ n; o ]) (F.expected_staff fs ~dept:d));
    };
    {
      sql_of =
        Printf.sprintf
          "SELECT P.PName, P.Phone FROM Course C, Professor P WHERE C.Dept = '%s' \
           AND C.Instructor = P.PName";
      truth =
        (fun fs d ->
          List.map
            (fun (c : F.course) -> [ c.F.c_instructor; phone fs c.F.c_instructor ])
            (courses_of fs d));
    };
  ]

let text_rows r =
  let text v = match Adm.Value.as_text v with Some s -> s | None -> Adm.Value.to_string v in
  List.map (fun row -> Array.to_list (Array.map text row)) (Adm.Relation.rows_arrays r)

type setup = { fs : F.t; pipeline : Query.pipeline; config : Bindings.config }

let setup () =
  let fs, build = Common.time (fun () -> F.build ()) in
  let config, views =
    Common.time (fun () ->
        let real = List.length F.path_views in
        Bindings.add_views F.binding_config
          (Bindings.decoys ~hooks:[ "dept"; "course"; "prof" ] ~seed:registry_size
             ~n:(registry_size - real) ()))
  in
  let stats, stats_s = Common.time (fun () -> F.stats fs) in
  let pipeline =
    { Query.schema; registry; stats; site = F.site fs; bindings = Some (Bindings.planner_hook config schema) }
  in
  ({ fs; pipeline; config }, [ ("build", build); ("registry", views); ("stats", stats_s) ])

(* Round [k]: every shape once, in a seeded order, each with a
   department stepping through a seeded permutation (as adhoc's
   constants do). Each query text's (shape, department) goes to
   [asked], so its expected answer can be computed after the timed
   loop. *)
let round ~seed fs asked k =
  let depts = Array.of_list (F.depts fs) in
  List.mapi
    (fun i s ->
      let d = Wl_adhoc.picker ~seed ~shape:i ~round:k depts in
      let sql = s.sql_of d in
      Hashtbl.replace asked sql (s, d);
      sql)
    shapes
  |> Wl_adhoc.shuffle (Random.State.make [| seed; k |])

let exact_rounds = 8

let run (opts : Common.opts) : Common.result =
  let ctx, st = Common.repeated_setup ~reps:100 setup in
  let asked = Hashtbl.create 32 in
  let s =
    Query.run ~opts ~min_rounds:exact_rounds ctx.pipeline (round ~seed:opts.Common.seed ctx.fs asked)
  in
  (* correctness, outside the timed region: the generator's records *)
  let truth = Hashtbl.create 32 in
  Hashtbl.iter
    (fun sql (shape, d) -> Hashtbl.replace truth sql (List.sort_uniq compare (shape.truth ctx.fs d)))
    asked;
  let failed =
    List.length
      (List.filteri
         (fun i (_, (a : Query.answered)) ->
           let got = if opts.Common.corrupt && i = 0 then Common.damage a.Query.rows else a.Query.rows in
           List.sort_uniq compare (text_rows got) <> Hashtbl.find truth a.Query.sql)
         s.Query.all)
  in
  (* the search itself, called directly once per distinct traced query *)
  let searches =
    List.sort_uniq compare (List.map (fun (a : Query.answered) -> a.Query.sql) s.Query.traced)
    |> List.map (fun sql -> Bindings.search ctx.config schema (Sql_parser.parse registry sql))
  in
  let gets_per_query, wire_per_query = Query.exact s ~rounds:exact_rounds in
  let e2e, timing_env =
    Common.e2e s.Query.loop st ~latencies:(Query.latencies_ms s) ~gets_per_query ~wire_per_query
  in
  {
    Common.attempted = List.length s.Query.all + s.Query.raised;
    failed = failed + s.Query.raised;
    e2e;
    layer =
      [
        ("bindings.states",
          float_of_int (Common.sum_int (List.map (fun r -> r.Bindings.explored) searches)));
        ("bindings.truncated",
          float_of_int (List.length (List.filter (fun r -> r.Bindings.truncated) searches)));
      ]
      @ Query.layers ctx.pipeline s @ Common.setup_layers st;
    env =
      Query.site_env ctx.pipeline.Query.site
      @ [ ("path_views", string_of_int registry_size) ]
      @ timing_env;
  }
