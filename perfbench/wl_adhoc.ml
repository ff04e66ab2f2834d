(* adhoc: ad hoc queries over the paper-sized university site
   (Example 7.2's 3 departments, 20 professors, 50 courses), each
   answered fresh through the {!Query} pipeline. The planner does almost
   all the CPU work.

   One unit is a round of the fourteen query shapes below, in an order
   shuffled by the seed, each with constants drawn by the seed from the
   generator's ground truth. Shapes span one to four occurrences and
   include Example 7.1, Example 7.2 and Figure 2. A round keeps the
   shape mix identical across seeds, so throughput moves with the code
   and not with the draw. *)

open Webviews
module U = Sitegen.University

let schema = U.schema
let registry = U.view

(* A shape renders one query; [pick] chooses each of its constants. *)
type shape = (string array -> string) -> U.t -> string
let depts uni = Array.of_list (List.map (fun (d : U.dept) -> d.U.d_name) (U.depts uni))
let profs uni = Array.of_list (List.map (fun (p : U.prof) -> p.U.p_name) (U.profs uni))
let courses uni = Array.of_list (List.map (fun (c : U.course) -> c.U.c_name) (U.courses uni))
let sessions uni = Array.of_list (U.sessions uni)
let ranks = [| "Full"; "Associate"; "Assistant" |]
let types = [| "Graduate"; "Undergraduate" |]

let shapes : shape list =
  [
    (fun pick uni ->
      Printf.sprintf "SELECT p.Email, p.Rank FROM Professor p WHERE p.PName = '%s'"
        (pick (profs uni)));
    (fun pick _ ->
      Printf.sprintf "SELECT %s FROM Professor p WHERE p.Rank = '%s'"
        (pick [| "p.PName, p.Email"; "p.PName"; "p.Email" |])
        (pick ranks));
    (fun pick uni ->
      Printf.sprintf "SELECT %s FROM Dept d WHERE d.DName = '%s'"
        (pick [| "d.Address"; "d.DName, d.Address" |])
        (pick (depts uni)));
    (fun pick uni ->
      Printf.sprintf "SELECT c.Description, c.Type FROM Course c WHERE c.CName = '%s'"
        (pick (courses uni)));
    (fun pick uni ->
      Printf.sprintf
        "SELECT c.CName, c.Description FROM Course c WHERE c.Session = '%s' AND c.Type = '%s'"
        (pick (sessions uni)) (pick types));
    (fun pick uni ->
      Printf.sprintf "SELECT ci.CName FROM CourseInstructor ci WHERE ci.PName = '%s'"
        (pick (profs uni)));
    (fun pick uni ->
      Printf.sprintf
        "SELECT p.PName, p.Email FROM Professor p, ProfDept d WHERE p.PName = d.PName \
         AND d.DName = '%s' AND p.Rank = '%s'"
        (pick (depts uni)) (pick ranks));
    (fun pick uni ->
      Printf.sprintf
        "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci \
         WHERE c.CName = ci.CName AND c.Session = '%s'"
        (pick (sessions uni)));
    (fun pick uni ->
      Printf.sprintf
        "SELECT c.Session, c.Type FROM Course c, CourseInstructor ci \
         WHERE c.CName = ci.CName AND ci.PName = '%s'"
        (pick (profs uni)));
    (fun pick uni ->
      Printf.sprintf
        "SELECT p.Email FROM Professor p, CourseInstructor ci \
         WHERE p.PName = ci.PName AND ci.CName = '%s'"
        (pick (courses uni)));
    (* Example 7.1 *)
    (fun pick uni ->
      Printf.sprintf
        "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
         WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = '%s' \
         AND p.Rank = '%s'"
        (pick (sessions uni)) (pick ranks));
    (* Figure 2 *)
    (fun pick uni ->
      Printf.sprintf
        "SELECT %s FROM Course c, CourseInstructor ci, ProfDept pd \
         WHERE c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = '%s'"
        (pick [| "c.CName, c.Description"; "c.CName"; "c.CName, c.Type" |])
        (pick (depts uni)));
    (* Example 7.2 *)
    (fun pick uni ->
      Printf.sprintf
        "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
         ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND \
         p.PName = pd.PName AND pd.DName = '%s' AND c.Type = '%s'"
        (pick (depts uni)) (pick types));
    (fun pick uni ->
      Printf.sprintf
        "SELECT p.PName FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
         WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
         AND pd.DName = '%s' AND c.Session = '%s'"
        (pick (depts uni)) (pick (sessions uni)));
  ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Constants step through a seeded permutation of their domain, one
   step per round, in mixed radix over a shape's constants: every seed
   sees each value equally often (the page metrics then barely depend
   on the draw) and consecutive rounds give distinct combinations. *)
let picker ~seed ~shape ~round =
  let slot = ref 0 and stride = ref 1 in
  fun a ->
    incr slot;
    let n = Array.length a in
    let perm = Array.of_list (shuffle (Random.State.make [| seed; shape; !slot |]) (List.init n Fun.id)) in
    let v = a.(perm.(round / !stride mod n)) in
    stride := !stride * n;
    v

(* The k-th round of the query stream: a pure function of (seed, k). *)
let round ~seed uni k =
  List.mapi (fun i shape -> shape (picker ~seed ~shape:i ~round:k) uni) shapes
  |> shuffle (Random.State.make [| seed; k |])

type setup = { uni : U.t; instance : Websim.Crawler.instance; pipeline : Query.pipeline }

let setup () =
  let uni, build = Common.time (fun () -> U.build ()) in
  let site = U.site uni in
  let instance, crawl =
    Common.time (fun () -> Websim.Crawler.crawl schema (Websim.Http.connect site))
  in
  let stats, stats_s = Common.time (fun () -> Stats.of_instance instance) in
  ( { uni; instance; pipeline = { Query.schema; registry; stats; site; bindings = None } },
    [ ("build", build); ("crawl", crawl); ("stats", stats_s) ] )

(* The oracle: the legacy relation-at-a-time evaluator over the crawled
   instance, running the plan the planner picks with rules 2/6/8/9 and
   minimization switched off. *)
let oracle ctx sql =
  let o =
    Planner.plan_sql ~pointer_rules:false ~constraint_selections:false ~minimize:false schema
      ctx.pipeline.Query.stats registry sql
  in
  Planner.rename_output o
    (Eval.eval_legacy schema (Eval.instance_source ctx.instance) o.Planner.best.Planner.expr)

let exact_rounds = 10

let run (opts : Common.opts) : Common.result =
  let ctx, st = Common.repeated_setup ~reps:50 setup in
  let s = Query.run ~opts ~min_rounds:exact_rounds ctx.pipeline (round ~seed:opts.Common.seed ctx.uni) in
  (* correctness, outside the timed region; a repeated text reuses its
     oracle answer *)
  let expected = Hashtbl.create 64 in
  let failed =
    List.length
      (List.filteri
         (fun i (_, (a : Query.answered)) ->
           let want =
             match Hashtbl.find_opt expected a.Query.sql with
             | Some r -> r
             | None ->
               let r = oracle ctx a.Query.sql in
               Hashtbl.replace expected a.Query.sql r;
               r
           in
           let got = if opts.Common.corrupt && i = 0 then Common.damage a.Query.rows else a.Query.rows in
           not (Common.same_answer got want))
         s.Query.all)
  in
  let gets_per_query, wire_per_query = Query.exact s ~rounds:exact_rounds in
  let e2e, timing_env =
    Common.e2e s.Query.loop st ~latencies:(Query.latencies_ms s) ~gets_per_query ~wire_per_query
  in
  {
    Common.attempted = List.length s.Query.all + s.Query.raised;
    failed = failed + s.Query.raised;
    e2e;
    layer = Query.layers ctx.pipeline s @ Common.setup_layers st;
    env = Query.site_env ctx.pipeline.Query.site @ timing_env;
  }
