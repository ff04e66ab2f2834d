(* The single-client query stream shared by adhoc and forms: each
   query is parsed, planned, lowered and executed fresh, one at a time,
   on its own fetch engine, so the paper's cost (distinct page
   downloads) is per query. Each layer call is a span of its own. *)

open Webviews

type pipeline = {
  schema : Adm.Schema.t;
  registry : View.registry;
  stats : Stats.t;
  site : Websim.Site.t;
  bindings : (Conjunctive.t -> Nalg.expr list) option;
      (** the planner's binding-pattern hook, timed as [bindings] *)
}

type answered = {
  sql : string;
  rows : Adm.Relation.t;
  wire : Common.wire;
  latency : float;  (** seconds, parse to renamed result *)
  candidates : int;
  merged : int;
  truncations : int;  (** W0401 plan-space cap hits *)
  exec_metrics : Exec.metrics option;  (** [None]: no streaming form *)
}

(* The pipeline of [Planner.run], with the lowering made explicit. *)
let answer p touched sql =
  let t0 = Common.now () in
  let q = Trace.span "sql" (fun () -> Sql_parser.parse p.registry sql) in
  let bindings =
    Option.map (fun hook q -> Trace.span "bindings" (fun () -> hook q)) p.bindings
  in
  let outcome =
    Trace.span "planner" (fun () -> Planner.enumerate ?bindings p.schema p.stats p.registry q)
  in
  let fetcher = Websim.Fetcher.create (Websim.Http.connect p.site) in
  let source = Eval.fetcher_source p.schema fetcher in
  let source = if !Trace.enabled then Common.traced_source touched source else source in
  let expr = outcome.Planner.best.Planner.expr in
  let plan =
    Trace.span "lower" (fun () ->
        match Physplan.lower ~window:source.Eval.window p.schema expr with
        | plan -> Some plan
        | exception Physplan.Not_streamable _ -> None)
  in
  let rows, exec_metrics =
    Trace.span "exec" (fun () ->
        match plan with
        | Some plan ->
          let rows, m = Exec.run_metrics p.schema source plan in
          (rows, Some m)
        | None -> (Eval.eval_legacy p.schema source expr, None))
  in
  let rows = Planner.rename_output outcome rows in
  {
    sql;
    rows;
    wire = Common.wire_of_report (Websim.Fetcher.report fetcher);
    latency = Common.now () -. t0;
    candidates = List.length outcome.Planner.candidates;
    merged = outcome.Planner.merged;
    truncations =
      List.length
        (List.filter
           (fun (d : Diagnostic.t) -> d.Diagnostic.code = "W0401")
           outcome.Planner.diagnostics);
    exec_metrics;
  }

type stream = {
  all : (int * answered) list;  (** (round, answer) in order *)
  raised : int;  (** queries that raised instead of answering *)
  traced : answered list;
  loop : Common.loop_stats;
  touched : Common.touched;
}

(* Answer round after round of [round k] until the run's time is up,
   running at least [min_rounds]. *)
let run ~opts ~min_rounds p round =
  let all = ref [] and traced = ref [] and raised = ref 0 in
  let touched : Common.touched = Hashtbl.create 256 in
  let unit_fn ~index =
    let sqls = round index in
    List.iter
      (fun sql ->
        match answer p touched sql with
        | a ->
          all := (index, a) :: !all;
          if !Trace.enabled then traced := a :: !traced
        | exception e ->
          incr raised;
          prerr_endline (sql ^ ": " ^ Printexc.to_string e))
      sqls;
    List.length sqls
  in
  let loop = Common.timed_loop ~opts ~min_units:min_rounds unit_fn in
  { all = List.rev !all; raised = !raised; traced = !traced; loop; touched }

(* The exact page metrics over the first [rounds] rounds, which every
   run completes whatever the machine speed: identical at a fixed seed. *)
let exact s ~rounds =
  let exact = List.filter_map (fun (k, a) -> if k < rounds then Some a else None) s.all in
  let w = List.fold_left (fun w a -> Common.add_wire w a.wire) Common.no_wire exact in
  let n = float_of_int (List.length exact) in
  (float_of_int w.Common.gets /. n, Common.wire_units w /. n)

(* Raw latencies in ms, tagged with their round (the loop's unit). *)
let latencies_ms s = List.map (fun (k, a) -> (k, a.latency *. 1000.0)) s.all

let layers p s =
  let sum f = float_of_int (Common.sum_int (List.map f s.traced)) in
  let exec f = sum (fun a -> match a.exec_metrics with Some m -> f m | None -> 0) in
  let probe =
    Common.page_probe p.schema p.site (Hashtbl.fold (fun k () acc -> k :: acc) s.touched [])
  in
  [
    ("sql.parse_ms", Trace.total_ms "sql");
    ("sql.repeat_share", Common.repeat_share (List.map (fun (_, a) -> a.sql) s.all));
    ("planner.enumerate_ms", Trace.self_ms "planner");
    ("planner.candidates", sum (fun a -> a.candidates));
    ("planner.merged", sum (fun a -> a.merged));
    ("planner.truncations", sum (fun a -> a.truncations));
    ("bindings.search_ms", Trace.total_ms "bindings");
    ("lower.ms", Trace.total_ms "lower");
    ("exec.self_ms", Trace.self_ms "exec");
    ("exec.rows_out", exec (fun m -> m.Exec.result_rows));
    ( "exec.peak_resident_rows",
      float_of_int
        (List.fold_left
           (fun acc a ->
             match a.exec_metrics with Some m -> max acc (Exec.peak_resident_rows m) | None -> acc)
           0 s.traced) );
    ("exec.state_rows", exec (fun m -> m.Exec.state_rows));
    ("traced.queries", float_of_int (List.length s.traced));
  ]
  @ Common.fetcher_layers
      (List.fold_left (fun w a -> Common.add_wire w a.wire) Common.no_wire s.traced)
  @ Common.source_layers () @ Common.probe_layers probe @ Common.loop_layers s.loop

let site_env site =
  [
    ("site_pages", string_of_int (Websim.Site.page_count site));
    ("site_bytes", string_of_int (Websim.Site.total_bytes site));
  ]
