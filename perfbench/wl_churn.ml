(* churn: reads beside writes. [Churn.Runtime.run] under the
   incremental policy answers a 2,000-query workload from its
   materialized store over a 198-page university site that mutates at
   0.3 edits per tick in bursts, with a fixed wire budget of 32 units
   per turn for freshness checks and maintenance. Edits invalidate
   stored tuples and force HEAD revalidation and re-extraction, so a
   read-side gain that costs freshness or wire shows here.

   One unit is one whole runtime run on a freshly generated site (the
   run mutates it); the site is generated before the unit, untimed.
   The unit's real time includes the runtime's own store
   materialization and workload planning. The runtime exposes no
   per-query hook, so both latency metrics are the run's real time per
   query, their median and 95th percentile over the units. *)

open Webviews
module U = Sitegen.University

let schema = U.schema
let registry = U.view

let site_config =
  { U.default_config with U.n_depts = 4; n_profs = 60; n_courses = 126; n_sessions = 4 }

let n_queries = 2_000
let budget = 32.0

type setup = {
  stats : Stats.t;
  pages : (string * string) list;  (** (scheme, url) of the pristine site *)
  site_pages : int;
  site_bytes : int;
}

let setup () =
  let uni, build = Common.time (fun () -> U.build ~config:site_config ()) in
  let site = U.site uni in
  let instance, crawl =
    Common.time (fun () -> Websim.Crawler.crawl schema (Websim.Http.connect site))
  in
  let stats, stats_s = Common.time (fun () -> Stats.of_instance instance) in
  let pages =
    Hashtbl.fold (fun url scheme acc -> (scheme, url) :: acc) instance.Websim.Crawler.scheme_of_url []
  in
  ( { stats; pages; site_pages = Websim.Site.page_count site; site_bytes = Websim.Site.total_bytes site },
    [ ("build", build); ("crawl", crawl); ("stats", stats_s) ] )

(* The mutation stream is part of the site, fixed like its shape: which
   pages churn moves the wire cost per query several-fold (from 1.3 to
   7.4 GETs across churn seeds 1-5), while the workload seed, which
   picks the queries, barely moves it. *)
let config =
  Churn.Runtime.config ~profile:Churn.Profile.high ~churn_seed:1 ~budget_per_turn:budget
    ~policy:Churn.Runtime.Incremental ()

(* Everything a run must reproduce exactly at a fixed seed: wire GETs
   and HEADs, staleness, verdicts, mutations, rows per query. *)
type replay = int * int * float * (string * int) list * int * int list

let digest (r : Churn.Runtime.report) : replay =
  ( r.Churn.Runtime.wire.Websim.Fetcher.gets,
    r.Churn.Runtime.wire.Websim.Fetcher.heads,
    r.Churn.Runtime.mean_staleness,
    r.Churn.Runtime.verdicts,
    r.Churn.Runtime.mutations_total,
    List.map
      (fun (res : Server.Sched.result) -> Adm.Relation.cardinality res.Server.Sched.rows)
      r.Churn.Runtime.sched.Server.Sched.results )

(* The per-layer numbers of one run, taken at once so the report (and
   its 2,000 results) is not kept alive. *)
let run_layers (r : Churn.Runtime.report) =
  let m = r.Churn.Runtime.maintenance and sched = r.Churn.Runtime.sched in
  let ledger = sched.Server.Sched.ledger in
  [
    ( "exec.rows_out",
      float_of_int
        (Common.sum_int
           (List.map
              (fun (res : Server.Sched.result) -> Adm.Relation.cardinality res.Server.Sched.rows)
              sched.Server.Sched.results)) );
    ("shared_cache.sharing_ratio", ledger.Server.Shared_cache.sharing_ratio);
    ("shared_cache.cross_query_hits", float_of_int ledger.Server.Shared_cache.cross_query_hits);
    ("sched.turns", float_of_int sched.Server.Sched.turns);
    ("sched.peak_resident_rows", float_of_int sched.Server.Sched.peak_resident_rows);
    ("sched.sim_makespan_ms", sched.Server.Sched.makespan_ms);
    ("churn.maint_heads", float_of_int m.Churn.Maintain.heads);
    ("churn.maint_gets", float_of_int m.Churn.Maintain.gets_refreshed);
    ("churn.validated", float_of_int m.Churn.Maintain.validated);
    ("churn.denied", float_of_int r.Churn.Runtime.budget_denied);
    ("churn.mutations", float_of_int r.Churn.Runtime.mutations_total);
    ("churn.budget_spent", r.Churn.Runtime.budget_spent);
    ("churn.mean_staleness", r.Churn.Runtime.mean_staleness);
    ("churn.violations", float_of_int r.Churn.Runtime.violations);
  ]
  @ Common.fetcher_layers (Common.wire_of_report r.Churn.Runtime.wire)

type summary = { traced : bool; violations : int; digest : replay; dt : float }

let run (opts : Common.opts) : Common.result =
  let ctx, st = Common.repeated_setup ~reps:30 setup in
  let workload = Server.Workload.generate ~seed:opts.Common.seed ~n:n_queries () in
  let first = ref None and runs = ref [] and http = ref None in
  let prepare () = http := Some (Websim.Http.connect (U.site (U.build ~config:site_config ()))) in
  let unit_fn ~index:_ =
    let http = Option.get !http in
    let r, dt =
      Common.time (fun () ->
          Trace.span "churn" (fun () ->
              Churn.Runtime.run config schema ctx.stats registry http workload))
    in
    if !first = None then first := Some (Common.wire_of_report r.Churn.Runtime.wire, run_layers r);
    runs :=
      { traced = !Trace.enabled; violations = r.Churn.Runtime.violations; digest = digest r; dt }
      :: !runs;
    List.length r.Churn.Runtime.sched.Server.Sched.results
  in
  let ls = Common.timed_loop ~prepare ~opts ~min_units:2 unit_fn in
  let runs =
    match List.rev !runs with
    | u :: rest when opts.Common.corrupt -> { u with violations = u.violations + 1 } :: rest
    | runs -> runs
  in
  let wire, first_layers = Option.get !first in
  (* correctness: the runtime's freshness verdicts; every run must
     also replay the first exactly. The self-test damages the first
     run's verdicts with one extra violation. *)
  let failed =
    Common.sum_int
        (List.map
           (fun u ->
             u.violations + if u.digest = (List.hd runs).digest then 0 else n_queries)
           runs)
  in
  let per_query_ms =
    List.concat
      (List.mapi
         (fun i u -> if u.traced then [] else [ (i, u.dt *. 1000.0 /. float_of_int n_queries) ])
         runs)
  in
  let nq = float_of_int n_queries in
  let traced_runs = List.length (List.filter (fun u -> u.traced) runs) in
  let probe = Common.page_probe schema (U.site (U.build ~config:site_config ())) ctx.pages in
  let layer =
    [
      ("sql.repeat_share",
        Common.repeat_share (List.map (fun (e : Server.Workload.entry) -> e.Server.Workload.sql) workload));
      ("churn.self_ms", Trace.self_ms "churn");
      ("traced.queries", float_of_int (traced_runs * n_queries));
    ]
    @ first_layers @ Common.probe_layers probe @ Common.loop_layers ls
    @ Common.setup_layers st
  in
  let e2e, timing_env =
    Common.e2e ls st ~latencies:per_query_ms
      ~gets_per_query:(float_of_int wire.Common.gets /. nq)
      ~wire_per_query:(Common.wire_units wire /. nq)
  in
  {
    Common.attempted = List.length runs * n_queries;
    failed;
    e2e;
    layer;
    env =
      [ ("site_pages", string_of_int ctx.site_pages); ("site_bytes", string_of_int ctx.site_bytes) ]
      @ timing_env;
  }
