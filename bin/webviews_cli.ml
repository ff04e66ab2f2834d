(* Command-line interface: explore the generated sites, plan and run
   SQL queries over their relational views, and exercise materialized
   views.

     webviews scheme   [--site ...]
     webviews crawl    [--site ...]
     webviews plan     [--site ...] [--candidates N] "SELECT ..."
     webviews explain  [--site ...] [--physical] [--window N] "SELECT ..."
     webviews query    [--site ...] "SELECT ..."
     webviews run      [--site ...] [--faults R] [--latency] [--window N]
                       [--retries N] [--limit N] "SELECT ..."
     webviews serve    [--site ...] [--workload FILE | --queries N]
                       [--concurrency K] [--quantum N] [--policy rr|priority]
                       [--deadline MS] [--stale] [--faults R] [--latency]
                       [--churn RATE] [--budget U] [--max-age N] [--json]
     webviews churn    [--site ...] [--churn-rate R] [--budget U] [--max-age N]
                       [--maintenance incremental|full-refresh|none]
                       [--queries N] [--json] [--fail-on-violation]
     webviews matview  [--site ...] "SELECT ..."
     webviews check    [--site ...] [--strict] ["SELECT ..." ...]
     webviews analyze  [--site ...] [--format text|json] [--strict]
                       ["SELECT ..." ...]

   webviews --version prints the release. A query the SQL front end
   rejects (malformed, or naming an unknown relation or attribute)
   exits 2 with its diagnostics on stderr. *)

open Cmdliner
open Webviews

type site_kind = University | Bibliography | Catalog | Formsite

type loaded = {
  schema : Adm.Schema.t;
  registry : View.registry;
  site : Websim.Site.t;
  declared_stats : Stats.t option;
      (* form-only sites cannot be crawled: statistics are declared *)
  binding_config : Bindings.config option;
      (* path views + vocabulary of a form-only site: feeds the
         planner's [?bindings] hook and the E0111 lint *)
}

let load kind ~depts ~profs ~courses ~seed =
  let plain schema registry site =
    { schema; registry; site; declared_stats = None; binding_config = None }
  in
  match kind with
  | University ->
    let config =
      {
        Sitegen.University.default_config with
        n_depts = depts;
        n_profs = profs;
        n_courses = courses;
        seed;
      }
    in
    let uni = Sitegen.University.build ~config () in
    plain Sitegen.University.schema Sitegen.University.view
      (Sitegen.University.site uni)
  | Bibliography ->
    (* no hand-written view for this site: derive one automatically *)
    let bib = Sitegen.Bibliography.build () in
    plain Sitegen.Bibliography.schema
      (View.auto_registry Sitegen.Bibliography.schema)
      (Sitegen.Bibliography.site bib)
  | Catalog ->
    let cat = Sitegen.Catalog.build () in
    plain Sitegen.Catalog.schema Sitegen.Catalog.view (Sitegen.Catalog.site cat)
  | Formsite ->
    let config =
      {
        Sitegen.Formsite.seed;
        n_depts = depts;
        n_profs = profs;
        n_courses = courses;
      }
    in
    let fs = Sitegen.Formsite.build ~config () in
    {
      schema = Sitegen.Formsite.schema;
      registry = Sitegen.Formsite.view;
      site = Sitegen.Formsite.site fs;
      declared_stats = Some (Sitegen.Formsite.stats fs);
      binding_config = Some Sitegen.Formsite.binding_config;
    }

let stats_of loaded =
  match loaded.declared_stats with
  | Some stats -> stats
  | None ->
    let http = Websim.Http.connect loaded.site in
    Stats.of_instance (Websim.Crawler.crawl loaded.schema http)

(* The rewriting-search hook handed to the planner ([?bindings]), and
   the matching lint for [check]/[analyze]: E0111 when the vocabulary
   covers a query but no executable composition of forms answers it. *)
let bindings_of loaded =
  Option.map
    (fun c -> Bindings.planner_hook c loaded.schema)
    loaded.binding_config

let binding_lint loaded q =
  match loaded.binding_config with
  | None -> []
  | Some c -> Bindings.lint c loaded.schema q

(* Materialize the site (own connection) and put the registered views
   behind a view store, so the planner can price them as access
   paths. *)
let viewstore_of loaded =
  Viewstore.create loaded.schema loaded.registry
    (Matview.materialize loaded.schema (Websim.Http.connect loaded.site))

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let site_conv =
  let parse = function
    | "university" -> Ok University
    | "bibliography" -> Ok Bibliography
    | "catalog" -> Ok Catalog
    | "formsite" -> Ok Formsite
    | s ->
      Error
        (`Msg
          (Fmt.str "unknown site %S (university|bibliography|catalog|formsite)" s))
  in
  let print ppf = function
    | University -> Fmt.string ppf "university"
    | Bibliography -> Fmt.string ppf "bibliography"
    | Catalog -> Fmt.string ppf "catalog"
    | Formsite -> Fmt.string ppf "formsite"
  in
  Arg.conv (parse, print)

let site_arg =
  Arg.(value & opt site_conv University & info [ "s"; "site" ] ~docv:"SITE"
         ~doc:"Generated site to use: $(b,university), $(b,bibliography), \
               $(b,catalog), or $(b,formsite) (form-only: every data page \
               behind a parameterized entry point, answered through the \
               binding-pattern rewriting search).")

let depts_arg =
  Arg.(value & opt int 3 & info [ "depts" ] ~docv:"N" ~doc:"Number of departments.")

let profs_arg =
  Arg.(value & opt int 20 & info [ "profs" ] ~docv:"N" ~doc:"Number of professors.")

let courses_arg =
  Arg.(value & opt int 50 & info [ "courses" ] ~docv:"N" ~doc:"Number of courses.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let views_arg =
  Arg.(value & flag & info [ "views" ]
         ~doc:"Materialize the site's registered views first and offer them \
               to the planner as cost-priced access paths (HEAD=1 vs GET=10 \
               light-connection economics); a chosen substitution is \
               reported with its residual predicate and HEAD/GET split.")

let reject ds =
  List.iter (fun d -> Fmt.epr "%a@." Diagnostic.pp d) ds;
  exit 2

(* Front-end gate of the commands that plan one query: SQL the parser
   rejects ends the command with typed diagnostics on stderr — the
   query lint's E0308 (malformed SQL) or E03xx (unknown relation or
   attribute) — and exit code 2, never an uncaught parser exception.
   So does a query a form-only site cannot answer: the binding lint's
   E0111 names what no chain of forms can bind. *)
let front_end loaded sql =
  match Sql_parser.parse loaded.registry sql with
  | q -> (
    match Diagnostic.errors (binding_lint loaded q) with
    | [] -> ()
    | ds -> reject ds)
  | exception Sql_parser.Parse_error msg ->
    reject
      (match Diagnostic.errors (Typecheck.lint_sql loaded.schema loaded.registry sql) with
      | [] -> [ Diagnostic.error ~code:"E0308" "SQL parse error: %s" msg ]
      | ds -> ds)

(* Planning behind the front-end gate: a query the planner finds no
   computable plan for exits 2 with E0309 (as [check] reports it). *)
let planned f =
  match f () with
  | r -> r
  | exception Invalid_argument msg ->
    reject [ Diagnostic.error ~code:"E0309" "planning failed: %s" msg ]

let with_site f site depts profs courses seed =
  f (load site ~depts ~profs ~courses ~seed)

let site_args f =
  Term.(const (with_site f) $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let scheme_cmd =
  let run loaded = Fmt.pr "%a@." Adm.Schema.pp loaded.schema in
  Cmd.v (Cmd.info "scheme" ~doc:"Print the ADM web scheme of a site.") (site_args run)

let crawl_cmd =
  let run loaded =
    let http = Websim.Http.connect loaded.site in
    let instance = Websim.Crawler.crawl loaded.schema http in
    Fmt.pr "crawled %d pages (%a)@.@." instance.Websim.Crawler.fetched
      Websim.Http.pp_stats (Websim.Http.stats http);
    List.iter
      (fun (name, rel) -> Fmt.pr "  %-18s %4d pages@." name (Adm.Relation.cardinality rel))
      instance.Websim.Crawler.relations;
    (match Websim.Crawler.validate loaded.schema instance with
    | [] -> Fmt.pr "@.all link and inclusion constraints hold@."
    | errs ->
      Fmt.pr "@.%d constraint violations:@." (List.length errs);
      List.iter (Fmt.pr "  %s@.") errs);
    Fmt.pr "@.%a@." Stats.pp (Stats.of_instance instance)
  in
  Cmd.v
    (Cmd.info "crawl" ~doc:"Crawl a site, validate its constraints, print statistics.")
    (site_args run)

let plan_cmd =
  let run n dot sql loaded =
    if loaded.registry = [] then Fmt.epr "this site has no external view@."
    else begin
      front_end loaded sql;
      let stats = stats_of loaded in
      let outcome =
        planned (fun () ->
            Planner.plan_sql ?bindings:(bindings_of loaded) loaded.schema stats
              loaded.registry sql)
      in
      if dot then Fmt.pr "%s@." (Explain.to_dot outcome.Planner.best.Planner.expr)
      else begin
        Fmt.pr "%a@." Explain.pp_outcome outcome;
        List.iter
          (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
          outcome.Planner.diagnostics;
        List.iteri
          (fun i (p : Planner.plan) ->
            if i < n then
              Fmt.pr "@.--- candidate #%d, cost %.2f ---@.%a@." (i + 1) p.Planner.cost
                (Explain.pp_annotated loaded.schema stats)
                p.Planner.expr)
          outcome.Planner.candidates
      end
    end
  in
  let n_arg =
    Arg.(value & opt int 3 & info [ "candidates" ] ~docv:"N"
           ~doc:"How many candidate plans to display.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the best plan as a Graphviz digraph instead of text.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the optimizer's candidate navigation plans for a query: the \
          cheapest plan of each semantic class, from an exhaustive search of \
          the rewrite rules (no plan-space cap), cheapest first.")
    Term.(const (fun site depts profs courses seed n dot sql ->
              with_site (run n dot sql) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ n_arg
          $ dot_arg $ sql_arg)

let explain_cmd =
  let run physical window use_views sql loaded =
    front_end loaded sql;
    let stats = stats_of loaded in
    let vs = if use_views then Some (viewstore_of loaded) else None in
    let econ = Option.map Viewstore.econ vs in
    let outcome =
      planned (fun () ->
          Planner.plan_sql
            ?views:(Option.map Viewstore.context vs)
            ?bindings:(bindings_of loaded) loaded.schema stats loaded.registry sql)
    in
    let best = outcome.Planner.best.Planner.expr in
    Fmt.pr "%a@.@." Explain.pp_outcome outcome;
    if physical then begin
      let plan = Cost.lower ?views:econ ~window loaded.schema stats best in
      List.iter
        (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
        (Physplan.check loaded.schema ~parent:best plan);
      (* execute over the live site so the tree shows estimated vs
         actual rows and page accesses side by side *)
      let http = Websim.Http.connect loaded.site in
      let config = Websim.Fetcher.config ~window () in
      let fetcher = Websim.Fetcher.create ~config http in
      let source = Eval.fetcher_source loaded.schema fetcher in
      let _result, metrics =
        Exec.run_metrics
          ?views:(Option.map Viewstore.answerer vs)
          loaded.schema source plan
      in
      Fmt.pr "%a@." (Explain.pp_physical ~metrics ()) plan
    end
    else Fmt.pr "%a@." (Explain.pp_annotated ?views:econ loaded.schema stats) best
  in
  let physical_arg =
    Arg.(value & flag & info [ "physical" ]
           ~doc:"Lower the best plan to physical operators, execute it, and \
                 print the physical tree with estimated vs actual rows and \
                 page accesses per operator.")
  in
  let window_arg =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"N"
           ~doc:"Prefetch window of the streaming executor's navigations.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain the optimizer's chosen plan: the annotated logical tree by \
          default, or with $(b,--physical) the lowered physical operator tree \
          (fused filters, hash-join build sides, streaming navigations) with \
          per-operator estimated vs actual counters. With $(b,--views) \
          registered views compete as access paths and any substitution in \
          the winning plan is reported.")
    Term.(const (fun site depts profs courses seed physical window use_views sql ->
              with_site (run physical window use_views sql) site depts profs
                courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ physical_arg $ window_arg $ views_arg $ sql_arg)

let query_cmd =
  let run use_views sql loaded =
    front_end loaded sql;
    let stats = stats_of loaded in
    let vs = if use_views then Some (viewstore_of loaded) else None in
    let http = Websim.Http.connect loaded.site in
    let source = Eval.live_source loaded.schema http in
    let outcome, result =
      planned (fun () ->
          Planner.run
            ?views:(Option.map Viewstore.context vs)
            ?exec_views:(Option.map Viewstore.answerer vs)
            ?bindings:(bindings_of loaded) loaded.schema stats loaded.registry
            source sql)
    in
    Fmt.pr "%a@." Explain.pp_outcome outcome;
    Fmt.pr "plan (cost %.2f):@.%a@.@." outcome.Planner.best.Planner.cost Nalg.pp_plan
      outcome.Planner.best.Planner.expr;
    Fmt.pr "%a@.@." Adm.Relation.pp result;
    Fmt.pr "network: %a@." Websim.Http.pp_stats (Websim.Http.stats http);
    Option.iter
      (fun vs ->
        let store_http = Matview.fetcher (Viewstore.store vs) |> Websim.Fetcher.http in
        Fmt.pr "view store: %a@." Websim.Http.pp_stats (Websim.Http.stats store_http))
      vs
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Plan and execute a SQL query over the site's relational view. With \
          $(b,--views) the registered views are materialized first and \
          compete as access paths; a chosen view scan answers from the local \
          store after bounded HEAD revalidation.")
    Term.(const (fun site depts profs courses seed use_views sql ->
              with_site (run use_views sql) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ views_arg $ sql_arg)

let run_cmd =
  let run faults latency window retries net_seed limit sql loaded =
    front_end loaded sql;
    let stats = stats_of loaded in
    let http = Websim.Http.connect loaded.site in
    let netmodel =
      if faults > 0.0 || latency then
        Some
          (Websim.Netmodel.create
             (Websim.Netmodel.config ~seed:net_seed ~fault_rate:faults ()))
      else None
    in
    let config = Websim.Fetcher.config ~window ~retries () in
    let fetcher = Websim.Fetcher.create ~config ?netmodel http in
    let outcome =
      planned (fun () ->
          Planner.plan_sql ?bindings:(bindings_of loaded) loaded.schema stats
            loaded.registry sql)
    in
    let best = outcome.Planner.best.Planner.expr in
    Fmt.pr "plan (cost %.2f, predicted %.0f ms at window %d):@.%a@.@."
      outcome.Planner.best.Planner.cost
      (Cost.elapsed_estimate ~window loaded.schema stats best)
      window Nalg.pp_plan best;
    let report = Eval.eval_fetched ?limit loaded.schema fetcher best in
    Fmt.pr "%a@.@." Adm.Relation.pp (Planner.rename_output outcome report.Eval.result);
    Fmt.pr "%a@." Explain.pp_fetch_report report
  in
  let faults_arg =
    Arg.(value & opt float 0.0 & info [ "faults" ] ~docv:"RATE"
           ~doc:"Transient-failure probability per URL (0.0–1.0) of the \
                 simulated network; failures are retried with backoff.")
  in
  let latency_arg =
    Arg.(value & flag & info [ "latency" ]
           ~doc:"Simulate per-request latency even with no faults, so the \
                 elapsed-time report is meaningful.")
  in
  let window_arg =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"N"
           ~doc:"In-flight width of a navigation's fetch batch; 1 fetches \
                 sequentially.")
  in
  let retries_arg =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts after a failed exchange.")
  in
  let net_seed_arg =
    Arg.(value & opt int 42 & info [ "net-seed" ] ~docv:"SEED"
           ~doc:"Seed of the network model; every fault and latency draw \
                 replays deterministically from it.")
  in
  let limit_arg =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
           ~doc:"Stop after N result rows: the streaming executor's \
                 early-exit protocol stops fetching pages the truncated \
                 answer does not need.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Plan and execute a query through the resilient fetch engine: \
          batched fetch windows, retries with backoff, circuit breaker and \
          page cache, optionally over a simulated faulty network. Reports \
          both cost ledgers (page accesses and fetch-engine counters) and \
          the simulated elapsed time.")
    Term.(const (fun site depts profs courses seed faults latency window retries
                     net_seed limit sql ->
              with_site (run faults latency window retries net_seed limit sql)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ faults_arg
          $ latency_arg $ window_arg $ retries_arg $ net_seed_arg
          $ limit_arg $ sql_arg)

let matview_cmd =
  let run sql loaded =
    if loaded.declared_stats <> None then begin
      (* materialization crawls; a form-only site has nothing to crawl *)
      Fmt.epr "this site cannot be crawled (form-only); use query/run instead@.";
      exit 2
    end;
    front_end loaded sql;
    let stats = stats_of loaded in
    let http = Websim.Http.connect loaded.site in
    let mv = Matview.materialize loaded.schema http in
    Fmt.pr "materialized %d pages@.@." (Matview.total_pages mv);
    let outcome = planned (fun () -> Planner.plan_sql loaded.schema stats loaded.registry sql) in
    let report = Matview.query_counted mv outcome.Planner.best.Planner.expr in
    Fmt.pr "%a@.@." Adm.Relation.pp
      (Planner.rename_output outcome report.Matview.result);
    Fmt.pr "light connections: %d, downloads: %d, local hits: %d@."
      report.Matview.light_connections report.Matview.downloads
      report.Matview.local_hits
  in
  Cmd.v
    (Cmd.info "matview" ~doc:"Materialize the site and answer a query from the local view.")
    Term.(const (fun site depts profs courses seed sql ->
              with_site (run sql) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ sql_arg)

let navigations_cmd =
  let run loaded =
    List.iter
      (fun ps ->
        let name = Adm.Page_scheme.name ps in
        match View.infer_navigations loaded.schema ~scheme:name with
        | [] -> ()
        | navs ->
          Fmt.pr "@.%s:@." name;
          List.iter (fun nav -> Fmt.pr "  %a@." Nalg.pp nav) navs)
      (Adm.Schema.schemes loaded.schema)
  in
  Cmd.v
    (Cmd.info "navigations"
       ~doc:
         "Infer default navigations for every page-scheme from the web scheme's \
          entry points and inclusion constraints (the paper's Section 5 \
          suggestion).")
    (site_args run)

let discover_cmd =
  let run loaded =
    let http = Websim.Http.connect loaded.site in
    let instance = Websim.Crawler.crawl loaded.schema http in
    let audit = Discover.audit loaded.schema instance in
    let section title (items : string list) =
      Fmt.pr "@.%s (%d):@." title (List.length items);
      List.iter (Fmt.pr "  %s@.") items
    in
    let links = List.map (Fmt.str "%a" Adm.Constraints.pp_link_constraint) in
    let incls = List.map (Fmt.str "%a" Adm.Constraints.pp_inclusion) in
    section "confirmed link constraints" (links audit.Discover.confirmed_links);
    section "refuted link constraints" (links audit.Discover.refuted_links);
    section "candidate link constraints (hold but undeclared)"
      (links audit.Discover.candidate_links);
    section "confirmed inclusions" (incls audit.Discover.confirmed_inclusions);
    section "refuted inclusions" (incls audit.Discover.refuted_inclusions);
    section "candidate inclusions (hold but undeclared)"
      (incls audit.Discover.candidate_inclusions)
  in
  Cmd.v
    (Cmd.info "discover"
       ~doc:
         "Mine link and inclusion constraints from a crawl of the site and audit \
          them against the declared scheme (the reverse-engineering step the \
          paper assigns to WebSQL-style exploration).")
    (site_args run)

let strict_arg =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Exit 1 when only warning-severity diagnostics are reported \
               (errors always exit 2).")

let check_cmd =
  let run strict sqls loaded =
    let section title = function
      | [] -> Fmt.pr "%s: ok@." title
      | ds ->
        Fmt.pr "%s:@." title;
        List.iter
          (fun d -> Fmt.pr "  %a@." Diagnostic.pp d)
          (List.sort Diagnostic.compare ds)
    in
    let schema_diags = Diagnostic.dedup (Typecheck.lint_schema loaded.schema) in
    section "schema" schema_diags;
    let registry_diags =
      Diagnostic.dedup
        (Typecheck.lint_registry loaded.schema loaded.registry
        @ Viewmatch.registry_lint (Viewmatch.make loaded.registry))
    in
    section "view registry" registry_diags;
    (* crawl lazily: pure lint runs offline, planning needs stats *)
    let stats = lazy (stats_of loaded) in
    let query_diags =
      List.concat_map
        (fun sql ->
          let lint = Typecheck.lint_sql loaded.schema loaded.registry sql in
          let semantic, bindings_lint =
            if Diagnostic.has_errors lint || loaded.registry = [] then ([], [])
            else
              let q = Sql_parser.parse loaded.registry sql in
              let _, ds = Contain.analyze_query loaded.registry q in
              (ds, binding_lint loaded q)
          in
          let planner =
            if Diagnostic.has_errors lint || loaded.registry = [] then []
            else
              match
                Planner.plan_sql ?bindings:(bindings_of loaded)
                  loaded.schema (Lazy.force stats) loaded.registry sql
              with
              | outcome -> outcome.Planner.diagnostics
              | exception Invalid_argument msg ->
                [ Diagnostic.error ~code:"E0309" "planning failed: %s" msg ]
          in
          let ds = Diagnostic.dedup (lint @ semantic @ bindings_lint @ planner) in
          section (Fmt.str "query %S" sql) ds;
          ds)
        sqls
    in
    let all = schema_diags @ registry_diags @ query_diags in
    Fmt.pr "@.%s@." (Diagnostic.summary all);
    exit (Diagnostic.exit_code ~strict all)
  in
  let sqls_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"SQL"
           ~doc:"Queries to check (each also planned, with the \
                 rewrite-soundness check live).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the static analyzer: lint the site's web scheme and view \
          registry (including view-subsumption), check each given query \
          (including satisfiability and redundancy), and plan it with the \
          rewrite-soundness differential check enabled. Exits 2 on any \
          error-severity diagnostic, 1 with $(b,--strict) when only \
          warnings remain, else 0.")
    Term.(const (fun site depts profs courses seed strict sqls ->
              with_site (run strict sqls) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ strict_arg $ sqls_arg)

(* ------------------------------------------------------------------ *)
(* analyze: the semantic analyzer as a first-class subcommand          *)
(* ------------------------------------------------------------------ *)

module J = Json_emit

let json_of_diag (d : Diagnostic.t) =
  J.Obj
    [ "code", J.String d.Diagnostic.code;
      "severity", J.String (Fmt.str "%a" Diagnostic.pp_severity d.Diagnostic.severity);
      "message", J.String d.Diagnostic.message ]

let analyze_cmd =
  let run strict format use_views sqls loaded =
    let json = format = "json" in
    let index = Viewmatch.make loaded.registry in
    let registry_diags = Diagnostic.dedup (Viewmatch.registry_lint index) in
    let stats = lazy (stats_of loaded) in
    let vs = if use_views then Some (viewstore_of loaded) else None in
    (* per query: lint, minimize, semantic findings, then plan the
       minimized query to report candidate dedup (with --views, view
       access paths compete and substitutions are reported) *)
    let reports =
      List.map
        (fun sql ->
          let lint = Typecheck.lint_sql loaded.schema loaded.registry sql in
          if Diagnostic.has_errors lint || loaded.registry = [] then
            (sql, [], None, Diagnostic.dedup lint, None)
          else
            let q = Sql_parser.parse loaded.registry sql in
            let q_min, semantic = Contain.analyze_query loaded.registry q in
            (* binding-violation lint (E0111) participates in the
               per-query diagnostics and therefore in the exit-code
               accounting below: errors -> 2, JSON "errors" included *)
            let bindings_lint = binding_lint loaded q in
            let planned =
              match
                Planner.plan_sql
                  ?views:(Option.map Viewstore.context vs)
                  ?bindings:(bindings_of loaded) loaded.schema
                  (Lazy.force stats) loaded.registry sql
              with
              | outcome -> Some outcome
              | exception Invalid_argument _ -> None
            in
            let sources_before = List.length q.Conjunctive.from in
            let sources_after = List.length q_min.Conjunctive.from in
            ( sql,
              List.map (fun (s : Conjunctive.source) -> s.Conjunctive.rel)
                q.Conjunctive.from,
              Some (q_min, sources_before, sources_after),
              Diagnostic.dedup (lint @ semantic @ bindings_lint),
              planned ))
        sqls
    in
    (* dead-view lint: registered views no workload occurrence can
       ever use — not named, and sharing no filter-tree bucket with
       any named occurrence *)
    let workload_diags =
      List.concat_map (fun (_, occs, _, _, _) -> occs) reports
      |> List.sort_uniq String.compare
      |> List.filter_map (View.find loaded.registry)
      |> Viewmatch.workload_lint index
    in
    let all =
      registry_diags @ workload_diags
      @ List.concat_map (fun (_, _, _, ds, _) -> ds) reports
    in
    if json then begin
      let diags ds = J.List (List.map json_of_diag ds) in
      let query_json (sql, _, min_info, ds, planned) =
        let minimized =
          match min_info with
          | None -> []
          | Some (q_min, before, after) ->
            [ "minimized", J.String (Fmt.str "%a" Conjunctive.pp q_min);
              "sources_before", J.Int before; "sources_after", J.Int after ]
        in
        let substitution (s : Planner.substitution) =
          J.Obj
            [ "view", J.String s.Planner.sub_view; "occurrence", J.String s.Planner.sub_alias;
              "residual", J.String (Pred.to_string s.Planner.sub_residual);
              "heads", J.Fixed (1, s.Planner.sub_heads);
              "gets", J.Fixed (1, s.Planner.sub_gets) ]
        in
        let plan_part =
          match planned with
          | None -> []
          | Some (o : Planner.outcome) ->
            [ "candidates", J.Int (List.length o.Planner.candidates);
              "merged", J.Int o.Planner.merged;
              "best_cost", J.Fixed (2, o.Planner.best.Planner.cost);
              "substitutions", J.List (List.map substitution o.Planner.view_used) ]
        in
        J.Obj ((("sql", J.String sql) :: minimized) @ plan_part @ [ "diagnostics", diags ds ])
      in
      Fmt.pr "%s@."
        (J.compact
           (J.Obj
              [ "views", J.Int (Viewmatch.size index);
                "view_buckets", J.Int (Viewmatch.buckets index);
                "registry_diagnostics", diags registry_diags;
                "workload_diagnostics", diags workload_diags;
                "queries", J.List (List.map query_json reports);
                "errors", J.Int (List.length (Diagnostic.errors all));
                "warnings", J.Int (List.length (Diagnostic.warnings all)) ]))
    end
    else begin
      Fmt.pr "view registry: %d views in %d filter-tree buckets@."
        (Viewmatch.size index) (Viewmatch.buckets index);
      List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) registry_diags;
      List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) workload_diags;
      List.iter
        (fun (sql, _, min_info, ds, planned) ->
          Fmt.pr "@.query %S@." sql;
          (match min_info with
          | Some (q_min, before, after) when after < before ->
            Fmt.pr "  minimized (%d -> %d sources): %a@." before after
              Conjunctive.pp q_min
          | _ -> ());
          (match planned with
          | Some (o : Planner.outcome) ->
            Fmt.pr "  %d candidate plan(s), %d merged as equivalent, best cost %.2f@."
              (List.length o.Planner.candidates)
              o.Planner.merged o.Planner.best.Planner.cost;
            List.iter
              (fun (s : Planner.substitution) ->
                Fmt.pr "  occurrence %s answered from view %s (≈%.1f HEAD, ≈%.1f GET)@."
                  s.Planner.sub_alias s.Planner.sub_view s.Planner.sub_heads
                  s.Planner.sub_gets)
              o.Planner.view_used
          | None -> ());
          match ds with
          | [] -> Fmt.pr "  ok@."
          | ds ->
            List.iter
              (fun d -> Fmt.pr "  %a@." Diagnostic.pp d)
              (List.sort Diagnostic.compare ds))
        reports;
      Fmt.pr "@.%s@." (Diagnostic.summary all)
    end;
    exit (Diagnostic.exit_code ~strict all)
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", "text"); ("json", "json") ]) "text"
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let sqls_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"SQL"
           ~doc:"Queries to analyze.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the semantic query analyzer: view-subsumption lint over the \
          registry (via the filter-tree index), dead-view lint against the \
          given workload ($(b,W0606): views no query can ever use), then per \
          query satisfiability ($(b,E0601)), redundant-occurrence \
          minimization ($(b,W0602)), trivial answerability ($(b,W0604)), \
          binding-pattern violations on form-only sites ($(b,E0111): the \
          vocabulary covers the query but no executable composition of \
          parameterized entry points answers it), and \
          the planner's equivalence-keyed candidate deduplication. With \
          $(b,--views) registered views compete as access paths and chosen \
          substitutions are reported (JSON: per-query \
          $(b,substitutions)). Exits 2 on any error, 1 with $(b,--strict) \
          when only warnings remain, else 0.")
    Term.(const (fun site depts profs courses seed strict format use_views sqls ->
              with_site (run strict format use_views sqls) site depts profs
                courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ strict_arg $ format_arg $ views_arg $ sqls_arg)

(* ------------------------------------------------------------------ *)
(* churn: the live-churn runtime (mutations + maintenance + SLAs)      *)
(* ------------------------------------------------------------------ *)

let json_of_freshness = function
  | None -> J.Null
  | Some (f : Server.Sched.freshness) ->
    J.Obj
      [ "verdict", J.String (Server.Sched.verdict_to_string f.Server.Sched.verdict);
        "pages_served", J.Int f.Server.Sched.pages_served;
        "stale_served", J.Int f.Server.Sched.stale_served;
        "mean_staleness", J.Fixed (3, f.Server.Sched.mean_staleness);
        "max_staleness", J.Int f.Server.Sched.max_staleness;
        "checks_denied", J.Int f.Server.Sched.checks_denied;
        "pages_missing", J.Int f.Server.Sched.pages_missing ]

let json_of_result (r : Server.Sched.result) =
  let c = r.Server.Sched.completeness in
  J.Obj
    [ "qid", J.Int r.Server.Sched.qid; "label", J.String r.Server.Sched.label;
      "rows", J.Int (Adm.Relation.cardinality r.Server.Sched.rows);
      "complete", J.Bool c.Server.Sched.complete;
      "stale_pages", J.Int c.Server.Sched.stale_pages;
      "missing_pages", J.Int c.Server.Sched.missing_pages;
      "elapsed_ms", J.Fixed (3, r.Server.Sched.elapsed_ms);
      "freshness", json_of_freshness r.Server.Sched.freshness ]

let json_of_sched_report (r : Server.Sched.report) =
  J.Obj
    [ "makespan_ms", J.Fixed (3, r.Server.Sched.makespan_ms);
      "p50_ms", J.Fixed (3, r.Server.Sched.p50_ms);
      "p95_ms", J.Fixed (3, r.Server.Sched.p95_ms);
      "domains", J.Int r.Server.Sched.domains; "turns", J.Int r.Server.Sched.turns;
      "queries", J.List (List.map json_of_result r.Server.Sched.results) ]

let json_of_churn_report (r : Churn.Runtime.report) =
  let m = r.Churn.Runtime.maintenance and w = r.Churn.Runtime.wire in
  let counts name_of kvs = J.Obj (List.map (fun (k, n) -> (name_of k, J.Int n)) kvs) in
  J.Obj
    [ "policy", J.String (Churn.Runtime.policy_to_string r.Churn.Runtime.policy);
      "ticks", J.Int r.Churn.Runtime.ticks; "mutations", J.Int r.Churn.Runtime.mutations_total;
      "mutations_by_kind", counts Churn.Traffic.kind_to_string r.Churn.Runtime.mutations;
      "maintenance",
      J.Obj
        [ "slices", J.Int m.Churn.Maintain.slices; "heads", J.Int m.Churn.Maintain.heads;
          "gets_refreshed", J.Int m.Churn.Maintain.gets_refreshed;
          "validated", J.Int m.Churn.Maintain.validated; "gone", J.Int m.Churn.Maintain.gone;
          "purged", J.Int m.Churn.Maintain.purged; "swept", J.Int m.Churn.Maintain.swept;
          "denied", J.Int m.Churn.Maintain.denied ];
      "full_refreshes", J.Int r.Churn.Runtime.full_refreshes;
      "budget_spent", J.Fixed (1, r.Churn.Runtime.budget_spent);
      "budget_denied", J.Int r.Churn.Runtime.budget_denied;
      "verdicts", counts Fun.id r.Churn.Runtime.verdicts;
      "violations", J.Int r.Churn.Runtime.violations;
      "mean_staleness", J.Fixed (4, r.Churn.Runtime.mean_staleness);
      "p95_staleness", J.Fixed (2, r.Churn.Runtime.p95_staleness);
      "store_pages", J.Int r.Churn.Runtime.store_pages;
      "wire",
      J.Obj
        [ "gets", J.Int w.Websim.Fetcher.gets; "heads", J.Int w.Websim.Fetcher.heads;
          "bytes", J.Int w.Websim.Fetcher.bytes;
          "head_bytes", J.Int w.Websim.Fetcher.head_bytes ];
      "sched", json_of_sched_report r.Churn.Runtime.sched ]

let templates_for = function
  | University -> Server.Workload.university_templates
  | Bibliography -> Server.Workload.bibliography_templates
  | Catalog -> Server.Workload.catalog_templates
  | Formsite -> Server.Workload.formsite_templates

let run_churn ~rate ~churn_seed ~budget ~max_age ~maintenance ~query_check
    ~entries ~concurrency ~quantum ~domains ~json ~fail_on_violation loaded =
  if loaded.registry = [] then begin
    Fmt.epr "this site has no external view@.";
    exit 2
  end;
  let pool = if domains > 1 then Some (Server.Pool.create ~domains) else None in
  let cfg =
    Churn.Runtime.config
      ~profile:(Churn.Profile.make ~rate ())
      ~churn_seed
      ~sla:(Churn.Sla.create ~default_max_age:max_age ())
      ~budget_per_turn:budget ~policy:maintenance ~query_check ()
  in
  let stats = stats_of loaded in
  let http = Websim.Http.connect loaded.site in
  let sched = Server.Sched.config ~concurrency ~quantum ~domains () in
  let report =
    Churn.Runtime.run ~sched ?pool ?bindings:(bindings_of loaded) cfg
      loaded.schema stats loaded.registry http entries
  in
  Option.iter Server.Pool.shutdown pool;
  if json then Fmt.pr "%s@." (J.compact (json_of_churn_report report))
  else begin
    Fmt.pr "%d queries, concurrency %d, quantum %d, domains %d, churn %.3f/tick@.@."
      (List.length entries) concurrency quantum domains rate;
    Fmt.pr "%a@." Churn.Runtime.pp_report report
  end;
  if fail_on_violation && report.Churn.Runtime.violations > 0 then exit 3

let maintenance_conv =
  let parse s =
    match Churn.Runtime.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Fmt.str "unknown maintenance policy %S (incremental|full-refresh|none)" s))
  in
  let print ppf p = Fmt.string ppf (Churn.Runtime.policy_to_string p) in
  Arg.conv (parse, print)

let churn_cmd =
  let run rate churn_seed budget max_age maintenance no_query_check workload n
      wseed concurrency quantum domains json fail_on_violation site_kind loaded =
    let entries =
      match workload with
      | Some path -> Server.Workload.load path
      | None ->
        Server.Workload.generate ~templates:(templates_for site_kind) ~seed:wseed
          ~n ()
    in
    run_churn ~rate ~churn_seed ~budget ~max_age ~maintenance
      ~query_check:(not no_query_check) ~entries ~concurrency ~quantum ~domains
      ~json ~fail_on_violation loaded
  in
  let rate_arg =
    Arg.(value & opt float 0.05 & info [ "churn-rate" ] ~docv:"RATE"
           ~doc:"Expected site mutations per simulated clock tick (may be \
                 fractional; the generator carries the remainder \
                 deterministically).")
  in
  let churn_seed_arg =
    Arg.(value & opt int 42 & info [ "churn-seed" ] ~docv:"SEED"
           ~doc:"Seed of the mutation-traffic generator.")
  in
  let budget_arg =
    Arg.(value & opt float 8.0 & info [ "budget" ] ~docv:"UNITS"
           ~doc:"Wire budget per scheduler turn, in Function 2's cost model \
                 (HEAD = 1 unit, GET = 10).")
  in
  let max_age_arg =
    Arg.(value & opt int 100 & info [ "max-age" ] ~docv:"TICKS"
           ~doc:"Freshness SLA: the age (site-clock ticks) beyond which a \
                 served stale entry counts as a violation.")
  in
  let maintenance_arg =
    Arg.(value & opt maintenance_conv Churn.Runtime.Incremental
         & info [ "maintenance" ] ~docv:"POLICY"
             ~doc:"View maintenance policy: $(b,incremental) (continuous \
                   HEAD-revalidate / GET-refresh under the budget), \
                   $(b,full-refresh) (recrawl whenever the budget has accrued \
                   one), or $(b,none).")
  in
  let no_query_check_arg =
    Arg.(value & flag & info [ "no-query-check" ]
           ~doc:"Serve stored tuples without query-time freshness checks; \
                 only the maintenance lane keeps the store fresh.")
  in
  let workload_arg =
    Arg.(value & opt (some file) None & info [ "workload" ] ~docv:"FILE"
           ~doc:"Workload file (one SQL query per line).")
  in
  let n_arg =
    Arg.(value & opt int 24 & info [ "queries" ] ~docv:"N"
           ~doc:"Size of the generated workload (ignored with $(b,--workload)).")
  in
  let wseed_arg =
    Arg.(value & opt int 7 & info [ "workload-seed" ] ~docv:"SEED"
           ~doc:"Seed of the workload generator.")
  in
  let concurrency_arg =
    Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"K"
           ~doc:"Resident-query cap (admission control).")
  in
  let quantum_arg =
    Arg.(value & opt int 4 & info [ "quantum" ] ~docv:"N"
           ~doc:"Cursor steps one query runs per scheduler turn.")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Execution lanes; results are identical at every N.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let fail_arg =
    Arg.(value & flag & info [ "fail-on-violation" ]
           ~doc:"Exit 3 when any query's freshness SLA was violated \
                 (for CI smoke stages).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run a query workload over a live site: seeded mutation traffic \
          drives the site on the simulated clock while a maintenance lane \
          keeps the materialized store fresh under an explicit wire budget \
          (HEAD-revalidate vs GET-refresh, prioritized by staleness debt and \
          resident-plan relevance). Reports per-query freshness verdicts \
          (fresh / stale-within-SLA / violated) and answer-staleness \
          statistics.")
    Term.(const (fun site depts profs courses seed rate churn_seed budget
                     max_age maintenance no_query_check workload n wseed
                     concurrency quantum domains json fail_on_violation ->
              with_site
                (run rate churn_seed budget max_age maintenance no_query_check
                   workload n wseed concurrency quantum domains json
                   fail_on_violation site)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ rate_arg
          $ churn_seed_arg $ budget_arg $ max_age_arg $ maintenance_arg
          $ no_query_check_arg $ workload_arg $ n_arg $ wseed_arg
          $ concurrency_arg $ quantum_arg $ domains_arg $ json_arg $ fail_arg)

let serve_cmd =
  let run workload n wseed concurrency quantum policy deadline faults latency
      window retries net_seed use_stale max_resident domains churn churn_seed
      budget max_age json site_kind loaded =
    let entries =
      match workload with
      | Some path -> Server.Workload.load path
      | None ->
        Server.Workload.generate ~templates:(templates_for site_kind) ~seed:wseed
          ~n ()
    in
    let entries =
      match deadline with
      | None -> entries
      | Some _ ->
        List.map (fun (e : Server.Workload.entry) ->
            match e.Server.Workload.deadline_ms with
            | Some _ -> e
            | None -> { e with Server.Workload.deadline_ms = deadline })
          entries
    in
    if loaded.registry = [] then Fmt.epr "this site has no external view@."
    else
      match churn with
      | Some rate ->
        (* live-churn serving: the store-backed runtime takes over the
           page sourcing and per-query freshness verdicts land in the
           results (the frozen-site path's netmodel/stale options do
           not apply here) *)
        run_churn ~rate ~churn_seed ~budget ~max_age
          ~maintenance:Churn.Runtime.Incremental ~query_check:true ~entries
          ~concurrency ~quantum ~domains ~json ~fail_on_violation:false loaded
      | None ->
    begin
      let stats = stats_of loaded in
      let specs =
        Server.Sched.plan_workload ?bindings:(bindings_of loaded) loaded.schema
          stats loaded.registry entries
      in
      let netmodel =
        (* deadlines are measured on the simulated clock, which only
           advances under a netmodel: enable one whenever they matter *)
        if faults > 0.0 || latency || deadline <> None then
          Some
            (Websim.Netmodel.create
               (Websim.Netmodel.config ~seed:net_seed ~fault_rate:faults ()))
        else None
      in
      let pool =
        if domains > 1 then Some (Server.Pool.create ~domains) else None
      in
      let cache =
        Server.Shared_cache.create ?pool
          ~config:(Websim.Fetcher.config ~window ~retries ~cache_capacity:8192 ())
          ?netmodel
          (Websim.Http.connect loaded.site)
      in
      let stale =
        if use_stale then
          Some (Matview.materialize loaded.schema (Websim.Http.connect loaded.site))
        else None
      in
      let config =
        Server.Sched.config ~concurrency ~quantum ~policy
          ~max_resident_rows:max_resident ~domains ()
      in
      let report = Server.Sched.run ?stale config cache loaded.schema specs in
      Option.iter Server.Pool.shutdown pool;
      if json then Fmt.pr "%s@." (J.compact (json_of_sched_report report))
      else begin
        Fmt.pr "%d queries, concurrency %d, quantum %d, domains %d@.@."
          (List.length specs) concurrency quantum domains;
        Fmt.pr "%a@." Server.Sched.pp_report report
      end
    end
  in
  let workload_arg =
    Arg.(value & opt (some file) None & info [ "workload" ] ~docv:"FILE"
           ~doc:"Workload file: one SQL query per line, blank lines and \
                 $(b,#) comments skipped, optional $(b,PRIO|) priority \
                 prefix. Without it a seeded workload is generated from the \
                 site's template pool.")
  in
  let n_arg =
    Arg.(value & opt int 8 & info [ "queries" ] ~docv:"N"
           ~doc:"Size of the generated workload (ignored with $(b,--workload)).")
  in
  let wseed_arg =
    Arg.(value & opt int 7 & info [ "workload-seed" ] ~docv:"SEED"
           ~doc:"Seed of the workload generator.")
  in
  let concurrency_arg =
    Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"K"
           ~doc:"Resident-query cap (admission control).")
  in
  let quantum_arg =
    Arg.(value & opt int 4 & info [ "quantum" ] ~docv:"N"
           ~doc:"Cursor steps one query runs per scheduler turn.")
  in
  let policy_conv =
    let parse = function
      | "rr" | "round-robin" -> Ok Server.Sched.Round_robin
      | "priority" -> Ok Server.Sched.Priority
      | s -> Error (`Msg (Fmt.str "unknown policy %S (rr|priority)" s))
    in
    let print ppf = function
      | Server.Sched.Round_robin -> Fmt.string ppf "rr"
      | Server.Sched.Priority -> Fmt.string ppf "priority"
    in
    Arg.conv (parse, print)
  in
  let policy_arg =
    Arg.(value & opt policy_conv Server.Sched.Round_robin
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Scheduling policy: $(b,rr) or $(b,priority).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS"
           ~doc:"Per-query budget of simulated milliseconds. A query past it \
                 returns its partial rows with a completeness report instead \
                 of failing. Implies a latency model.")
  in
  let faults_arg =
    Arg.(value & opt float 0.0 & info [ "faults" ] ~docv:"RATE"
           ~doc:"Transient-failure probability per URL of the simulated \
                 network shared by all queries.")
  in
  let latency_arg =
    Arg.(value & flag & info [ "latency" ]
           ~doc:"Simulate per-request latency so makespan and fairness \
                 percentiles are meaningful.")
  in
  let window_arg =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"N"
           ~doc:"In-flight width of a navigation's fetch batch.")
  in
  let retries_arg =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts after a failed exchange.")
  in
  let net_seed_arg =
    Arg.(value & opt int 42 & info [ "net-seed" ] ~docv:"SEED"
           ~doc:"Seed of the network model.")
  in
  let stale_arg =
    Arg.(value & flag & info [ "stale" ]
           ~doc:"Materialize the site first and serve stale stored tuples \
                 when a page is unreachable (graceful degradation).")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Execution lanes of the modelled multicore server: each \
                 quantum's fetch time is charged to the earliest-frontier \
                 lane (a query's own chain stays sequential) and makespan \
                 is the largest lane frontier. Results are byte-identical \
                 at every N; prefetched windows extract in parallel on a \
                 pool of N domains.")
  in
  let max_resident_arg =
    Arg.(value & opt int 100_000 & info [ "max-resident" ] ~docv:"ROWS"
           ~doc:"Stop admitting queries while resident ones buffer more \
                 rows than this.")
  in
  let churn_arg =
    Arg.(value & opt (some float) None & info [ "churn" ] ~docv:"RATE"
           ~doc:"Serve over a live site mutating at RATE changes per tick: \
                 queries answer from an incrementally maintained store and \
                 each result carries a freshness verdict.")
  in
  let churn_seed_arg =
    Arg.(value & opt int 42 & info [ "churn-seed" ] ~docv:"SEED"
           ~doc:"Seed of the mutation-traffic generator (with $(b,--churn)).")
  in
  let budget_arg =
    Arg.(value & opt float 8.0 & info [ "budget" ] ~docv:"UNITS"
           ~doc:"Wire budget per turn for freshness work (with $(b,--churn)).")
  in
  let max_age_arg =
    Arg.(value & opt int 100 & info [ "max-age" ] ~docv:"TICKS"
           ~doc:"Freshness SLA age threshold (with $(b,--churn)).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as JSON (per-query completeness and \
                 freshness verdicts included).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a workload of queries concurrently: a deterministic cooperative \
          scheduler interleaves their cursors in batch-sized quanta over one \
          shared page cache, so overlapping navigations hit the network once. \
          Reports per-query results and completeness, the cross-query \
          coalescing ledger, makespan and fairness percentiles. With \
          $(b,--churn) the site mutates while being served and every result \
          carries a freshness verdict.")
    Term.(const (fun site depts profs courses seed workload n wseed concurrency
                     quantum policy deadline faults latency window retries
                     net_seed use_stale max_resident domains churn churn_seed
                     budget max_age json ->
              with_site
                (run workload n wseed concurrency quantum policy deadline faults
                   latency window retries net_seed use_stale max_resident domains
                   churn churn_seed budget max_age json site)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ workload_arg $ n_arg $ wseed_arg $ concurrency_arg $ quantum_arg
          $ policy_arg $ deadline_arg $ faults_arg $ latency_arg $ window_arg
          $ retries_arg $ net_seed_arg $ stale_arg $ max_resident_arg
          $ domains_arg $ churn_arg $ churn_seed_arg $ budget_arg $ max_age_arg
          $ json_arg)

let main_cmd =
  let doc = "Efficient queries over web views (EDBT 1998 reproduction)" in
  Cmd.group (Cmd.info "webviews" ~doc ~version:"0.8.0")
    [
      scheme_cmd; crawl_cmd; plan_cmd; explain_cmd; query_cmd; run_cmd;
      serve_cmd; churn_cmd; matview_cmd; navigations_cmd; discover_cmd;
      check_cmd; analyze_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
