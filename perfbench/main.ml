(* The end-to-end benchmark of the web-view query engine.

   main.exe --workload adhoc|serve|churn|forms --seed N --seconds S
            --trace 0|1 [--commit ID] [--trace-out FILE] [--corrupt]

   Untraced (--trace 0) the last line of standard output is one JSON
   object with the end-to-end metrics by name; traced (--trace 1) it
   carries the per-layer metrics instead, and the spans are written as
   Chrome trace-event JSON to --trace-out. The line before it stamps
   the environment. Metric units live in BENCHMARK.json only: run.py
   attaches them and checks the names against it. perfbench/README.md
   documents every metric. *)

let workloads =
  [
    ("adhoc", Wl_adhoc.run);
    ("serve", Wl_serve.run);
    ("churn", Wl_churn.run);
    ("forms", Wl_forms.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload adhoc|serve|churn|forms --seed N --seconds S --trace 0|1 \
     [--commit ID] [--trace-out FILE] [--corrupt]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let commit = ref "unknown" and trace_out = ref "" and corrupt = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | "--trace-out" :: v :: rest -> trace_out := v; parse rest
    | "--corrupt" :: rest -> corrupt := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let opts =
    { Common.seed = !seed; seconds = !seconds; trace = !trace = 1; corrupt = !corrupt }
  in
  let r = run opts in
  let env =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("commit", !commit);
      ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("domains", "1");
      ("trace", string_of_int !trace);
    ]
    @ r.Common.env
  in
  if opts.Common.trace && !trace_out <> "" then Trace.write_chrome ~path:!trace_out ~env;
  Printf.printf "{\"env\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Json.string k) (Json.string v)) env));
  let metrics =
    if opts.Common.trace then
      let env_number key =
        Option.fold ~none:[] ~some:(fun v -> [ ("env." ^ key, float_of_string v) ]) (List.assoc_opt key r.Common.env)
      in
      r.Common.layer
      @ [ ("check.failed_frac", float_of_int r.Common.failed /. float_of_int (max 1 r.Common.attempted)) ]
      @ env_number "site_pages" @ env_number "site_bytes"
    else r.Common.e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Common.failed = 0) r.Common.attempted r.Common.failed
    (String.concat ", "
       (List.map (fun (name, value) -> Printf.sprintf "%s: %s" (Json.string name) (Json.number value)) metrics))
