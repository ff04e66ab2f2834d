(* Shared machinery of the four workloads: options and results,
   timing, repeated set-up, the timed loop, percentiles, answer
   comparison, the instrumented page source, the wrapper/HTML probes and
   the per-layer metrics every workload reports the same way. *)

open Webviews

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;
      (** self-test: deliberately damage one answer before the oracle
          check, which must then report exactly one failure *)
}

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** end-to-end values by metric name *)
  layer : (string * float) list;  (** per-layer values by metric name *)
  env : (string * string) list;
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let r = p *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 0.5
let sum_int = List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Clock calibration                                                   *)
(* ------------------------------------------------------------------ *)

(* The cores of the 2-vCPU host this benchmark was built on change
   clock speed with other tenants' load: the same forms round ran at
   42 and at 69 queries/s a minute apart, which swamps the change a
   pull request makes. Every timed interval is therefore reported at a
   reference clock: multiplied by [kernel_ref / k], where [k] is the
   mean time of a fixed kernel run just before and just after the
   interval. The kernel is integer arithmetic with random reads and
   writes over a 2 MB array allocated once: it calls no code of the
   repository and does not allocate, so only the clock moves it. Over
   a minute of forms rounds the raw rate moved 1.6x while the
   calibrated rate stayed within 2%. [kernel_ref] is roughly the
   kernel's time at the fastest clock seen on that host, so calibrated
   times read close to raw times there. *)
let kernel_ref = 0.006
let kernel_words = 1 lsl 18
let kernel_buf = Array.make kernel_words 0

let kernel () =
  let t0 = now () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land (kernel_words - 1) in
    kernel_buf.(i) <- kernel_buf.(i) + 1;
    acc := !acc + kernel_buf.((i * 31) land (kernel_words - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* [calibrated_runs continue f] runs [f i] for i = 0, 1, ... while
   [continue i] holds, with the kernel between runs and [prepare ()]
   untimed before each; each run is returned with its raw seconds and
   its clock factor [kernel_ref / k]. *)
let calibrated_runs ?(prepare = ignore) continue f =
  let rec go i k_before acc =
    if not (continue i) then List.rev acc
    else begin
      prepare ();
      let v, dt = time (fun () -> f i) in
      let k_after = kernel () in
      go (i + 1) k_after ((v, dt, kernel_ref /. ((k_before +. k_after) /. 2.0)) :: acc)
    end
  in
  go 0 (kernel ()) []

(* ------------------------------------------------------------------ *)
(* Set-up: repeated, medians reported                                  *)
(* ------------------------------------------------------------------ *)

type setup_time = {
  setup_s : float;  (** median calibrated total *)
  setup_raw_s : float;  (** median raw total *)
  phases : (string * float) list;  (** median calibrated seconds per phase *)
}

(* Run [f] [reps] times; [f] returns its value and its named phase
   times in seconds. The result is the last value and the medians. Only
   the latest value is kept alive, and it is dropped before the next
   set-up, so set-ups do not pile up on the heap. The count is fixed,
   not time-bound, so the allocation history, and with it the GC's top
   heap, is the same on every run. *)
let repeated_setup ~reps f =
  let last = ref None in
  let runs =
    calibrated_runs
      ~prepare:(fun () ->
        last := None;
        Gc.full_major ())
      (fun i -> i < reps)
      (fun _ ->
        let v, phases = f () in
        last := Some v;
        phases)
  in
  match (!last, runs) with
  | None, _ | _, [] -> invalid_arg "repeated_setup"
  | Some v, (phases, _, _) :: _ ->
    let phase name =
      median
        (List.map (fun (ps, _, c) -> c *. Option.value ~default:0.0 (List.assoc_opt name ps)) runs)
    in
    ( v,
      {
        setup_s = median (List.map (fun (_, dt, c) -> dt *. c) runs);
        setup_raw_s = median (List.map (fun (_, dt, _) -> dt) runs);
        phases = List.map (fun (name, _) -> (name, phase name)) phases;
      } )

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

type loop_stats = {
  queries : int;
  qps : float;  (** median over untraced units of queries / calibrated unit time *)
  raw_qps : float;  (** the same over raw unit time *)
  traced_qps : float;  (** calibrated, over traced units *)
  clock : float array;  (** clock factor of each unit, by unit index *)
  minor_words : float;
  major_collections : int;
  top_heap_words : int;  (** after the first [min_units] units *)
}

(* Run [unit_fn ~index] (one workload unit; it returns the queries it
   answered), each after an untimed [prepare ()], until [seconds] have
   passed and at least [min_units] units ran. Throughput is the median over units, so a stall of the
   machine during one unit does not move it. In a traced run, units
   alternate between traced and untraced so both see the same machine;
   the ratio of their throughputs is the tracing overhead. The heap is
   read after the first [min_units] units, a fixed amount of work at a
   fixed seed, because the GC's top heap keeps growing with the number
   of units a run fits in. *)
let timed_loop ?prepare ~(opts : opts) ~min_units unit_fn =
  let t_start = now () in
  let gc0 = Gc.quick_stat () in
  let top_heap = ref 0 in
  let traced i = opts.trace && i mod 2 = 1 in
  let units =
    calibrated_runs ?prepare
      (fun i -> i < min_units || now () -. t_start < opts.seconds)
      (fun i ->
        Trace.enabled := traced i;
        let q = Trace.span "run" (fun () -> unit_fn ~index:i) in
        Trace.enabled := false;
        if i + 1 = min_units then top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
        q)
  in
  let gc1 = Gc.quick_stat () in
  let rates pick =
    median
      (List.concat
         (List.mapi (fun i (q, dt, c) -> if pick i then [ float_of_int q /. (dt *. c) ] else []) units))
  in
  {
    queries = sum_int (List.map (fun (q, _, _) -> q) units);
    qps = rates (fun i -> not (traced i));
    raw_qps =
      median
        (List.concat
           (List.mapi (fun i (q, dt, _) -> if traced i then [] else [ float_of_int q /. dt ]) units));
    traced_qps = rates traced;
    clock = Array.of_list (List.map (fun (_, _, c) -> c) units);
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = !top_heap;
  }

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

(* Same header and same set of rows. Plans the planner considers
   equivalent may differ in duplicate multiplicity, so rows are
   compared as sets, the projection semantics of the algebra. *)
let same_answer a b =
  Adm.Relation.equal (Adm.Relation.distinct a) (Adm.Relation.distinct b)

(* The self-test's deliberate damage: drop the last row, or add a
   fabricated one to an empty answer. *)
let damage r =
  let attrs = Adm.Relation.attrs r in
  match List.rev (Adm.Relation.rows_arrays r) with
  | _ :: rest -> Adm.Relation.of_arrays attrs (List.rev rest)
  | [] ->
    Adm.Relation.of_arrays attrs
      [ Array.of_list (List.map (fun _ -> Adm.Value.text "?") attrs) ]

(* Share of queries whose SQL text already occurred earlier in the
   list: what a plan cache keyed on SQL text could reuse. *)
let repeat_share sqls =
  let seen = Hashtbl.create 64 in
  let repeats =
    List.fold_left
      (fun n s ->
        if Hashtbl.mem seen s then n + 1
        else begin
          Hashtbl.replace seen s ();
          n
        end)
      0 sqls
  in
  match sqls with [] -> 0.0 | _ -> float_of_int repeats /. float_of_int (List.length sqls)

(* ------------------------------------------------------------------ *)
(* The instrumented page source and the parse probes                   *)
(* ------------------------------------------------------------------ *)

(* Pages a traced unit touched, as (scheme, url), for the wrapper and
   HTML probes. *)
type touched = (string * string, unit) Hashtbl.t

(* Wrap the source handed to the executor: every fetch and prefetch is
   a span of its own, and the touched pages are remembered. *)
let traced_source (touched : touched) (s : Eval.source) : Eval.source =
  {
    s with
    Eval.fetch =
      (fun ~scheme ~url ->
        Hashtbl.replace touched (scheme, url) ();
        Trace.span "source.fetch" (fun () -> s.Eval.fetch ~scheme ~url));
    prefetch =
      (fun ~scheme urls -> Trace.span "source.prefetch" (fun () -> s.Eval.prefetch ~scheme urls));
  }

type probe = { extract_s : float; parse_s : float; pages : int; bytes : int }

(* Re-extract (wrapper) and re-parse (HTML only) the bodies of the
   given pages, outside any timed loop: what the page layer costs for
   the pages a unit touched, and how much of it is the HTML parse. *)
let page_probe schema site (pages : (string * string) list) =
  let bodies =
    List.filter_map
      (fun (scheme, url) ->
        match Websim.Site.find site url with
        | Some p -> Some (Adm.Schema.find_scheme_exn schema scheme, url, p.Websim.Site.body)
        | None -> None)
      pages
  in
  let (), extract_s =
    time (fun () ->
        List.iter (fun (ps, url, body) -> ignore (Websim.Wrapper.extract ps ~url body)) bodies)
  in
  let (), parse_s = time (fun () -> List.iter (fun (_, _, body) -> ignore (Html.parse body)) bodies) in
  {
    extract_s;
    parse_s;
    pages = List.length bodies;
    bytes = sum_int (List.map (fun (_, _, b) -> String.length b) bodies);
  }

let probe_layers p =
  [
    ("wrapper.extract_ms", p.extract_s *. 1000.0);
    ("wrapper.pages", float_of_int p.pages);
    ( "wrapper.mb_per_s",
      if p.extract_s > 0.0 then float_of_int p.bytes /. 1e6 /. p.extract_s else 0.0 );
    ("html.parse_ms", p.parse_s *. 1000.0);
  ]

(* The page-access ledger of a unit, summed over queries. *)
type wire = { gets : int; heads : int; bytes : int; hits : int; misses : int }

let no_wire = { gets = 0; heads = 0; bytes = 0; hits = 0; misses = 0 }

let wire_of_report (r : Websim.Fetcher.report) =
  {
    gets = r.Websim.Fetcher.gets;
    heads = r.Websim.Fetcher.heads;
    bytes = r.Websim.Fetcher.bytes;
    hits = r.Websim.Fetcher.cache_hits;
    misses = r.Websim.Fetcher.cache_misses;
  }

let add_wire a b =
  {
    gets = a.gets + b.gets;
    heads = a.heads + b.heads;
    bytes = a.bytes + b.bytes;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
  }

let fetcher_layers w =
  [
    ("fetcher.gets", float_of_int w.gets);
    ("fetcher.heads", float_of_int w.heads);
    ("fetcher.bytes", float_of_int w.bytes);
    ("fetcher.cache_hits", float_of_int w.hits);
    ("fetcher.cache_misses", float_of_int w.misses);
  ]

(* Layers every traced loop reports the same way. *)
let loop_layers (ls : loop_stats) =
  let gross = Trace.total_ms "run" in
  [
    ("gc.minor_words_per_query", ls.minor_words /. float_of_int (max 1 ls.queries));
    ("gc.major_collections", float_of_int ls.major_collections);
    ("trace.overhead_ratio", if ls.traced_qps > 0.0 then ls.qps /. ls.traced_qps else 0.0);
    ("trace.unattributed_ms", Trace.self_ms "run");
    ("trace.unattributed_share", if gross > 0.0 then Trace.self_ms "run" /. gross else 0.0);
    ("trace.spans", float_of_int (Trace.spans ()));
    ("env.clock_factor", median (Array.to_list ls.clock));
  ]

let source_layers () =
  [
    ("source.fetch_ms", Trace.total_ms "source.fetch");
    ("source.prefetch_ms", Trace.total_ms "source.prefetch");
    ("source.calls", float_of_int (Trace.calls "source.fetch" + Trace.calls "source.prefetch"));
  ]

let setup_layers st =
  List.map (fun (name, s) -> ("setup." ^ name ^ "_ms", s *. 1000.0)) st.phases

(* End-to-end metrics, by the names BENCHMARK.json gives them, and the
   raw (uncalibrated) timings for the environment line. [latencies] are
   raw milliseconds tagged with the index of the unit that measured
   them. *)
let e2e ls st ~latencies ~gets_per_query ~wire_per_query =
  let calibrated = List.map (fun (i, ms) -> ms *. ls.clock.(i)) latencies in
  let raw = List.map snd latencies in
  ( [
      ("qps", ls.qps);
      ("latency_p50_ms", percentile 0.5 calibrated);
      ("latency_p95_ms", percentile 0.95 calibrated);
      ("gets_per_query", gets_per_query);
      ("wire_units_per_query", wire_per_query);
      ("setup_s", st.setup_s);
      ("peak_heap_mb", float_of_int (ls.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ],
    [
      ("clock_factor", Printf.sprintf "%.4f" (median (Array.to_list ls.clock)));
      ("raw_qps", Printf.sprintf "%.4f" ls.raw_qps);
      ("raw_latency_p50_ms", Printf.sprintf "%.4f" (percentile 0.5 raw));
      ("raw_latency_p95_ms", Printf.sprintf "%.4f" (percentile 0.95 raw));
      ("raw_setup_s", Printf.sprintf "%.6f" st.setup_raw_s);
      ("latency_samples", string_of_int (List.length latencies));
    ] )

(* Function 2's light-connection economics: HEAD = 1, GET = 10. *)
let wire_units w = float_of_int w.heads +. (10.0 *. float_of_int w.gets)
