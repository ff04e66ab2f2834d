(* In-memory span recorder for the traced benchmark run.

   [span layer f] times [f] when tracing is on and is a plain call
   otherwise. Spans nest: each frame accumulates the time its child
   spans cover, so a layer's self time is its span time minus the
   intervals of the spans opened inside it (the planner minus the
   binding-pattern hook, the executor minus its page-source calls).
   Spans are single-threaded and strictly nested, so the covered
   intervals never overlap and their sum is exact.

   Totals are kept per layer for every span; the individual events are
   also kept, up to [max_events], and written at exit as Chrome
   trace-event JSON (load it in chrome://tracing or Perfetto). *)

type acc = { mutable total : float; mutable self : float; mutable calls : int }

type frame = { layer : string; start : float; mutable child : float }

type event = { ev_layer : string; ev_start : float; ev_dur : float; ev_depth : int }

let enabled = ref false
let layers : (string, acc) Hashtbl.t = Hashtbl.create 16
let stack : frame list ref = ref []
let events : event list ref = ref []
let n_events = ref 0
let dropped = ref 0
let max_events = 100_000
let origin = Unix.gettimeofday ()

let acc_of layer =
  match Hashtbl.find_opt layers layer with
  | Some a -> a
  | None ->
    let a = { total = 0.0; self = 0.0; calls = 0 } in
    Hashtbl.replace layers layer a;
    a

let finish fr =
  let stop = Unix.gettimeofday () in
  let d = stop -. fr.start in
  (match !stack with
  | _ :: (parent :: _ as rest) ->
    parent.child <- parent.child +. d;
    stack := rest
  | _ :: [] | [] -> stack := []);
  let a = acc_of fr.layer in
  a.total <- a.total +. d;
  a.self <- a.self +. (d -. fr.child);
  a.calls <- a.calls + 1;
  if !n_events < max_events then begin
    events :=
      { ev_layer = fr.layer; ev_start = fr.start; ev_dur = d;
        ev_depth = List.length !stack }
      :: !events;
    incr n_events
  end
  else incr dropped

let span layer f =
  if not !enabled then f ()
  else begin
    let fr = { layer; start = Unix.gettimeofday (); child = 0.0 } in
    stack := fr :: !stack;
    match f () with
    | v ->
      finish fr;
      v
    | exception e ->
      finish fr;
      raise e
  end

let self_ms layer =
  match Hashtbl.find_opt layers layer with Some a -> a.self *. 1000.0 | None -> 0.0

let total_ms layer =
  match Hashtbl.find_opt layers layer with Some a -> a.total *. 1000.0 | None -> 0.0

let calls layer =
  match Hashtbl.find_opt layers layer with Some a -> a.calls | None -> 0

let spans () = !n_events + !dropped

(* Chrome trace-event format: complete events ("ph":"X") in
   microseconds since the process started, plus the run's environment
   as metadata. *)
let write_chrome ~path ~(env : (string * string) list) =
  let oc = open_out path in
  output_string oc "{\"otherData\":{";
  List.iteri
    (fun i (k, v) -> Printf.fprintf oc "%s%s:%s" (if i = 0 then "" else ",") (Json.string k) (Json.string v))
    env;
  Printf.fprintf oc "},\"droppedEvents\":%d,\"traceEvents\":[" !dropped;
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1,\"args\":{\"depth\":%d}}"
        (if i = 0 then "" else ",")
        e.ev_layer e.ev_layer
        ((e.ev_start -. origin) *. 1e6)
        (e.ev_dur *. 1e6) e.ev_depth)
    (List.rev !events);
  output_string oc "\n]}\n";
  close_out oc
