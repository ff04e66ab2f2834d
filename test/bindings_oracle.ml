(* Differential oracle for the binding-pattern search: the breadth-first
   search over binding states as it ran before the search was
   goal-directed. It expands every registered path view from every
   state, whether or not the view can feed the query, so it is slow on
   registries padded with services the query cannot use, and at its
   state cap it can lose a chain the trimmed search finds. The tests
   check that {!Bindings.search} returns the same rewritings wherever
   this search does not truncate. *)

open Webviews

let search ?(max_states = 20_000) ?(max_results = 4) ?(max_calls = 8)
    (t : Bindings.config) (schema : Adm.Schema.t) (q : Conjunctive.t) :
    Bindings.search_report =
  match Bindings.read_query t q with
  | None -> { rewritings = []; explored = 0; truncated = false }
  | Some g ->
    if Bindings.seeds g = [] then { rewritings = []; explored = 0; truncated = false }
    else
      let init =
        {
          Bindings.bound =
            List.map (fun (n, v) -> (n, Bindings.OConst v)) (Bindings.seeds g);
          expr = None;
          taken = [];
          calls = 0;
        }
      in
      let seen = Hashtbl.create 256 in
      Hashtbl.replace seen (Bindings.signature init) ();
      let queue = Queue.create () in
      Queue.add init queue;
      let results = ref [] and explored = ref 0 and truncated = ref false in
      while
        (not (Queue.is_empty queue))
        && List.length !results < max_results
      do
        if !explored >= max_states then begin
          truncated := true;
          Queue.clear queue
        end
        else begin
          let st = Queue.pop queue in
          incr explored;
          (match Bindings.finish g st with
          | Some plan -> results := plan :: !results
          | None -> ());
          if st.Bindings.calls < max_calls then
            List.iter
              (fun pv ->
                match Bindings.apply schema st pv with
                | None -> ()
                | Some st' ->
                  let k = Bindings.signature st' in
                  if not (Hashtbl.mem seen k) then begin
                    Hashtbl.replace seen k ();
                    Queue.add st' queue
                  end)
              t.Bindings.views
        end
      done;
      { rewritings = List.rev !results; explored = !explored; truncated = !truncated }
