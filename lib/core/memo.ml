(* The plan memo of Algorithm 1: equivalence classes of plans under
   join reordering, over hash-consed NALG nodes.

   The page-access cost model charges a join nothing and multiplies
   cardinalities, so every ordering of the same multi-way join — the
   same inputs, the same key equalities — costs the same, and
   [Contain.plan_key] gives them one key. A saturating closure that
   treats each ordering as a plan of its own spends most of its time
   on such duplicates. The memo instead stores one canonical member
   per class:

   - a {e join cluster} is a maximal region of Join nodes: its inputs
     are the non-Join subtrees below it, its edges the key pairs;
   - the canonical member sorts the (canonical) inputs by weight
     (the planner's: estimated page accesses), then identity, and joins
     them left-deep, each next input the lowest-numbered one joined to
     the inputs already placed, the keys of a step being every edge
     between the two sides;
   - every node the canonicalizer builds is interned, so identical
     subtrees of all classes are one physical node.

   Join commutation and rotation are therefore not rules any more:
   they are the class itself. The rules that fire at a join (2, 4, 8,
   9) fire at every join node some ordering of a cluster has — a pair
   of disjoint connected input sets joined by at least one edge
   ([join_rewrites]) — and their results are re-canonicalized on
   insertion, which is where equivalence is decided. *)

open Nalg

type site = expr * (expr -> expr)

(* Hash-consing: a node whose children are interned is equal to an
   interned node exactly when its own fields are equal and its
   children are physically the same, so lookups never walk a subtree. *)
module Node = Hashtbl.Make (struct
  type t = expr

  let equal a b =
    match a, b with
    | Entry x, Entry y -> String.equal x.scheme y.scheme && String.equal x.alias y.alias
    | External x, External y -> String.equal x.name y.name && String.equal x.alias y.alias
    | Select (p, a1), Select (q, b1) -> a1 == b1 && List.equal Pred.atom_equal p q
    | Project (x, a1), Project (y, b1) -> a1 == b1 && List.equal String.equal x y
    | Join (k1, a1, a2), Join (k2, b1, b2) ->
      a1 == b1 && a2 == b2
      && List.equal (fun (a, b) (c, d) -> String.equal a c && String.equal b d) k1 k2
    | Unnest (a1, x), Unnest (b1, y) -> a1 == b1 && String.equal x y
    | Follow f, Follow g ->
      f.src == g.src && String.equal f.link g.link && String.equal f.scheme g.scheme
      && String.equal f.alias g.alias
    | Call c, Call d ->
      Option.equal ( == ) c.c_src d.c_src
      && String.equal c.c_scheme d.c_scheme
      && String.equal c.c_alias d.c_alias && c.c_args = d.c_args
    | ( ( Entry _ | External _ | Select _ | Project _ | Join _ | Unnest _ | Follow _
        | Call _ ),
        _ ) -> false

  let hash = Hashtbl.hash
end)

(* Physical identity: interned nodes and canonical members. *)
module Phys = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type link = string * Adm.Constraints.path * string * string

type t = {
  weight : expr -> float; (* orders a cluster's inputs, lightest first *)
  nodes : (expr * int) Node.t;
      (* interned node -> itself and a hash of its whole subtree *)
  links : link list Phys.t; (* interned node -> its available links *)
  classes : key Phys.t; (* canonical member -> its identity key *)
  mutable expressions : int; (* rule results offered for insertion *)
}

let create ~weight () =
  {
    weight;
    nodes = Node.create 16;
    links = Phys.create 16;
    classes = Phys.create 16;
    expressions = 0;
  }
let groups m = Phys.length m.classes
let expressions m = m.expressions

let mix acc h = ((acc * 31) + h) land max_int

(* The subtree hash of a node whose children are interned, from their
   subtree hashes: it orders a cluster's inputs canonically. *)
let subtree_hash m e =
  let h c = snd (Node.find m.nodes c) in
  match e with
  | Entry _ | External _ -> Hashtbl.hash e
  | Select (p, c) -> mix (mix 7 (Hashtbl.hash p)) (h c)
  | Project (attrs, c) -> mix (mix 11 (Hashtbl.hash attrs)) (h c)
  | Join (keys, a, b) -> mix (mix (mix 13 (Hashtbl.hash keys)) (h a)) (h b)
  | Unnest (c, a) -> mix (mix 17 (Hashtbl.hash a)) (h c)
  | Follow { src; link; scheme; alias } ->
    mix (mix 19 (Hashtbl.hash (link, scheme, alias))) (h src)
  | Call { c_src; c_scheme; c_alias; c_args } ->
    let local = mix 23 (Hashtbl.hash (c_scheme, c_alias, c_args)) in
    (match c_src with None -> local | Some c -> mix local (h c))

(* The interned node equal to [e], whose children must be interned. *)
let intern m e =
  match Node.find_opt m.nodes e with
  | Some (e', _) -> e'
  | None ->
    Node.add m.nodes e (e, subtree_hash m e);
    e

let hash_of m e = snd (Node.find m.nodes e)

(* {!Rewrite.available_links}, once per interned node. A join's links
   are its sides' (aliases are unique and undotted, so an attribute
   resolves within the side that produces it); a node built around a
   rule's hole is not interned and is read directly. *)
let rec links m schema e =
  match e with
  | Join (_, a, b) -> links m schema a @ links m schema b
  | _ -> (
    match Phys.find_opt m.links e with
    | Some l -> l
    | None ->
      let l = Rewrite.available_links schema e in
      (match Node.find_opt m.nodes e with
      | Some (e', _) when e' == e -> Phys.add m.links e l
      | _ -> ());
      l)

(* ------------------------------------------------------------------ *)
(* Join clusters                                                       *)
(* ------------------------------------------------------------------ *)

type cluster = {
  inputs : expr array; (* canonical, in canonical order *)
  edges : (int * int * string * string) list;
      (* (i, j, a, b): key a of input i equals key b of input j, i <> j *)
  stray : (string * string) list;
      (* key pairs not spanning two inputs (an ill-typed plan); kept on
         the top join so the typechecker still sees them *)
}

(* Every alias an input introduces, view scans included. *)
let input_aliases e =
  fold
    (fun acc n ->
      match n with
      | Entry { alias; _ } | External { alias; _ } | Follow { alias; _ } -> alias :: acc
      | Call { c_alias; _ } -> c_alias :: acc
      | Select _ | Project _ | Join _ | Unnest _ -> acc)
    [] e

let rec flatten e (inputs, keys) =
  match e with
  | Join (ks, e1, e2) -> flatten e2 (flatten e1 (inputs, ks @ keys))
  | e -> (e :: inputs, keys)

(* [inputs] interned; sorts them by weight, then subtree hash, then
   printed form, and resolves every key pair to the two inputs it
   joins. *)
let make_cluster m inputs keys =
  let compare_inputs (a, wa, ha) (b, wb, hb) =
    if a == b then 0
    else
      match Float.compare wa wb with
      | 0 -> (
        match Int.compare ha hb with
        | 0 -> String.compare (canonical a) (canonical b)
        | c -> c)
      | c -> c
  in
  let inputs =
    List.map (fun e -> (e, m.weight e, hash_of m e)) inputs
    |> List.sort compare_inputs
    |> List.map (fun (e, _, _) -> e)
    |> Array.of_list
  in
  (* input sets are bit sets of an int *)
  if Array.length inputs >= Sys.int_size then
    invalid_arg "Memo: a join of more inputs than an int has bits";
  let aliases = Array.map input_aliases inputs in
  let owner attr =
    let rec go i =
      if i = Array.length inputs then None
      else
        match split_attr aliases.(i) attr with
        | Some _ -> Some i
        | None -> go (i + 1)
    in
    go 0
  in
  let edges, stray =
    List.partition_map
      (fun (a, b) ->
        match owner a, owner b with
        | Some i, Some j when i <> j -> Either.Left (i, j, a, b)
        | _ -> Either.Right (a, b))
      keys
  in
  { inputs; edges; stray }

let bit i = 1 lsl i

(* The key pairs between the input set [set] and the input set [other],
   oriented (set side, other side), in a canonical order. *)
let keys_between c set other =
  List.filter_map
    (fun (i, j, a, b) ->
      if set land bit i <> 0 && other land bit j <> 0 then Some (a, b)
      else if set land bit j <> 0 && other land bit i <> 0 then Some (b, a)
      else None)
    c.edges
  |> List.sort compare

let adjacent c set i =
  List.exists
    (fun (x, y, _, _) ->
      (set land bit x <> 0 && y = i) || (set land bit y <> 0 && x = i))
    c.edges

let lowest mask =
  let rec go i = if mask land bit i <> 0 then i else go (i + 1) in
  go 0

(* Grow [tree] (covering the inputs [set]) over the inputs [todo], one
   at a time: the lowest-numbered input joined to the set, or failing
   that (a Cartesian product) the lowest-numbered one. [node] builds
   each join: interned for canonical members, plain around a rule's
   hole. *)
let grow ~node c ~set ~tree todo =
  let rec go set tree todo =
    if todo = 0 then tree
    else
      let rec pick i =
        if i = Array.length c.inputs then lowest todo
        else if todo land bit i <> 0 && adjacent c set i then i
        else pick (i + 1)
      in
      let i = pick 0 in
      let tree = node (Join (keys_between c set (bit i), tree, c.inputs.(i))) in
      go (set lor bit i) tree (todo land lnot (bit i))
  in
  go set tree todo

let build ~node c mask =
  let i = lowest mask in
  grow ~node c ~set:(bit i) ~tree:c.inputs.(i) (mask land lnot (bit i))

let full c = bit (Array.length c.inputs) - 1

(* The stray pairs ride on the top join. *)
let with_stray ~node c e =
  match c.stray, e with
  | [], _ -> e
  | stray, Join (keys, e1, e2) -> node (Join (keys @ stray, e1, e2))
  | _, e -> e

let tree ~node c = with_stray ~node c (build ~node c (full c))

(* ------------------------------------------------------------------ *)
(* Canonical members                                                   *)
(* ------------------------------------------------------------------ *)

let rec canon_expr m e =
  match e with
  | Join _ ->
    let inputs, keys = flatten e ([], []) in
    tree ~node:(intern m) (make_cluster m (List.map (canon_expr m) inputs) keys)
  | _ -> (
    match Node.find_opt m.nodes e with
    | Some (e', _) when e' == e -> e (* already canonical: the rules rebuild
                                        only the spine they touch *)
    | _ ->
      intern m
        (match e with
        | Entry _ | External _ | Join _ -> e
        | Select (p, e1) -> Select (p, canon_expr m e1)
        | Project (attrs, e1) -> Project (attrs, canon_expr m e1)
        | Unnest (e1, a) -> Unnest (canon_expr m e1, a)
        | Follow fl -> Follow { fl with src = canon_expr m fl.src }
        | Call c -> Call { c with c_src = Option.map (canon_expr m) c.c_src }))

(* The class of [e]: its canonical member and whether the memo held it
   already. *)
let lookup m e =
  let c = canon_expr m e in
  match Phys.find_opt m.classes c with
  | Some k -> (k, false)
  | None ->
    let k = key c in
    Phys.add m.classes c k;
    (k, true)

let insert m e = fst (lookup m e)

(* ------------------------------------------------------------------ *)
(* Join sites                                                          *)
(* ------------------------------------------------------------------ *)

(* Connected input sets of a cluster, as bit masks. *)
let connected_sets c =
  let n = Array.length c.inputs in
  let seen = Hashtbl.create 16 in
  let rec visit mask =
    if not (Hashtbl.mem seen mask) then begin
      Hashtbl.add seen mask ();
      for i = 0 to n - 1 do
        if mask land bit i = 0 && adjacent c mask i then visit (mask lor bit i)
      done
    end
  in
  for i = 0 to n - 1 do
    visit (bit i)
  done;
  Hashtbl.fold (fun mask () acc -> mask :: acc) seen [] |> List.sort Int.compare

(* Every join node some ordering of the cluster has: two disjoint
   connected input sets with at least one edge between them, the rest
   of the cluster joined above. Each site comes with its mirror (the
   same node, sides swapped) for the rules that read one side only. *)
let sites_of c (rb : expr -> expr) : (site * site) list =
  let sets = connected_sets c in
  let all = full c in
  List.concat_map
    (fun left ->
      List.filter_map
        (fun right ->
          if left >= right || left land right <> 0 then None
          else
            match keys_between c left right with
            | [] -> None
            | keys ->
              let l = build ~node:Fun.id c left and r = build ~node:Fun.id c right in
              let set = left lor right in
              let above x =
                rb
                  (with_stray ~node:Fun.id c
                     (grow ~node:Fun.id c ~set ~tree:x (all land lnot set)))
              in
              let flip = List.map (fun (a, b) -> (b, a)) keys in
              Some ((Join (keys, l, r), above), (Join (flip, r, l), above)))
        sets)
    sets

(* The join sites of a canonical plan, nested clusters included. *)
let rec join_sites m e (rb : expr -> expr) acc =
  match e with
  | Entry _ | External _ | Call { c_src = None; _ } -> acc
  | Select (p, e1) -> join_sites m e1 (fun x -> rb (Select (p, x))) acc
  | Project (attrs, e1) -> join_sites m e1 (fun x -> rb (Project (attrs, x))) acc
  | Unnest (e1, a) -> join_sites m e1 (fun x -> rb (Unnest (x, a))) acc
  | Follow fl -> join_sites m fl.src (fun x -> rb (Follow { fl with src = x })) acc
  | Call ({ c_src = Some src; _ } as call) ->
    join_sites m src (fun x -> rb (Call { call with c_src = Some x })) acc
  | Join _ ->
    let inputs, keys = flatten e ([], []) in
    let c = make_cluster m (List.map (canon_expr m) inputs) keys in
    let acc = sites_of c rb @ acc in
    let acc = ref acc in
    Array.iteri
      (fun i input ->
        let with_input x =
          let inputs = Array.copy c.inputs in
          inputs.(i) <- x;
          rb (tree ~node:Fun.id { c with inputs })
        in
        acc := join_sites m input with_input !acc)
      c.inputs;
    !acc

let join_rewrites m ~symmetric ~oriented e =
  List.concat_map
    (fun (at, mirror) ->
      List.concat_map (fun r -> r at) symmetric
      @ List.concat_map (fun r -> r at @ r mirror) oriented)
    (join_sites m e Fun.id [])

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

(* The classes reachable from [seeds] under [rewrite], each once, in
   breadth-first order. Every result is canonicalized as it is
   inserted; [on_rewrite] sees each new class with the class it was
   first derived from. *)
let saturate m ~on_rewrite (rewrite : expr -> expr list) (seeds : key list) =
  let seen = Key_tbl.create 16 in
  let out = ref [] in
  let queue = Queue.create () in
  let add k =
    if not (Key_tbl.mem seen k) then begin
      Key_tbl.replace seen k ();
      out := k :: !out;
      Queue.add k queue
    end
  in
  List.iter add seeds;
  while not (Queue.is_empty queue) do
    let parent = Queue.pop queue in
    List.iter
      (fun e ->
        m.expressions <- m.expressions + 1;
        let child, fresh = lookup m e in
        if fresh then on_rewrite ~parent ~child;
        add child)
      (rewrite parent.plan)
  done;
  List.rev !out
