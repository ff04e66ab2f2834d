(* Semantic query analysis over NALG: tableau normal form,
   homomorphism-based containment, minimization and static emptiness.

   A plan's tableau has one *occurrence* per leaf (entry point,
   external relation, or followed page-scheme), *navigation atoms*
   for Follow hops, *unnest atoms* for Unnest steps, and constraints
   over *terms* — (occurrence, attribute-path) pairs. Constraints
   from selections and join keys are compiled into equality classes
   (union-find) carrying a constant binding, range bounds and
   excluded constants, plus residual attribute-attribute comparisons.

   Containment q1 ⊆ q2 is the Chandra–Merlin homomorphism test: find
   a kind/name-preserving map from q2's occurrences into q1's under
   which q2's navigation and unnest atoms appear in q1 and q2's
   constraints are implied by q1's, and the outputs agree
   position-wise. Two adaptations:

   - Follow is a join on [dst.URL = src.link] over pages actually
     fetched, so a navigation atom both merges those two terms and
     must be matched by an identical navigation atom in q1.
   - SQL Null semantics: no comparison is satisfied by Null, so
     [x = x] is not trivially true and equalities certify non-null.
     An equality required by q2 whose image collapses to a single
     q1 term is only implied when q1 proves that term non-null.

   Every verdict is conservative: [true] is proven; [false] means
   "could not prove". *)

type occ_kind = Entry_occ | External_occ | Follow_occ

type occ = { kind : occ_kind; name : string }

type term = int * string list (* occurrence index, attribute path *)

let term_compare (o1, p1) (o2, p2) =
  match Int.compare o1 o2 with
  | 0 -> List.compare String.compare p1 p2
  | c -> c

type bound = Adm.Value.t * bool (* value, strict? *)

type cls = {
  members : term list; (* sorted, distinct *)
  binding : Adm.Value.t option;
  lo : bound option;
  hi : bound option;
  excluded : Adm.Value.t list; (* sorted, distinct *)
  nonnull : bool;
}

(* cmp is one of Neq | Lt | Le after orientation *)
type residual = term * Pred.cmp * term

type tableau = {
  occs : occ array;
  navs : (int * string list * int) list; (* src occ, link steps, dst occ *)
  unnests : (int * string list) list;
  classes : cls array;
  cls_of : (term, int) Hashtbl.t; (* every constrained term -> class index *)
  residuals : residual list;
  outputs : term list option; (* top projection, in order *)
  unsat : bool;
}

let tableau_unsat t = t.unsat

(* ------------------------------------------------------------------ *)
(* Constraint engine: union-find over terms with per-class constants  *)
(* ------------------------------------------------------------------ *)

type info = {
  mutable i_binding : Adm.Value.t option;
  mutable i_lo : bound option;
  mutable i_hi : bound option;
  mutable i_excluded : Adm.Value.t list;
  mutable i_members : term list;
}

type engine = {
  parent : (term, term) Hashtbl.t;
  infos : (term, info) Hashtbl.t; (* keyed by class root *)
  mutable raw_residuals : residual list;
  mutable e_unsat : bool;
}

let engine_create () =
  {
    parent = Hashtbl.create 16;
    infos = Hashtbl.create 16;
    raw_residuals = [];
    e_unsat = false;
  }

let rec find eng t =
  match Hashtbl.find_opt eng.parent t with
  | None -> t
  | Some p ->
    let r = find eng p in
    if term_compare r p <> 0 then Hashtbl.replace eng.parent t r;
    r

let info_of eng t =
  let r = find eng t in
  match Hashtbl.find_opt eng.infos r with
  | Some i -> i
  | None ->
    let i =
      { i_binding = None; i_lo = None; i_hi = None; i_excluded = []; i_members = [ r ] }
    in
    Hashtbl.replace eng.infos r i;
    i

let tighter_lo (v1, s1) (v2, s2) =
  match Adm.Value.compare v1 v2 with
  | 0 -> (v1, s1 || s2)
  | c when c > 0 -> (v1, s1)
  | _ -> (v2, s2)

let tighter_hi (v1, s1) (v2, s2) =
  match Adm.Value.compare v1 v2 with
  | 0 -> (v1, s1 || s2)
  | c when c < 0 -> (v1, s1)
  | _ -> (v2, s2)

let merge_opt f o1 o2 =
  match o1, o2 with
  | Some a, Some b -> Some (f a b)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let set_binding eng i v =
  if Adm.Value.is_null v then eng.e_unsat <- true
  else
    match i.i_binding with
    | None -> i.i_binding <- Some v
    | Some v' -> if not (Adm.Value.equal v v') then eng.e_unsat <- true

let union eng t1 t2 =
  let r1 = find eng t1 and r2 = find eng t2 in
  if term_compare r1 r2 <> 0 then begin
    let i1 = info_of eng t1 and i2 = info_of eng t2 in
    (* keep the smaller root as canonical so classes are deterministic *)
    let keep, kept, absorbed =
      if term_compare r1 r2 < 0 then (r1, i1, i2) else (r2, i2, i1)
    in
    let gone = if term_compare keep r1 = 0 then r2 else r1 in
    Hashtbl.replace eng.parent gone keep;
    Hashtbl.remove eng.infos gone;
    (match absorbed.i_binding with
    | Some v -> set_binding eng kept v
    | None -> ());
    kept.i_lo <- merge_opt tighter_lo kept.i_lo absorbed.i_lo;
    kept.i_hi <- merge_opt tighter_hi kept.i_hi absorbed.i_hi;
    kept.i_excluded <-
      List.sort_uniq Adm.Value.compare (kept.i_excluded @ absorbed.i_excluded);
    kept.i_members <-
      List.sort_uniq term_compare (kept.i_members @ absorbed.i_members)
  end
  else ignore (info_of eng t1)

(* Feed one oriented atom whose attributes have been resolved to
   terms. [resolve] raises when an attribute's alias is unknown. *)
let add_atom eng ~(resolve : string -> term) (a : Pred.atom) =
  let a = Pred.orient a in
  match a.Pred.left, a.Pred.right with
  | Pred.Const v1, Pred.Const v2 ->
    if not (Pred.eval_cmp a.Pred.cmp v1 v2) then eng.e_unsat <- true
  | Pred.Attr x, Pred.Const c ->
    let t = resolve x in
    let i = info_of eng t in
    if Adm.Value.is_null c then eng.e_unsat <- true
    else begin
      match a.Pred.cmp with
      | Pred.Eq -> set_binding eng i c
      | Pred.Neq ->
        i.i_excluded <- List.sort_uniq Adm.Value.compare (c :: i.i_excluded)
      | Pred.Lt -> i.i_hi <- merge_opt tighter_hi i.i_hi (Some (c, true))
      | Pred.Le -> i.i_hi <- merge_opt tighter_hi i.i_hi (Some (c, false))
      | Pred.Gt -> i.i_lo <- merge_opt tighter_lo i.i_lo (Some (c, true))
      | Pred.Ge -> i.i_lo <- merge_opt tighter_lo i.i_lo (Some (c, false))
    end
  | Pred.Attr x, Pred.Attr y -> (
    let tx = resolve x and ty = resolve y in
    match a.Pred.cmp with
    | Pred.Eq -> union eng tx ty
    | Pred.Neq | Pred.Lt | Pred.Le ->
      ignore (info_of eng tx);
      ignore (info_of eng ty);
      eng.raw_residuals <- (tx, a.Pred.cmp, ty) :: eng.raw_residuals
    | Pred.Gt | Pred.Ge -> assert false (* orient writes Lt/Le *))
  | Pred.Const _, Pred.Attr _ -> assert false (* orient puts attrs left *)

(* effective bounds: a binding acts as a closed two-sided bound *)
let eff_lo c = match c.binding with Some v -> Some (v, false) | None -> c.lo
let eff_hi c = match c.binding with Some v -> Some (v, false) | None -> c.hi

(* [x ≤ hi] and [y ≥ lo] separate (x < y) when hi < lo, or hi = lo
   with either side strict; they weakly separate (x ≤ y) when also
   hi = lo both closed. *)
let separated ~strict hi lo =
  match hi, lo with
  | Some (v, s), Some (w, t) -> (
    match Adm.Value.compare v w with
    | c when c < 0 -> true
    | 0 -> if strict then s || t else true
    | _ -> false)
  | _ -> false

let finalize eng : cls array * (term, int) Hashtbl.t * residual list * bool =
  (* promote a closed, degenerate range to a binding *)
  Hashtbl.iter
    (fun _ i ->
      match i.i_binding, i.i_lo, i.i_hi with
      | None, Some (v, false), Some (w, false) when Adm.Value.compare v w = 0 ->
        i.i_binding <- Some v
      | _ -> ())
    eng.infos;
  (* per-class satisfiability *)
  Hashtbl.iter
    (fun _ i ->
      (match i.i_binding with
      | Some c ->
        let below = function
          | Some (v, s) -> (
            match Adm.Value.compare c v with 0 -> s | x -> x < 0)
          | None -> false
        in
        let above = function
          | Some (v, s) -> (
            match Adm.Value.compare c v with 0 -> s | x -> x > 0)
          | None -> false
        in
        if below i.i_lo || above i.i_hi then eng.e_unsat <- true;
        if List.exists (Adm.Value.equal c) i.i_excluded then
          eng.e_unsat <- true
      | None -> (
        match i.i_lo, i.i_hi with
        | Some (v, s), Some (w, t) -> (
          match Adm.Value.compare v w with
          | c when c > 0 -> eng.e_unsat <- true
          | 0 -> if s || t then eng.e_unsat <- true
          | _ -> ())
        | _ -> ())))
    eng.infos;
  (* residuals, rewritten to class roots *)
  let residuals =
    List.rev_map
      (fun (x, cmp, y) ->
        let rx = find eng x and ry = find eng y in
        match cmp with
        | Pred.Neq when term_compare rx ry > 0 -> (ry, cmp, rx)
        | _ -> (rx, cmp, ry))
      eng.raw_residuals
    |> List.sort_uniq (fun (x1, c1, y1) (x2, c2, y2) ->
           match term_compare x1 x2 with
           | 0 -> (
             match compare c1 c2 with 0 -> term_compare y1 y2 | c -> c)
           | c -> c)
  in
  List.iter
    (fun (rx, cmp, ry) ->
      if term_compare rx ry = 0 then
        (* x < x, x <> x on a class: no tuple satisfies them; x ≤ x
           needs only non-null, which class membership certifies *)
        (match cmp with Pred.Neq | Pred.Lt -> eng.e_unsat <- true | _ -> ())
      else
        let ix = info_of eng rx and iy = info_of eng ry in
        (match ix.i_binding, iy.i_binding with
        | Some a, Some b ->
          if not (Pred.eval_cmp cmp a b) then eng.e_unsat <- true
        | _ -> ());
        (* x < y (or ≤, each strict or not) while bounds force y ≤ x *)
        let cx = { members = []; binding = ix.i_binding; lo = ix.i_lo;
                   hi = ix.i_hi; excluded = []; nonnull = true }
        and cy = { members = []; binding = iy.i_binding; lo = iy.i_lo;
                   hi = iy.i_hi; excluded = []; nonnull = true } in
        (match cmp with
        | Pred.Lt | Pred.Le ->
          (* y ≤ hi(y) < lo(x) ≤ x refutes x < y and x ≤ y;
             for x < y even hi(y) = lo(x) (both closed) refutes *)
          if separated ~strict:(cmp = Pred.Le) (eff_hi cy) (eff_lo cx) then
            eng.e_unsat <- true
        | _ -> ());
        (* contradicting opposite residual *)
        List.iter
          (fun (x', cmp', y') ->
            if term_compare x' ry = 0 && term_compare y' rx = 0 then
              match cmp, cmp' with
              | Pred.Lt, (Pred.Lt | Pred.Le) | Pred.Le, Pred.Lt ->
                eng.e_unsat <- true
              | _ -> ())
          residuals)
    residuals;
  (* freeze classes *)
  let classes = ref [] and n = ref 0 in
  let cls_of = Hashtbl.create (Hashtbl.length eng.infos) in
  Hashtbl.fold (fun r i acc -> (r, i) :: acc) eng.infos []
  |> List.sort (fun (r1, _) (r2, _) -> term_compare r1 r2)
  |> List.iter (fun (_, i) ->
         let c =
           {
             members = i.i_members;
             binding = i.i_binding;
             lo = i.i_lo;
             hi = i.i_hi;
             excluded = i.i_excluded;
             nonnull = true;
             (* every constrained term sits in some satisfied
                comparison or navigation join, hence non-null *)
           }
         in
         let idx = !n in
         incr n;
         classes := c :: !classes;
         List.iter (fun m -> Hashtbl.replace cls_of m idx) i.i_members);
  (Array.of_list (List.rev !classes), cls_of, residuals, eng.e_unsat)

(* ------------------------------------------------------------------ *)
(* Tableau construction                                               *)
(* ------------------------------------------------------------------ *)

exception Unsupported

let build (e : Nalg.expr) : tableau =
  let occs = ref [] and n = ref 0 in
  let alias_idx = Hashtbl.create 8 in
  let alias_list = ref [] in
  let navs_raw = ref [] and unnests_raw = ref [] and atoms = ref [] in
  let add_occ kind name alias =
    if Hashtbl.mem alias_idx alias then raise Unsupported;
    let i = !n in
    incr n;
    occs := { kind; name } :: !occs;
    Hashtbl.replace alias_idx alias i;
    alias_list := alias :: !alias_list;
    i
  in
  let rec go = function
    | Nalg.Entry { scheme; alias } -> ignore (add_occ Entry_occ scheme alias)
    | Nalg.External { name; alias } -> ignore (add_occ External_occ name alias)
    | Nalg.Select (p, e) ->
      go e;
      atoms := p @ !atoms
    | Nalg.Project (_, e) -> go e
    | Nalg.Join (keys, e1, e2) ->
      go e1;
      go e2;
      List.iter (fun (a, b) -> atoms := Pred.eq_attrs a b :: !atoms) keys
    | Nalg.Unnest (e, attr) ->
      go e;
      unnests_raw := attr :: !unnests_raw
    | Nalg.Follow { src; link; scheme; alias } ->
      go src;
      let dst = add_occ Follow_occ scheme alias in
      navs_raw := (link, dst) :: !navs_raw
    | Nalg.Call _ ->
      (* parameterized calls have no tableau form yet: their join is
         against form *inputs*, not page attributes, so containment
         falls back to syntactic identity ([of_expr] → [None]) *)
      raise Unsupported
  in
  go e;
  let aliases = List.rev !alias_list in
  let resolve attr : term =
    match Nalg.split_attr aliases attr with
    | Some (alias, steps) -> (Hashtbl.find alias_idx alias, steps)
    | None -> raise Unsupported
  in
  let eng = engine_create () in
  let navs =
    List.rev_map
      (fun (link, dst) ->
        let src, steps = resolve link in
        (* Follow joins on src.link = dst.URL over fetched pages *)
        union eng (src, steps) (dst, [ "URL" ]);
        (src, steps, dst))
      !navs_raw
    |> List.sort compare
  in
  let unnests =
    List.rev_map resolve !unnests_raw |> List.sort_uniq term_compare
  in
  List.iter (add_atom eng ~resolve) !atoms;
  let classes, cls_of, residuals, unsat = finalize eng in
  let outputs =
    let rec top = function
      | Nalg.Select (_, e) -> top e
      | Nalg.Project (attrs, _) -> Some (List.map resolve attrs)
      | _ -> None
    in
    top e
  in
  {
    occs = Array.of_list (List.rev !occs);
    navs;
    unnests;
    classes;
    cls_of;
    residuals;
    outputs;
    unsat;
  }

let of_expr e = match build e with t -> Some t | exception Unsupported -> None

let unsat_expr e =
  match of_expr e with Some t -> t.unsat | None -> false

let unsat_pred (p : Pred.t) =
  (* bare conjunction: each attribute name is its own term *)
  let eng = engine_create () in
  (try List.iter (add_atom eng ~resolve:(fun a -> (0, [ a ]))) p
   with Unsupported -> ());
  let _, _, _, unsat = finalize eng in
  unsat

(* ------------------------------------------------------------------ *)
(* Containment                                                        *)
(* ------------------------------------------------------------------ *)

(* Does t1 prove [image cmp' image'] for a q2 constraint? All checks
   require non-null evidence, which [cls] membership certifies. *)

let class_of_term t1 term = Hashtbl.find_opt t1.cls_of term

let binding_of t1 term =
  match class_of_term t1 term with
  | Some i -> t1.classes.(i).binding
  | None -> None

(* q1 implies [term = c] *)
let implies_binding t1 term c =
  match binding_of t1 term with
  | Some c' -> Adm.Value.equal c c'
  | None -> false

(* q1 implies [term > v] (strict) or [term ≥ v] *)
let implies_lo t1 term (v, strict) =
  match class_of_term t1 term with
  | None -> false
  | Some i -> (
    let c = t1.classes.(i) in
    match eff_lo c with
    | Some (v', s') -> (
      match Adm.Value.compare v' v with
      | x when x > 0 -> true
      | 0 -> s' || not strict
      | _ -> false)
    | None -> false)

let implies_hi t1 term (v, strict) =
  match class_of_term t1 term with
  | None -> false
  | Some i -> (
    let c = t1.classes.(i) in
    match eff_hi c with
    | Some (v', s') -> (
      match Adm.Value.compare v' v with
      | x when x < 0 -> true
      | 0 -> s' || not strict
      | _ -> false)
    | None -> false)

(* q1 implies [term ≠ c]: only a strictly separating bound proves
   the exclusion — lo strictly above c, hi strictly below c, or a
   bound touching c that is itself strict. A closed bound equal to c
   (e.g. x ≥ c) still admits x = c and proves nothing. *)
let implies_excluded t1 term c =
  match class_of_term t1 term with
  | None -> false
  | Some i ->
    let cl = t1.classes.(i) in
    (match cl.binding with
    | Some c' -> not (Adm.Value.equal c c')
    | None -> false)
    || List.exists (Adm.Value.equal c) cl.excluded
    || separated ~strict:true (Some (c, false)) (eff_lo cl)
    || separated ~strict:true (eff_hi cl) (Some (c, false))

(* q1 implies [a cmp b] for cmp ∈ {Neq, Lt, Le} over q1 terms *)
let implies_residual t1 a cmp b =
  let ca = class_of_term t1 a and cb = class_of_term t1 b in
  let same_term = term_compare a b = 0 in
  let same_class =
    match ca, cb with Some i, Some j -> i = j | _ -> same_term
  in
  if same_class then
    (* equal non-null values *)
    match cmp with
    | Pred.Le -> ca <> None (* membership certifies non-null *)
    | _ -> false
  else
    let cls i = t1.classes.(i) in
    let bound_sep ~strict x y =
      (* hi(x) strictly (or weakly) below lo(y) *)
      match x, y with
      | Some i, Some j -> separated ~strict (eff_hi (cls i)) (eff_lo (cls j))
      | _ -> false
    in
    let by_bindings =
      match ca, cb with
      | Some i, Some j -> (
        match (cls i).binding, (cls j).binding with
        | Some u, Some v -> Pred.eval_cmp cmp u v
        | _ -> false)
      | _ -> false
    in
    let by_residual =
      List.exists
        (fun (x, cmp', y) ->
          let matches fwd =
            if fwd then term_compare x a = 0 && term_compare y b = 0
            else term_compare x b = 0 && term_compare y a = 0
          in
          (* compare class roots, not raw terms *)
          let root t =
            match class_of_term t1 t with
            | Some i -> List.hd (cls i).members
            | None -> t
          in
          let matches fwd =
            matches fwd
            ||
            if fwd then
              term_compare (root x) (root a) = 0
              && term_compare (root y) (root b) = 0
            else
              term_compare (root x) (root b) = 0
              && term_compare (root y) (root a) = 0
          in
          match cmp with
          | Pred.Le -> matches true && (cmp' = Pred.Le || cmp' = Pred.Lt)
          | Pred.Lt -> matches true && cmp' = Pred.Lt
          | Pred.Neq -> (
            (matches true || matches false)
            && match cmp' with Pred.Neq | Pred.Lt -> true | _ -> false)
          | _ -> false)
        t1.residuals
    in
    let by_bounds =
      match cmp with
      | Pred.Lt -> bound_sep ~strict:true ca cb
      | Pred.Le -> bound_sep ~strict:false ca cb
      | Pred.Neq -> bound_sep ~strict:true ca cb || bound_sep ~strict:true cb ca
      | _ -> false
    in
    by_bindings || by_residual || by_bounds

(* The homomorphism check: map t2's occurrences into t1's, then
   verify atoms, constraints and outputs under the map. *)
let contains_t (t1 : tableau) (t2 : tableau) : bool =
  match t1.outputs, t2.outputs with
  | Some out1, Some out2 when List.length out1 = List.length out2 ->
    if t1.unsat then true
    else if t2.unsat then false
    else begin
      let n1 = Array.length t1.occs and n2 = Array.length t2.occs in
      let h = Array.make (max n2 1) (-1) in
      let map_term (o, p) = (h.(o), p) in
      let nav2_of j =
        List.find_opt (fun (_, _, d) -> d = j) t2.navs
      in
      let check_mapping () =
        (* unnest atoms *)
        List.for_all
          (fun (o, p) ->
            List.exists
              (fun (o', p') -> term_compare (h.(o), p) (o', p') = 0)
              t1.unnests)
          t2.unnests
        (* class constraints *)
        && Array.for_all
             (fun (c2 : cls) ->
               let images =
                 List.sort_uniq term_compare (List.map map_term c2.members)
               in
               let equality_ok =
                 match images with
                 | [] -> false
                 | [ single ] ->
                   (* several q2 terms may collapse onto one q1 term:
                      the required equality then needs non-null proof *)
                   List.length c2.members < 2
                   || class_of_term t1 single <> None
                 | _ :: _ :: _ ->
                   let ids = List.map (class_of_term t1) images in
                   (match ids with
                   | Some i :: rest ->
                     List.for_all (fun x -> x = Some i) rest
                   | _ -> false)
                   ||
                   (* or all images separately pinned to one constant *)
                   let bindings = List.map (binding_of t1) images in
                   (match bindings with
                   | Some v :: rest ->
                     List.for_all
                       (function
                         | Some v' -> Adm.Value.equal v v'
                         | None -> false)
                       rest
                   | _ -> false)
               in
               equality_ok
               && (match c2.binding with
                  | Some c ->
                    List.for_all (fun im -> implies_binding t1 im c) images
                  | None -> true)
               && (match c2.lo with
                  | Some b ->
                    List.for_all
                      (fun im ->
                        implies_lo t1 im b
                        ||
                        match binding_of t1 im with
                        | Some c ->
                          Pred.eval_cmp (if snd b then Pred.Gt else Pred.Ge) c (fst b)
                        | None -> false)
                      images
                  | None -> true)
               && (match c2.hi with
                  | Some b ->
                    List.for_all
                      (fun im ->
                        implies_hi t1 im b
                        ||
                        match binding_of t1 im with
                        | Some c ->
                          Pred.eval_cmp (if snd b then Pred.Lt else Pred.Le) c (fst b)
                        | None -> false)
                      images
                  | None -> true)
               && List.for_all
                    (fun c ->
                      List.for_all (fun im -> implies_excluded t1 im c) images)
                    c2.excluded)
             t2.classes
        (* residual comparisons *)
        && List.for_all
             (fun (x, cmp, y) ->
               implies_residual t1 (map_term x) cmp (map_term y))
             t2.residuals
        (* outputs, position-wise *)
        && List.for_all2
             (fun o2 o1 ->
               let a = map_term o2 in
               term_compare a o1 = 0
               || (match class_of_term t1 a, class_of_term t1 o1 with
                  | Some i, Some j -> i = j (* same non-null value *)
                  | _ -> false)
               ||
               match binding_of t1 a, binding_of t1 o1 with
               | Some u, Some v -> Adm.Value.equal u v
               | _ -> false)
             out2 out1
      in
      let rec assign j =
        if j = n2 then check_mapping ()
        else begin
          let o2 = t2.occs.(j) in
          let ok = ref false in
          let i = ref 0 in
          while (not !ok) && !i < n1 do
            let o1 = t1.occs.(!i) in
            let compatible =
              o1.kind = o2.kind
              && String.equal o1.name o2.name
              &&
              match o2.kind with
              | Follow_occ -> (
                match nav2_of j with
                | Some (s2, steps, _) ->
                  (* source occurrences are built before their target,
                     so h.(s2) is already assigned *)
                  List.exists
                    (fun (s1, steps1, d1) ->
                      s1 = h.(s2) && d1 = !i
                      && List.equal String.equal steps1 steps)
                    t1.navs
                | None -> false)
              | Entry_occ | External_occ -> true
            in
            if compatible then begin
              h.(j) <- !i;
              if assign (j + 1) then ok := true else h.(j) <- -1
            end;
            incr i
          done;
          !ok
        end
      in
      (n2 = 0 && check_mapping ()) || (n2 > 0 && assign 0)
    end
  | _ -> false

let contains q1 q2 =
  match of_expr q1, of_expr q2 with
  | Some t1, Some t2 -> contains_t t1 t2
  | _ -> Nalg.equal q1 q2

let equiv q1 q2 =
  match of_expr q1, of_expr q2 with
  | Some t1, Some t2 -> contains_t t1 t2 && contains_t t2 t1
  | _ -> Nalg.equal q1 q2

(* ------------------------------------------------------------------ *)
(* Equivalence-keyed canonical form                                   *)
(* ------------------------------------------------------------------ *)

(* The key of a tableau is its encoding under a canonical occurrence
   numbering, so isomorphic tableaux (equal up to a renumbering that
   maps each occurrence to one of the same kind/name signature — bag
   equivalence on the conjunctive fragment) share a key, and distinct
   keys are possible for equivalent plans (the key is sound for
   deduplication, not complete). The numbering is found by canonical
   labeling:

   1. colour every occurrence by its signature, then refine the
      colours with what each occurrence touches — navigations,
      unnests, equality classes, residual comparisons and outputs,
      each read through its partners' current colours — until the
      number of colours stops growing. Colours are ranks of
      renumbering-invariant descriptions, so isomorphic tableaux get
      corresponding colourings;
   2. number the occurrences colour by colour, and try every order
      only within the cells whose occurrences are still tied;
   3. keep the least encoding.

   Any numbering that respects the sorted signature groups gives a
   faithful encoding, so two keys are equal exactly when some
   signature-respecting renumbering makes the tableaux equal — the same
   partition as taking the least encoding over every such renumbering,
   at the cost of the tied cells only. *)

let perm_cap = 720

let occ_sig (t : tableau) i =
  let o = t.occs.(i) in
  let kind =
    match o.kind with Entry_occ -> "E" | External_occ -> "X" | Follow_occ -> "F"
  in
  let steps =
    match o.kind with
    | Follow_occ -> (
      match List.find_opt (fun (_, _, d) -> d = i) t.navs with
      | Some (_, steps, _) -> String.concat "." steps
      | None -> "")
    | _ -> ""
  in
  kind ^ "/" ^ o.name ^ "/" ^ steps

(* Prefix-free encoders: every field is either fixed-width, or
   terminated, or length-prefixed, so distinct structures never
   encode alike. *)
let put_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ','

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_list b put l =
  put_int b (List.length l);
  List.iter (put b) l

let put_term b (o, p) =
  put_int b o;
  put_list b put_str p

let put_value b (v : Adm.Value.t) =
  match v with
  | Null -> Buffer.add_char b 'N'
  | Bool x -> Buffer.add_char b (if x then 'T' else 'F')
  | Int i ->
    Buffer.add_char b 'i';
    put_int b i
  | Text a ->
    Buffer.add_char b 't';
    put_str b (Adm.Value.Atom.str a)
  | Link a ->
    Buffer.add_char b 'l';
    put_str b (Adm.Value.Atom.str a)
  | Rows _ ->
    Buffer.add_char b 'r';
    put_str b (Adm.Value.to_string v)

let put_bound b = function
  | None -> Buffer.add_char b '_'
  | Some (v, strict) ->
    Buffer.add_char b (if strict then '<' else '=');
    put_value b v

(* The constants of a class: binding, bounds and exclusions. *)
let class_consts (c : cls) =
  let b = Buffer.create 32 in
  (match c.binding with
  | None -> Buffer.add_char b '_'
  | Some v -> put_value b v);
  put_bound b c.lo;
  put_bound b c.hi;
  put_list b put_value c.excluded;
  Buffer.contents b

(* Dense ranks of [a] under [compare]; equal elements share a rank. *)
let dense_ranks a =
  let n = Array.length a in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare a.(i) a.(j)) order;
  let ranks = Array.make n 0 in
  Array.iteri
    (fun k i ->
      ranks.(i) <-
        (if k = 0 then 0
         else if compare a.(order.(k - 1)) a.(i) = 0 then ranks.(order.(k - 1))
         else ranks.(order.(k - 1)) + 1))
    order;
  ranks

let n_distinct ranks = Array.fold_left (fun m r -> max m (r + 1)) 0 ranks

(* What an occurrence touches, with partners named by colour. *)
type feature =
  | Nav_out of string list * int (* link steps, target colour *)
  | Nav_in of string list * int (* link steps, source colour *)
  | Unnested of string list
  | Member of string list * int (* attribute path, class colour *)
  | Res_left of string list * Pred.cmp * int * string list
  | Res_right of string list * Pred.cmp * int * string list
  | Output of int * string list (* position of an unclassed output *)

(* Refine the signature colouring to a stable colouring. [consts] are
   the classes' {!class_consts}. *)
let refine (t : tableau) (outputs : term list) sigs consts =
  let n = Array.length t.occs in
  let class_outs = Array.make (Array.length t.classes) [] in
  let loose_outs = ref [] in
  List.iteri
    (fun k o ->
      match Hashtbl.find_opt t.cls_of o with
      | Some c -> class_outs.(c) <- k :: class_outs.(c)
      | None -> loose_outs := (k, o) :: !loose_outs)
    outputs;
  (* one round: each occurrence's colour, split by its features *)
  let step colour =
    let class_colour =
      dense_ranks
        (Array.mapi
           (fun c (cl : cls) ->
             ( consts.(c),
               class_outs.(c),
               List.sort compare (List.map (fun (o, p) -> (colour.(o), p)) cl.members) ))
           t.classes)
    in
    let feats = Array.make n [] in
    let add o f = feats.(o) <- f :: feats.(o) in
    List.iter
      (fun (s, steps, d) ->
        add s (Nav_out (steps, colour.(d)));
        add d (Nav_in (steps, colour.(s))))
      t.navs;
    List.iter (fun (o, p) -> add o (Unnested p)) t.unnests;
    Array.iteri
      (fun c (cl : cls) ->
        List.iter (fun (o, p) -> add o (Member (p, class_colour.(c)))) cl.members)
      t.classes;
    List.iter
      (fun ((xo, xp), cmp, (yo, yp)) ->
        add xo (Res_left (xp, cmp, colour.(yo), yp));
        add yo (Res_right (yp, cmp, colour.(xo), xp)))
      t.residuals;
    List.iter (fun (k, (o, p)) -> add o (Output (k, p))) !loose_outs;
    dense_ranks (Array.mapi (fun i fs -> (colour.(i), List.sort compare fs)) feats)
  in
  let rec go colour =
    if n_distinct colour = n then colour
    else
      let colour' = step colour in
      if n_distinct colour' = n_distinct colour then colour else go colour'
  in
  go (dense_ranks sigs)

(* The tableau encoded under the numbering [label] (occurrence ->
   position). Sets are written sorted, so the encoding depends only on
   the renumbered tableau. *)
let encode (t : tableau) (outputs : term list) sigs consts label =
  let b = Buffer.create 256 in
  let rel (o, p) = (label.(o), p) in
  let by_label = Array.make (Array.length sigs) "" in
  Array.iteri (fun i s -> by_label.(label.(i)) <- s) sigs;
  put_list b put_str (Array.to_list by_label);
  put_list b
    (fun b (s, steps, d) ->
      put_int b s;
      put_list b put_str steps;
      put_int b d)
    (List.sort compare (List.map (fun (s, steps, d) -> (label.(s), steps, label.(d))) t.navs));
  put_list b put_term (List.sort compare (List.map rel t.unnests));
  let members c = List.sort compare (List.map rel t.classes.(c).members) in
  put_list b
    (fun b (ms, consts) ->
      put_list b put_term ms;
      put_str b consts)
    (List.sort compare
       (List.init (Array.length t.classes) (fun c ->
            (members c, consts.(c)))));
  put_list b
    (fun b (x, cmp, y) ->
      put_term b x;
      put_str b (Pred.cmp_to_string cmp);
      put_term b y)
    (List.sort compare (List.map (fun (x, cmp, y) -> (rel x, cmp, rel y)) t.residuals));
  put_list b
    (fun b o ->
      match Hashtbl.find_opt t.cls_of o with
      | Some c ->
        Buffer.add_char b 'c';
        put_list b put_term (members c)
      | None ->
        Buffer.add_char b 't';
        put_term b (rel o))
    outputs;
  Buffer.contents b

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

(* Least encoding over the numberings that respect the stable
   colouring: cells take consecutive positions in colour order, and
   only the occurrences within a cell trade places. *)
let canonical_encoding t outputs sigs =
  let n = Array.length sigs in
  let consts = Array.map class_consts t.classes in
  let colour = refine t outputs sigs consts in
  let cells =
    List.init n Fun.id
    |> List.stable_sort (fun i j -> Int.compare colour.(i) colour.(j))
    |> List.fold_left
         (fun acc i ->
           match acc with
           | (j :: _ as cell) :: rest when colour.(j) = colour.(i) -> (i :: cell) :: rest
           | _ -> [ i ] :: acc)
         []
    |> List.rev_map List.rev
  in
  let label = Array.make n 0 in
  let best = ref None in
  let rec assign base = function
    | [] ->
      let s = encode t outputs sigs consts label in
      (match !best with Some b when String.compare b s <= 0 -> () | _ -> best := Some s)
    | cell :: rest ->
      List.iter
        (fun order ->
          List.iteri (fun k i -> label.(i) <- base + k) order;
          assign (base + List.length cell) rest)
        (permutations cell)
  in
  assign 0 cells;
  Option.get !best

(* Saturating product of the factorials of the signature groups' sizes:
   it stops multiplying as soon as the running product passes
   [perm_cap], so a large group (≥ 21 same-signature occurrences)
   cannot overflow the int, wrap below the cap, and slip past the
   guard. *)
let signature_perms sigs =
  let sorted = List.sort String.compare (Array.to_list sigs) in
  let rec groups acc run = function
    | a :: (b :: _ as rest) when String.equal a b -> groups acc (run + 1) rest
    | _ :: rest -> groups (run :: acc) 1 rest
    | [] -> acc
  in
  List.fold_left
    (fun acc k ->
      let rec go acc k = if acc > perm_cap || k <= 1 then acc else go (acc * k) (k - 1) in
      go acc k)
    1 (groups [] 1 sorted)

let plan_key (e : Nalg.expr) : string =
  match of_expr e with
  | Some t when not t.unsat -> (
    match t.outputs with
    | None -> "S:" ^ Nalg.canonical e
    | Some outputs ->
      let sigs = Array.init (Array.length t.occs) (occ_sig t) in
      if signature_perms sigs > perm_cap then "S:" ^ Nalg.canonical e
      else "T:" ^ canonical_encoding t outputs sigs)
  | Some t -> (
    (* provably empty: all empty plans of one arity are equivalent *)
    match t.outputs with
    | Some outputs -> "T:UNSAT:" ^ string_of_int (List.length outputs)
    | None -> "S:" ^ Nalg.canonical e)
  | None -> "S:" ^ Nalg.canonical e

(* ------------------------------------------------------------------ *)
(* Conjunctive-query minimization                                     *)
(* ------------------------------------------------------------------ *)

(* Fold a duplicate FROM occurrence into its sibling when the two are
   equated on a declared unique key: the key makes the two bound rows
   identical in every satisfying assignment and at most one row per
   key value exists, so folding preserves multiplicities (bag
   semantics), not just the set of answers. *)

let rename_alias_refs ~from ~into attr =
  let prefix = from ^ "." in
  if
    String.length attr > String.length prefix
    && String.sub attr 0 (String.length prefix) = prefix
  then into ^ String.sub attr (String.length from) (String.length attr - String.length from)
  else attr

(* A self-equality [x = x] only filters Null rows. On a declared key —
   unique AND non-null by {!View.relation}'s contract — it is vacuous,
   and keeping it after a fold would pin the attribute to the folded
   occurrence's page scheme, blocking replicated-attribute plans that
   never visit that page. *)
let drop_key_self_eq (registry : View.registry)
    (from : Conjunctive.source list) (p : Pred.t) : Pred.t =
  List.filter
    (fun (a : Pred.atom) ->
      match a.Pred.left, a.Pred.right, a.Pred.cmp with
      | Pred.Attr x, Pred.Attr y, Pred.Eq
        when String.equal x y && String.contains x '.' -> (
        let alias = Conjunctive.alias_of_attr x in
        let attr =
          String.sub x
            (String.length alias + 1)
            (String.length x - String.length alias - 1)
        in
        match
          List.find_opt
            (fun (s : Conjunctive.source) ->
              String.equal s.Conjunctive.alias alias)
            from
        with
        | Some s -> (
          match View.find registry s.Conjunctive.rel with
          | Some rel -> not (List.mem attr rel.View.rel_keys)
          | None -> true)
        | None -> true)
      | _ -> true)
    p

let minimize_query (registry : View.registry) (q : Conjunctive.t) :
    Conjunctive.t * Diagnostic.t list =
  let diags = ref [] in
  let rec fold_loop (q : Conjunctive.t) =
    (* equality classes over "alias.attr" from the equi-join atoms *)
    let eng = engine_create () in
    List.iter
      (fun (a : Pred.atom) ->
        match a.Pred.left, a.Pred.right, a.Pred.cmp with
        | Pred.Attr x, Pred.Attr y, Pred.Eq ->
          union eng (0, [ x ]) (0, [ y ])
        | _ -> ())
      q.Conjunctive.where;
    let equated x y = term_compare (find eng (0, [ x ])) (find eng (0, [ y ])) = 0 in
    let foldable =
      let rec pick = function
        | [] -> None
        | (si : Conjunctive.source) :: rest -> (
          let dup =
            List.find_map
              (fun (sj : Conjunctive.source) ->
                if
                  String.equal si.Conjunctive.rel sj.Conjunctive.rel
                  && not (String.equal si.Conjunctive.alias sj.Conjunctive.alias)
                then
                  match View.find registry si.Conjunctive.rel with
                  | Some rel ->
                    List.find_map
                      (fun k ->
                        if
                          equated
                            (si.Conjunctive.alias ^ "." ^ k)
                            (sj.Conjunctive.alias ^ "." ^ k)
                        then Some (sj, k)
                        else None)
                      rel.View.rel_keys
                  | None -> None
                else None)
              rest
          in
          match dup with Some (sj, k) -> Some (si, sj, k) | None -> pick rest)
      in
      pick q.Conjunctive.from
    in
    match foldable with
    | None -> q
    | Some (si, sj, key) ->
      let ren =
        rename_alias_refs ~from:sj.Conjunctive.alias ~into:si.Conjunctive.alias
      in
      diags :=
        Diagnostic.warning ~code:"W0602"
          "redundant FROM occurrence: %s %s duplicates %s %s (equated on \
           unique key %s); occurrence and its navigation dropped"
          sj.Conjunctive.rel sj.Conjunctive.alias si.Conjunctive.rel
          si.Conjunctive.alias key
        :: !diags;
      let from' =
        List.filter
          (fun (s : Conjunctive.source) ->
            not (String.equal s.Conjunctive.alias sj.Conjunctive.alias))
          q.Conjunctive.from
      in
      fold_loop
        {
          Conjunctive.select = List.map ren q.Conjunctive.select;
          from = from';
          where =
            drop_key_self_eq registry from'
              (Pred.normalize (Pred.map_attrs ren q.Conjunctive.where));
        }
  in
  let q = { q with Conjunctive.where = Pred.normalize q.Conjunctive.where } in
  let q = fold_loop q in
  if unsat_pred q.Conjunctive.where then
    diags :=
      Diagnostic.error ~code:"E0601"
        "query is unsatisfiable: the WHERE conjunction (%s) admits no tuple"
        (Pred.to_string (Pred.normalize q.Conjunctive.where))
      :: !diags;
  (q, List.rev !diags)

let analyze_query (registry : View.registry) (q : Conjunctive.t) :
    Conjunctive.t * Diagnostic.t list =
  let original_sources = List.length q.Conjunctive.from in
  let q', diags = minimize_query registry q in
  let diags =
    if
      original_sources >= 2
      && List.length q'.Conjunctive.from = 1
      && not (Diagnostic.has_errors diags)
    then
      let s = List.hd q'.Conjunctive.from in
      let w =
        (* minimize_query normalized the WHERE, so [] means no
           residual filter at all; anything left (constant or
           attribute-attribute) still restricts the scan *)
        match q'.Conjunctive.where with
        | [] ->
          Diagnostic.warning ~code:"W0604"
            "query is trivially answerable from registered view %s: after \
             minimization it reads a single occurrence (%s) with no \
             residual filters"
            s.Conjunctive.rel s.Conjunctive.alias
        | where ->
          Diagnostic.warning ~code:"W0604"
            "query reads a single registered view %s after minimization \
             (occurrence %s, residual filters: %s)"
            s.Conjunctive.rel s.Conjunctive.alias (Pred.to_string where)
      in
      diags @ [ w ]
    else diags
  in
  (q', diags)
