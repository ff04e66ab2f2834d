(** The plan memo of Algorithm 1: classes of plans equal up to join
    order, over hash-consed NALG nodes.

    The page-access cost model charges joins nothing and multiplies
    cardinalities, so every ordering of one multi-way join costs the
    same and has one {!Contain.plan_key}. The memo stores one canonical
    member per class: each {e join cluster} (a maximal region of Join
    nodes) has its inputs sorted (see {!create}) and joined left-deep, the
    next input always the lowest-numbered one joined to those already
    placed, each join carrying every key pair between its two sides.
    Every node of a canonical member is interned, so the classes share
    their common subtrees physically ({!Typecheck.infer}'s [?memo]
    relies on this).

    Join commutation and rotation are the classes themselves; the join
    rules fire at every join node some ordering of a cluster has
    ({!join_rewrites}), and each result is canonicalized when it is
    inserted, which is where equivalence is decided. *)

type t

val create : weight:(Nalg.expr -> float) -> unit -> t
(** [weight] orders each join cluster's inputs in canonical members,
    lightest first (ties by subtree hash, then printed form); it must be
    a function of the input alone. The planner weighs an input by its
    estimated page accesses, so a chosen plan joins its cheaper
    navigations first — cost and page accesses do not depend on the
    order, the executor's intermediate results do. *)

val insert : t -> Nalg.expr -> Nalg.key
(** The canonical member of the plan's class (interned), recording the
    class in the memo. Plans equal up to the order of their joins'
    inputs and keys have the same canonical member. *)

type site = Nalg.expr * (Nalg.expr -> Nalg.expr)
(** A join node with the function rebuilding the root around a
    replacement, as {!Rewrite.contexts} pairs them. *)

val join_rewrites :
  t ->
  symmetric:(site -> Nalg.expr list) list ->
  oriented:(site -> Nalg.expr list) list ->
  Nalg.expr ->
  Nalg.expr list
(** [join_rewrites m ~symmetric ~oriented e]: the results of the rules
    at every join node some join order of [e] has — every pair of
    disjoint connected input sets of a cluster with at least one key
    pair between them, the rest of the cluster joined above. A
    [symmetric] rule (one that tries both sides itself) fires once per
    node; an [oriented] rule fires at the node and at its mirror (sides
    swapped). [e] should be a canonical member. *)

val links :
  t -> Adm.Schema.t -> Nalg.expr -> (string * Adm.Constraints.path * string * string) list
(** {!Rewrite.available_links}, computed once per interned node (a
    join's are its sides'). For the [?links] of the join rules. *)

val saturate :
  t ->
  on_rewrite:(parent:Nalg.key -> child:Nalg.key -> unit) ->
  (Nalg.expr -> Nalg.expr list) ->
  Nalg.key list ->
  Nalg.key list
(** The classes reachable from the seeds under a one-step rewriting,
    each once, seeds first, then in breadth-first order; no cap.
    [on_rewrite] sees every class the memo had not held before, with
    the class it was first derived from. *)

val groups : t -> int
(** Classes inserted so far. *)

val expressions : t -> int
(** Rule results offered for insertion so far. *)
