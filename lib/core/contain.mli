(** Semantic query analysis: tableau normal form, containment,
    equivalence, minimization and static emptiness over NALG.

    A computable NALG plan (or a conjunctive query's algebra over
    [External] leaves) is canonicalized into a {e tableau}: one
    occurrence per page-scheme / external-relation leaf, navigation
    atoms for [Follow] hops, unnest atoms for [Unnest] steps, and
    equality classes over terms ((occurrence, attribute-path) pairs)
    carrying the constant bindings, range bounds and excluded values
    accumulated from selections and join keys. Containment is the
    classic homomorphism test of conjunctive queries (Chandra–Merlin),
    extended to navigation atoms and guarded for SQL Null semantics —
    every answer is conservative: [true] is proven, [false] means
    "could not prove".

    Containment and equivalence here are {e set}-semantics statements,
    used for lints and candidate deduplication. {!minimize_query} is
    stronger: it only folds a duplicate FROM occurrence when the two
    occurrences are equated on a declared unique key
    ({!View.relation}'s [rel_keys]), which preserves results under bag
    semantics. *)

type occ_kind = Entry_occ | External_occ | Follow_occ

type occ = { kind : occ_kind; name : string }
(** One leaf of the plan: an entry point, an external relation, or a
    followed page-scheme, with its scheme or relation name. *)

type term = int * string list
(** An occurrence index and an attribute path within it. *)

type bound = Adm.Value.t * bool
(** A range bound and whether it is strict. *)

type cls = {
  members : term list;  (** sorted, distinct *)
  binding : Adm.Value.t option;
  lo : bound option;
  hi : bound option;
  excluded : Adm.Value.t list;  (** sorted, distinct *)
  nonnull : bool;
}
(** An equality class of terms and the constants it carries. *)

type residual = term * Pred.cmp * term
(** An attribute-attribute comparison ([<>], [<] or [<=]) between
    class roots. *)

type tableau = {
  occs : occ array;
  navs : (int * string list * int) list;
      (** source occurrence, link steps, target occurrence *)
  unnests : (int * string list) list;
  classes : cls array;
  cls_of : (term, int) Hashtbl.t;  (** every constrained term's class *)
  residuals : residual list;
  outputs : term list option;  (** the top projection, in order *)
  unsat : bool;
}
(** The canonical form; build with {!of_expr}. Exposed read-only in
    spirit so tests can check {!plan_key} against a brute-force
    enumeration. *)

val of_expr : Nalg.expr -> tableau option
(** Canonicalize a plan. [None] when the plan is outside the supported
    fragment (an attribute whose alias cannot be resolved, or a
    repeated alias) — callers fall back to structural comparison.
    Plans without a top-level projection canonicalize, but carry no
    output list: {!contains} cannot relate them and {!plan_key} falls
    back to the structural key. *)

val tableau_unsat : tableau -> bool

val unsat_expr : Nalg.expr -> bool
(** Static emptiness: the plan provably returns no rows on every
    instance (conflicting constant bindings, empty ranges, or an
    always-false atom such as [x < x]). Conservative: [false] means
    "not proven empty". Works on plans without a top projection too. *)

val unsat_pred : Pred.t -> bool
(** {!unsat_expr} for a bare conjunction: cross-atom refutation over
    attribute terms, e.g. [x = 3 ∧ x = 5] or [x < 2 ∧ x > 7] — deeper
    than {!Pred.normalize}, which only folds single atoms. *)

val contains : Nalg.expr -> Nalg.expr -> bool
(** [contains q1 q2]: every row of [q1] is a row of [q2], on every
    instance (set semantics). Proven by exhibiting a homomorphism from
    [q2]'s tableau into [q1]'s whose images imply [q2]'s constraints
    and match the outputs position-wise. Conservative. *)

val equiv : Nalg.expr -> Nalg.expr -> bool
(** Containment both ways. *)

val occ_sig : tableau -> int -> string
(** An occurrence's signature: kind, scheme or relation name, and for
    a followed page-scheme the link steps that reach it. Renumberings
    that {!plan_key} considers map occurrences only onto occurrences
    with the same signature. *)

val perm_cap : int
(** The most signature-respecting renumberings a tableau may have for
    {!plan_key} to label it; above it the key is structural. *)

val plan_key : Nalg.expr -> string
(** Equivalence-keyed canonical form: plans whose tableaux are
    isomorphic (equal up to a signature-respecting occurrence renaming
    — bag equivalence for the conjunctive fragment) share a key. The
    key is the tableau's encoding under a canonical numbering found by
    colour refinement, trying orders only among occurrences still tied
    after refinement. Falls back to {!Nalg.canonical} outside the
    supported fragment and when the signature groups admit more than
    {!perm_cap} renumberings, so the key is always at least as coarse
    as structural identity and never merges plans it cannot analyze. *)

val minimize_query :
  View.registry -> Conjunctive.t -> Conjunctive.t * Diagnostic.t list
(** Semantic minimization of a conjunctive query, sound under bag
    semantics:

    - the WHERE conjunction is normalized ({!Pred.normalize});
    - a FROM occurrence duplicating another occurrence of the same
      relation is folded into it when the two are equated on a
      declared unique key ([W0602] — this also drops the folded
      occurrence's default navigation from every plan; the residual
      [k = k] self-equality left by the fold is dropped too, since
      declared keys are non-null by {!View.relation}'s contract);
    - a provably empty query is reported ([E0601]) and returned
      otherwise untouched.

    The minimized query's SELECT renames folded aliases, so output
    {e values} are preserved position-wise while header names may
    change; {!Planner.enumerate} keeps the original SELECT list for
    display. *)

val analyze_query :
  View.registry -> Conjunctive.t -> Conjunctive.t * Diagnostic.t list
(** {!minimize_query} plus query-level findings: [W0604] when the
    minimized query reads a single relation. With an empty residual
    WHERE it is trivially answerable by scanning that registered
    view; otherwise the message names the residual filters that
    still apply. Returns the minimized query. *)
