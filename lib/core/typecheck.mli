(** The static analyzer: typed NALG inference, schema / registry /
    query lints, and the rewrite-soundness judgment the planner applies
    after every rule application.

    Diagnostic codes by pass:
    - [E0101]–[E0109] — NALG typing ({!infer});
    - [E0201]–[E0214], [W0210] — schema lint ({!lint_schema});
    - [E0301]–[E0308], [W0306], [W0307] — query lint ({!lint_query},
      {!lint_sql});
    - [E0402], [E0403] — rewrite soundness ({!soundness}); [W0401] and
      [E0404] are emitted by {!Planner.enumerate};
    - [E0501]–[E0503] — view-registry lint ({!lint_registry}). *)

type env = (string * Adm.Webtype.t) list
(** Ordered output environment of a NALG expression: exactly the names
    of [Nalg.output_attrs], in order, with their web types. *)

val pp_env : env Fmt.t

val scheme_env : Adm.Schema.t -> scheme:string -> alias:string -> env
(** Environment a page-scheme occurrence contributes: [alias.URL]
    first (typed [Link scheme]), then the declared attributes. Empty
    for unknown schemes. *)

val infer :
  ?views:(string -> (string * Adm.Webtype.t) list option) ->
  Adm.Schema.t ->
  Nalg.expr ->
  env * Diagnostic.t list
(** Bottom-up type inference over every subexpression. The environment
    is best-effort when diagnostics contain errors (unknown attributes
    default to [Text]); it is trustworthy exactly when no error is
    reported. Diagnostic paths point into the expression tree (see
    {!Explain.locate}).

    [?views] answers the declared attributes of a registered
    materialized view by name: when it returns [Some attrs] for an
    [External] occurrence, the occurrence types like a base scheme
    (each attribute qualified by the alias) instead of raising [E0107]
    — views become first-class access paths to the type system. *)

val unnest_fields :
  env -> string -> ((string * Adm.Webtype.t) list, string * string) result
(** [unnest_fields env attr]: the nested fields an unnest of [attr]
    exposes over an input typed [env], or [Error (code, message)] with
    the [E0104] (not a list) or [E0103] (unavailable) finding that
    rejects it. {!infer} and {!Physplan.lower} share this judgment. *)

val check : Adm.Schema.t -> Nalg.expr -> Diagnostic.t list
(** [check schema e = snd (infer schema e)]. *)

val env_compatible : env -> env -> bool
(** Same arity and positionally compatible types — output-shape
    equality up to aliasing and attribute renaming. *)

val soundness :
  Adm.Schema.t -> parent:Nalg.expr -> child:Nalg.expr -> Diagnostic.t list
(** Judge one rewrite step: [child] must typecheck ([E0402] otherwise)
    and keep an output environment compatible with [parent]'s
    ([E0403]). Returns [[]] when the step is sound, or when [parent]
    itself is ill-typed (no verdict possible). *)

val judge :
  parent:env * Diagnostic.t list ->
  child:env * Diagnostic.t list ->
  Diagnostic.t list
(** The judgment underlying {!soundness}, over pre-computed {!infer}
    results — lets the planner memoize inference across a closure. *)

val lint_schema : Adm.Schema.t -> Diagnostic.t list
(** Schema well-formedness beyond what {!Adm.Schema.make} enforces:
    unresolvable constraint paths, link constraints on non-links or
    with mismatched targets, multi-valued constraint ends, inclusions
    over non-links or differing targets, links to undeclared schemes,
    duplicate scheme / attribute names, missing entry points, and
    unreachable page-schemes (warning). *)

val relation_env : Adm.Schema.t -> View.relation -> env
(** The typed environment of an external relation, read off its first
    default navigation through the bindings. *)

val lint_registry : Adm.Schema.t -> View.registry -> Diagnostic.t list
(** Ill-typed default navigations ([E0501]), bindings to attributes a
    navigation does not produce ([E0502]), and attributes whose type
    differs across alternative navigations ([E0503]). *)

val lint_query :
  Adm.Schema.t -> View.registry -> Conjunctive.t -> Diagnostic.t list
(** Semantic checks on a conjunctive query: unknown relations /
    aliases / attributes, predicate type mismatches, disconnected FROM
    groups (Cartesian product warning), always-false conditions. *)

val lint_sql : Adm.Schema.t -> View.registry -> string -> Diagnostic.t list
(** {!lint_query} over a SQL string; syntax errors surface as a single
    [E0308] diagnostic instead of an exception. *)
