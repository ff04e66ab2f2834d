(** Equivalent rewritings over path views with binding patterns.

    Form and service endpoints are path views: callable only with
    their input parameters bound, returning pages of output
    attributes. On a form-only site no navigation-only plan exists;
    the search of this module (after Romero, Preda and Suchanek,
    "Equivalent rewritings on path views with binding patterns")
    discovers compositions of calls in which every input is bound by a
    query constant or by an output of an earlier call, and emits them
    as ordinary {!Webviews.Nalg.Call} plans for the planner to cost
    and the executor to run. *)

type origin = OConst of string | OAttr of string
(** How a logical name is bound inside a search state: by a query
    constant, or carried by a plan attribute of the chain built so
    far. *)

type path_view = {
  pv_name : string;
  pv_scheme : string;
  pv_inputs : string list;
      (** logical names consumed, positionally matching the scheme's
          declared parameters *)
  pv_unnest : string list;
      (** nested-list attributes unnested after the call, outermost
          first *)
  pv_outputs : (string * string) list;
      (** logical name -> attribute relative to the call's alias *)
}

val path_view :
  ?unnest:string list ->
  ?outputs:(string * string) list ->
  name:string -> scheme:string -> inputs:string list -> unit -> path_view

val of_schema : Adm.Schema.t -> path_view list
(** One path view per parameterized page-scheme: inputs are its param
    names, outputs its mono-valued attributes under their own names. *)

val decoys :
  ?width:int -> ?hooks:string list -> seed:int -> n:int -> unit ->
  path_view list
(** [n] synthetic one-step services over a vocabulary of [width]
    entity names, for search-scaling experiments. A fraction take a
    name from [hooks] as input, so they are callable from real query
    constants; none outputs a real name, so no decoy is relevant to a
    query and {!search} trims them all before it expands a state.
    Deterministic in [seed]. *)

type config = {
  views : path_view list;
  vocab : (string * (string * string) list) list;
      (** external relation -> (relation attribute -> logical name) *)
}

val config :
  views:path_view list -> vocab:(string * (string * string) list) list ->
  config

val add_views : config -> path_view list -> config

type search_report = {
  rewritings : Webviews.Nalg.expr list;
      (** executable compositions, fewest calls first *)
  explored : int;  (** binding states expanded *)
  truncated : bool;  (** the state cap stopped the search *)
}

val search :
  ?max_states:int -> ?max_results:int -> ?max_calls:int ->
  config -> Adm.Schema.t -> Webviews.Conjunctive.t -> search_report
(** Breadth-first search over binding states (sets of bound logical
    names), seeded by the query's equality constants, through the
    views relevant to the query only. The query's useful names are the
    least set holding its SELECT and WHERE names and every input of a
    view with a useful output; a view is relevant when it outputs a
    useful name. Every call of an emitted rewriting is relevant, so
    the trimming loses none. Every returned plan is executable — calls
    appear in an order where each argument is bound upstream — and
    covers the query's SELECT and WHERE under the vocabulary. *)

val planner_hook :
  ?max_states:int -> ?max_results:int -> ?max_calls:int ->
  config -> Adm.Schema.t -> Webviews.Conjunctive.t -> Webviews.Nalg.expr list
(** The function to pass as [?bindings] to
    {!Webviews.Planner.enumerate}: rewriting candidates for a
    (minimized) conjunctive query. *)

val lint :
  ?max_states:int ->
  config -> Adm.Schema.t -> Webviews.Conjunctive.t ->
  Webviews.Diagnostic.t list
(** [E0111] when the vocabulary covers the query but no executable
    composition answers it; empty when a rewriting exists or the
    query is outside the vocabulary. The message names the SELECT and
    WHERE logical names that no chain of relevant views can bind from
    the query's constants, and how many registered views were
    relevant. *)

val pp_path_view : path_view Fmt.t

(** {2 Search steps}

    The steps {!search} is made of, exposed so that a reference search
    can run exactly the same steps over an untrimmed registry. *)

type state = {
  bound : (string * origin) list;  (** logical name -> how it is bound *)
  expr : Webviews.Nalg.expr option;  (** the call chain so far *)
  taken : string list;  (** aliases used by the chain *)
  calls : int;
}

type goal
(** A conjunctive query read under the vocabulary. *)

val read_query : config -> Webviews.Conjunctive.t -> goal option
(** [None] when a FROM relation or an attribute of the query has no
    logical name: the search does not apply. *)

val seeds : goal -> (string * string) list
(** The query's equality constants: logical name -> value. *)

val apply : Adm.Schema.t -> state -> path_view -> state option
(** One call: [None] when an input is unbound, when a first call would
    need a row-valued argument, or when the call binds nothing new. *)

val finish : goal -> state -> Webviews.Nalg.expr option
(** The finished plan when [state] answers the goal and every call of
    its chain contributes to the answer. *)

val signature : state -> string
(** The deduplication key of a state: which names are bound, and
    whether each as a constant or a plan attribute. *)
