(** Reduced ordered binary decision diagrams with hash-consing.

    Variables are 0-based integers ordered by their index (variable 0 is
    closest to the root). The operations that build BDDs are implemented
    on top of a memoized [ite] and a memoized {!restrict}, and run in
    time polynomial in the BDD sizes. Used by the rules engine as a bulk
    backend: compile the rule set [R] once, then answer every entailment
    query under a partial valuation with one {!walk}, which reads the
    BDD and adds no node to it. *)

type man
(** A manager owns the node arena and the operation caches. Nodes from
    different managers must not be mixed (unchecked). *)

type node = int
(** BDD node handle. The terminals {!zero} and {!one} are shared by all
    managers. *)

val man : unit -> man
val zero : node
val one : node

val var : man -> int -> node
(** The BDD of the positive literal of variable [i]; [i >= 0]. *)

val nvar : man -> int -> node
val neg : man -> node -> node
val conj : man -> node -> node -> node
val disj : man -> node -> node -> node
val xor : man -> node -> node -> node
val imp : man -> node -> node -> node
val iff : man -> node -> node -> node
val ite : man -> node -> node -> node -> node

val conj_list : man -> node list -> node
val disj_list : man -> node list -> node

val restrict : man -> node -> int -> bool -> node
(** Cofactor: fix one variable to a constant. Memoized per call, so it
    rebuilds each node above the variable once: linear in the BDD. *)

val exists : man -> int list -> node -> node
(** Existential quantification over a set of variables, one memoized
    {!restrict} pair and a {!disj} per variable. *)

type walk = private {
  mutable sat : bool;  (** [f /\ cube] is satisfiable *)
  mutable lower_true : int;
      (** bit [i]: some model of [f /\ cube] sets variable [i] true *)
  mutable lower_false : int;  (** the same for false *)
  mutable upper_true : int;
      (** bit [i]: some model sets variable [upper + i] true *)
  mutable upper_false : int;  (** the same for false *)
}
(** The answer of one {!walk}. The four masks are 0 when [sat] is
    false. *)

val walk : man -> node -> dom:int -> bits:int -> upper:int -> walk
(** [walk m f ~dom ~bits ~upper] answers every satisfiability question
    about [f] under the cube that binds each variable [i] in [dom] (a
    mask over variables [0 .. Sys.int_size - 1]) to bit [i] of [bits],
    in one memoized pass over the nodes of [f] the cube reaches. It
    reports, for two windows of [Sys.int_size] variables each, the lower
    one from variable 0 and the upper one from variable [upper], which
    values the models of [f /\ cube] give each variable. It creates no
    node, and allocates nothing once the manager's per-node scratch
    (int arrays, grown by doubling with the node count) covers the
    arena: the result is the manager's own record, overwritten by the
    next walk. Like every operation here, it assumes one domain uses the
    manager at a time. *)

val support : man -> node -> int list
(** Variables the function actually depends on, ascending. *)

val eval : man -> node -> (int -> bool) -> bool

val is_tautology : node -> bool
val is_unsat : node -> bool

val count_models : man -> nvars:int -> node -> int
(** Number of models over variables [0 .. nvars-1]. All variables in the
    node's support must be below [nvars].
    @raise Invalid_argument otherwise, or when the count overflows. *)

val iter_models : man -> nvars:int -> node -> (bool array -> unit) -> unit
(** Enumerate all models over variables [0 .. nvars-1]. The array passed
    to the callback is reused between calls. *)

val any_model : man -> nvars:int -> node -> bool array option

val size : man -> node -> int
(** Number of distinct internal nodes reachable from the root. *)

val node_count : man -> int
(** Total number of nodes allocated in the manager (arena usage). *)

type stats = {
  nodes : int;  (** same as {!node_count} *)
  ite_calls : int;
      (** memoized [ite] entries since manager creation; the constant-time
          short-circuit cases ([f] terminal, [g = h], ...) are not
          counted *)
  ite_cache_hits : int;  (** of which were answered from the cache *)
}

val stats : man -> stats
(** Per-manager operation counters, maintained unconditionally (an
    integer increment each — too cheap to gate). The observability layer
    surfaces them as gauges; see [Pet_rules.Engine.sync_obs]. *)
