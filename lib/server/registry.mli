(** The compiled-engine cache.

    Building a provider ({!Pet_pet.Workflow.provider}) means compiling
    the rules into an engine, enumerating the MAS atlas and solving the
    equilibrium — seconds of work for real forms. The service therefore
    compiles each distinct rule set once and shares the result across
    every session that uses it, keyed by {!digest} of the canonical rule
    text. The cache is LRU-bounded and instrumented: hit/miss/eviction
    counters feed the [stats] endpoint. *)

type 'a t

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val digest : string -> string
(** Content digest of a rule-spec text (32 hex chars). Callers digest the
    {e canonical} rendering ({!Pet_rules.Spec.to_string} of the parsed
    problem) so that formatting or rule-order differences map to the same
    key. *)

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 16. @raise Invalid_argument when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Counting lookup: updates the hit/miss counters and the LRU clock. *)

val peek : 'a t -> string -> 'a option
(** Non-counting lookup for internal re-reads (a [get_report] fetching
    the engine its session already resolved); still refreshes the LRU
    clock, which makes a {e recently used} entry safe from the next
    eviction. That is weaker than a pin: an idle session's engine can
    still be evicted by enough later inserts — e.g. a burst of tenant
    version swaps — and the service then recompiles it from the
    retained rule text (durable store, shard-shared texts, or the
    tenant registry, all of which outlive the cache) rather than
    failing the session. Only when no text was retained anywhere does
    the session's next request fail, with the offending digest in the
    [unknown_rules] message. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (replacing any previous binding), evicting the least recently
    used entry when the cache is full. *)

val find_or_add : ?count:bool -> 'a t -> string -> (unit -> 'a) -> 'a * bool
(** Counting lookup-or-build; the boolean is [true] on a hit.
    [count:false] leaves the counters alone, for a caller whose own
    {!find} already counted the miss. *)

val stats : 'a t -> stats
