module F = Pet_logic.Formula
module Cnf = Pet_logic.Cnf
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Solver = Pet_sat.Solver
module Lit = Pet_sat.Lit
module Bdd = Pet_bdd.Bdd
module Code = Pet_compile.Code

type backend = Brute | Sat | Bdd | Compiled

type impl =
  | Ibrute
  | Isat of Solver.t
  | Ibdd of { man : Bdd.man; r : Bdd.node; lock : Mutex.t }
      (* a walk writes the manager's scratch, so one runs at a time *)
  | Icode of Code.t

type t = { e : Exposure.t; kind : backend; impl : impl }

(* Variable numbering shared by the SAT and BDD backends: form predicates
   first (their universe order), then benefits. *)
let base_index e name =
  let xp = Exposure.xp e and xb = Exposure.xb e in
  match Universe.index_opt xp name with
  | Some i -> Some i
  | None -> (
    match Universe.index_opt xb name with
    | Some i -> Some (Universe.size xp + i)
    | None -> None)

let fresh_prefix = "@tseitin"

let make_sat e =
  let solver = Solver.create () in
  let np = Universe.size (Exposure.xp e) in
  let nb = Universe.size (Exposure.xb e) in
  Solver.ensure_nvars solver (np + nb);
  let aux = Hashtbl.create 64 in
  let var_of name =
    match base_index e name with
    | Some i -> i
    | None -> (
      match Hashtbl.find_opt aux name with
      | Some i -> i
      | None ->
        let i = Solver.new_var solver in
        Hashtbl.add aux name i;
        i)
  in
  let clauses = Cnf.tseitin ~fresh_prefix (Exposure.to_formula e) in
  List.iter
    (fun clause ->
      Solver.add_clause solver
        (List.map
           (fun (l : Pet_logic.Literal.t) -> Lit.make (var_of l.var) l.sign)
           clause))
    clauses;
  Isat solver

let make_bdd e =
  let man = Bdd.man () in
  let index name =
    match base_index e name with
    | Some i -> i
    | None -> assert false (* formulas only mention Xp u Xb *)
  in
  let rec compile = function
    | F.True -> Bdd.one
    | F.False -> Bdd.zero
    | F.Var x -> Bdd.var man (index x)
    | F.Not f -> Bdd.neg man (compile f)
    | F.And (a, b) -> Bdd.conj man (compile a) (compile b)
    | F.Or (a, b) -> Bdd.disj man (compile a) (compile b)
    | F.Implies (a, b) -> Bdd.imp man (compile a) (compile b)
    | F.Iff (a, b) -> Bdd.iff man (compile a) (compile b)
  in
  Ibdd { man; r = compile (Exposure.to_formula e); lock = Mutex.create () }

let make_code e =
  Icode
    (Code.create ~xp:(Exposure.xp e)
       ~benefits:(Universe.names (Exposure.xb e))
       ~rule:(fun b -> (Exposure.rule_for e b).Rule.dnf)
       ~constraints:(Exposure.constraints e))

let backend_name = function
  | Brute -> "brute"
  | Sat -> "sat"
  | Bdd -> "bdd"
  | Compiled -> "compiled"

let obs_queries kind =
  Pet_obs.Metrics.counter
    ~labels:[ ("backend", backend_name kind) ]
    "pet_engine_queries_total"

let obs_queries_brute = obs_queries Brute
let obs_queries_sat = obs_queries Sat
let obs_queries_bdd = obs_queries Bdd
let obs_queries_compiled = obs_queries Compiled
let obs_bdd_nodes = Pet_obs.Metrics.gauge "pet_bdd_nodes"
let obs_bdd_ite = Pet_obs.Metrics.gauge "pet_bdd_ite_calls"
let obs_bdd_hits = Pet_obs.Metrics.gauge "pet_bdd_ite_cache_hits"

let create ?(backend = Sat) e =
  let impl =
    Pet_obs.Span.enter
      ("engine.compile." ^ backend_name backend)
      (fun () ->
        match backend with
        | Brute -> Ibrute
        | Sat -> make_sat e
        | Bdd -> make_bdd e
        | Compiled ->
          (* Above the tabulation threshold the compiled backend keeps
             its name but answers through a BDD: callers choose
             [Compiled] for speed, not for a representation, and the
             differential harness must be able to drive it at every
             form size. *)
          if
            Universe.size (Exposure.xp e) <= Code.max_tabulated_predicates
          then make_code e
          else make_bdd e)
  in
  { e; kind = backend; impl }

let backend t = t.kind
let exposure t = t.e

(* --- Brute-force backend ------------------------------------------------ *)

(* Consistent completions of [w] over the form universe. *)
let brute_completions e w =
  List.filter (Exposure.satisfies_constraints e) (Partial.extensions w)

let brute_consistent e w = brute_completions e w <> []

let brute_entails_benefit e w b =
  List.for_all
    (fun v -> List.mem b (Exposure.benefits_of_assignment e (Total.rho v)))
    (brute_completions e w)

let brute_entails_literal e w p value =
  List.for_all
    (fun v -> Bool.equal (Total.value v p) value)
    (brute_completions e w)

(* --- SAT backend ---------------------------------------------------------- *)

(* The bound positions of [(dom, bits)] as assumptions, ascending; the
   form predicates are solver variables [0 .. n-1]. *)
let sat_assumptions ~dom ~bits =
  let rec from i =
    if dom lsr i = 0 then []
    else if dom land (1 lsl i) = 0 then from (i + 1)
    else Lit.make i (bits land (1 lsl i) <> 0) :: from (i + 1)
  in
  from 0

let sat_refutes solver ~dom ~bits extra =
  (* Is [R /\ (dom, bits) /\ extra] unsatisfiable? *)
  Solver.solve ~assumptions:(extra :: sat_assumptions ~dom ~bits) solver
  = Solver.Unsat

(* --- BDD backend ------------------------------------------------------------ *)

(* One walk of [r] under the cube [(dom, bits)], and [read] of its
   answer: the form predicates are BDD variables [0 .. np-1], the walk's
   lower window, and the benefits follow from [np], its upper window.
   The walk writes the manager's epoch, memo arrays and result record,
   and an engine may be shared by domains (a tenant's artifact serves
   every shard), so the walk and the read run under the engine's lock.
   [read] is a closed function, so a query still allocates nothing. *)
let bdd_walk t man r lock ~dom ~bits read =
  let upper = Universe.size (Exposure.xp t.e) in
  Mutex.lock lock;
  match read (Bdd.walk man r ~dom ~bits ~upper) with
  | answer ->
    Mutex.unlock lock;
    answer
  | exception e ->
    Mutex.unlock lock;
    raise e

let upper_false w = w.Bdd.upper_false
let lower_true w = w.Bdd.lower_true
let lower_false w = w.Bdd.lower_false

(* --- Dispatch ------------------------------------------------------------------ *)

let check_universe t w =
  if not (Universe.equal (Partial.universe w) (Exposure.xp t.e)) then
    invalid_arg "Engine: valuation universe differs from the form universe"

let count_query t =
  if Pet_obs.Metrics.enabled () then
    Pet_obs.Metrics.incr
      (match t.kind with
      | Brute -> obs_queries_brute
      | Sat -> obs_queries_sat
      | Bdd -> obs_queries_bdd
      | Compiled -> obs_queries_compiled)

let sync_obs t =
  match t.impl with
  | Ibdd { man; lock; _ } ->
    let s = Mutex.protect lock (fun () -> Bdd.stats man) in
    Pet_obs.Metrics.set_gauge obs_bdd_nodes (float_of_int s.Bdd.nodes);
    Pet_obs.Metrics.set_gauge obs_bdd_ite (float_of_int s.Bdd.ite_calls);
    Pet_obs.Metrics.set_gauge obs_bdd_hits (float_of_int s.Bdd.ite_cache_hits)
  | Ibrute | Isat _ | Icode _ -> ()

let consistent t w =
  check_universe t w;
  count_query t;
  let dom = Partial.domain_mask w and bits = Partial.bits w in
  match t.impl with
  | Ibrute -> brute_consistent t.e w
  | Isat solver ->
    Solver.solve ~assumptions:(sat_assumptions ~dom ~bits) solver = Solver.Sat
  | Ibdd { man; r; lock } ->
    bdd_walk t man r lock ~dom ~bits (fun w -> w.Bdd.sat)
  | Icode c -> Code.consistent c ~dom ~bits

let benefit_index t b =
  Universe.size (Exposure.xp t.e) + Universe.index (Exposure.xb t.e) b

let entails_benefit t w b =
  check_universe t w;
  count_query t;
  let dom = Partial.domain_mask w and bits = Partial.bits w in
  match t.impl with
  | Ibrute ->
    ignore (Universe.index (Exposure.xb t.e) b);
    brute_entails_benefit t.e w b
  | Isat solver ->
    sat_refutes solver ~dom ~bits (Lit.make (benefit_index t b) false)
  | Ibdd { man; r; lock } ->
    let bit = 1 lsl Universe.index (Exposure.xb t.e) b in
    bdd_walk t man r lock ~dom ~bits upper_false land bit = 0
  | Icode c ->
    Code.entails_benefit c ~dom ~bits (Universe.index (Exposure.xb t.e) b)

(* Bit [i] of the result set iff [entailed i], for each of [nb]
   benefits. *)
let each_benefit nb entailed =
  let rec go i acc =
    if i = nb then acc
    else go (i + 1) (if entailed i then acc lor (1 lsl i) else acc)
  in
  go 0 0

(* Bit [i] set iff [(dom, bits)] entails benefit [i]: one query for every
   benefit. The compiled and BDD answers allocate nothing. *)
let benefit_mask t ~dom ~bits =
  let xp = Exposure.xp t.e and xb = Exposure.xb t.e in
  let np = Universe.size xp and nb = Universe.size xb in
  if dom < 0 || dom lsr np <> 0 || bits land lnot dom <> 0 then
    invalid_arg "Engine.benefit_mask: words outside the form universe";
  count_query t;
  match t.impl with
  | Icode c -> Code.benefit_mask c ~dom ~bits
  | Ibdd { man; r; lock } ->
    lnot (bdd_walk t man r lock ~dom ~bits upper_false) land ((1 lsl nb) - 1)
  | Isat solver ->
    each_benefit nb (fun i ->
        sat_refutes solver ~dom ~bits (Lit.make (np + i) false))
  | Ibrute ->
    let w = Partial.of_masks xp ~dom ~bits in
    each_benefit nb (fun i ->
        brute_entails_benefit t.e w (Universe.name xb i))

let benefits t w =
  check_universe t w;
  let mask =
    benefit_mask t ~dom:(Partial.domain_mask w) ~bits:(Partial.bits w)
  in
  List.filteri
    (fun i _ -> mask land (1 lsl i) <> 0)
    (Universe.names (Exposure.xb t.e))

let benefits_of_total t v =
  Exposure.benefits_of_assignment t.e (Total.rho v)

(* Does [w] force predicate [p] to [value]? Uncounted: each public
   query counts once. *)
let forces t w p value =
  let i = Universe.index (Exposure.xp t.e) p in
  let dom = Partial.domain_mask w and bits = Partial.bits w in
  match t.impl with
  | Ibrute -> brute_entails_literal t.e w p value
  | Isat solver -> sat_refutes solver ~dom ~bits (Lit.make i (not value))
  | Ibdd { man; r; lock } ->
    bdd_walk t man r lock ~dom ~bits
      (if value then lower_false else lower_true)
    land (1 lsl i)
    = 0
  | Icode c -> Code.entails_literal c ~dom ~bits i value

let entails_literal t w p value =
  check_universe t w;
  count_query t;
  forces t w p value

let deduced_literals t w =
  check_universe t w;
  count_query t;
  let forced =
    match t.impl with
    | Ibdd { man; r; lock } ->
      (* One walk decides every predicate. *)
      let can_true, can_false =
        bdd_walk t man r lock ~dom:(Partial.domain_mask w)
          ~bits:(Partial.bits w) (fun w -> (w.Bdd.lower_true, w.Bdd.lower_false))
      in
      fun p value ->
        let bit = 1 lsl Universe.index (Exposure.xp t.e) p in
        (if value then can_false else can_true) land bit = 0
    | Ibrute | Isat _ | Icode _ -> forces t w
  in
  List.filter_map
    (fun p ->
      if Partial.defines w p then None
      else if forced p true then Some (p, true)
      else if forced p false then Some (p, false)
      else None)
    (Universe.names (Exposure.xp t.e))

let all_backends = [ Brute; Sat; Bdd; Compiled ]
let pp_backend ppf b = Fmt.string ppf (backend_name b)
