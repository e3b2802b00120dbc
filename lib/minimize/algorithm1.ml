module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Engine = Pet_rules.Engine
module Exposure = Pet_rules.Exposure
module Rule = Pet_rules.Rule
module Code = Pet_compile.Code

type mode = Chain | Entail | Exact

type choice = { mas : Partial.t; benefits : string list }

let is_accurate engine v w =
  let v' = Partial.of_total v in
  Partial.subvaluation w v'
  && List.equal String.equal (Engine.benefits engine v') (Engine.benefits engine w)

let chain_close exposure w =
  let implications = Exposure.implications exposure in
  let holds w (l : Pet_logic.Literal.t) = Partial.value w l.var = Some l.sign in
  let step w =
    List.fold_left
      (fun w (premises, consequences) ->
        if List.for_all (holds w) premises then
          List.fold_left
            (fun w (l : Pet_logic.Literal.t) ->
              try Partial.set w l.var l.sign
              with Invalid_argument _ ->
                invalid_arg "Algorithm1.chain_close: contradictory chaining")
            w consequences
        else w)
      w implications
  in
  let rec fixpoint w =
    let w' = step w in
    if Partial.equal w w' then w else fixpoint w'
  in
  fixpoint w

let entail_close engine w =
  List.fold_left
    (fun acc (p, value) -> Partial.set acc p value)
    w
    (Engine.deduced_literals engine w)

(* --- Algorithm 1 on words -------------------------------------------------- *)

(* Every subvaluation Algorithm 1 considers for a valuation word [v] is
   [v] restricted to a domain mask, so a candidate is its domain word
   alone and its bits are [v land dom]. *)

(* A chainable constraint [premises -> consequences] of [R_ADD]: it
   fires on domain [dom] of [v] iff [dom] covers [pmask] and [v] carries
   [pbits] there; firing adds [cmask]. [v] satisfies [R_ADD], so its
   bits there are the consequences' signs. *)
type impl = { pmask : int; pbits : int; cmask : int }

(* A literal conjunction as [(mask, bits)]; [None] when it holds
   complementary literals. *)
let pack xp ls =
  List.fold_left
    (fun acc (l : Pet_logic.Literal.t) ->
      match acc with
      | None -> None
      | Some (mask, bits) ->
        let bit = 1 lsl Universe.index xp l.var in
        let b = if l.sign then bit else 0 in
        if mask land bit <> 0 && bits land bit <> b then None
        else Some (mask lor bit, bits lor b))
    (Some (0, 0)) ls

(* Contradictory premises never hold, and contradictory consequences
   make the premises false on every realistic valuation: such an
   implication never fires, so it is dropped. *)
let compile_implications xp exposure =
  List.filter_map
    (fun (premises, consequences) ->
      match pack xp premises, pack xp consequences with
      | Some (pmask, pbits), Some (cmask, _) -> Some { pmask; pbits; cmask }
      | _ -> None)
    (Exposure.implications exposure)
  |> Array.of_list

(* The fixpoint is unique, so saturating in array order reaches the one
   {!chain_close} reaches. *)
let chain_words impls v dom =
  let dom = ref dom and changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to Array.length impls - 1 do
      let i = impls.(k) in
      if
        !dom land i.pmask = i.pmask
        && v land i.pmask = i.pbits
        && !dom land i.cmask <> i.cmask
      then begin
        dom := !dom lor i.cmask;
        changed := true
      end
    done
  done;
  !dom

(* Entail mode: add every form predicate that [R] and the candidate
   force. A forced value is [v]'s own, since [v] is a consistent
   completion. *)
let entail_words engine xp v dom =
  List.fold_left
    (fun dom (p, _) -> dom lor (1 lsl Universe.index xp p))
    dom
    (Engine.deduced_literals engine
       (Partial.of_masks xp ~dom ~bits:(v land dom)))

(* Lines 5-13: the Cartesian product, across the granted benefits, of
   the conjunctions [v] satisfies; a product is the OR of their masks.
   The products alternate between [a] and [b], deduplicated after each
   benefit; the result is in the buffer returned. *)
let candidates conjs v granted (a : Wordbuf.t) (b : Wordbuf.t) =
  Wordbuf.clear a;
  Wordbuf.push a 0;
  let src = ref a and dst = ref b in
  for i = 0 to Array.length conjs - 1 do
    if granted land (1 lsl i) <> 0 then begin
      let s = !src and d = !dst in
      Wordbuf.clear d;
      let cs = conjs.(i) in
      for j = 0 to Array.length cs - 1 do
        let c = cs.(j) in
        if Code.conj_holds c v then
          for k = 0 to s.len - 1 do
            Wordbuf.push d (s.a.(k) lor c.Code.mask)
          done
      done;
      Wordbuf.sort_unique d;
      src := d;
      dst := s
    end
  done;
  !src

(* The domains of [src] with no strict subdomain among them, into
   [dst]. *)
let minimal_domains (src : Wordbuf.t) dst =
  Wordbuf.clear dst;
  for k = 0 to src.len - 1 do
    let d = src.a.(k) in
    let dominated = ref false and j = ref 0 in
    while (not !dominated) && !j < src.len do
      let d' = src.a.(!j) in
      if d' <> d && d' land d = d' then dominated := true;
      incr j
    done;
    if not !dominated then Wordbuf.push dst d
  done

(* Exact mode, Definition 3.13 verbatim: every subdomain of [v]'s. A
   restriction of [v] proves at most [v]'s benefits and more as its
   domain grows, so accuracy is upward closed and a domain is minimal
   iff dropping any one of its positions loses accuracy. *)
let exact_domains engine n v granted out =
  if n > 16 then invalid_arg "Algorithm1.mas_of ~mode:Exact: universe too large";
  let accurate = Bytes.make (1 lsl n) '\000' in
  for dom = 0 to (1 lsl n) - 1 do
    if Engine.benefit_mask engine ~dom ~bits:(v land dom) = granted then
      Bytes.set accurate dom '\001'
  done;
  let rec one_smaller dom rest =
    rest <> 0
    &&
    let bit = rest land -rest in
    Bytes.get accurate (dom lxor bit) = '\001' || one_smaller dom (rest lxor bit)
  in
  Wordbuf.clear out;
  for dom = 0 to (1 lsl n) - 1 do
    if Bytes.get accurate dom = '\001' && not (one_smaller dom dom) then
      Wordbuf.push out dom
  done

let obs_runs = Pet_obs.Metrics.counter "pet_algorithm1_runs_total"
let obs_mas = Pet_obs.Metrics.counter "pet_algorithm1_mas_total"

let mas_words ?(mode = Chain) engine =
  let exposure = Engine.exposure engine in
  let xp = Exposure.xp exposure in
  let n = Universe.size xp in
  let conjs = Exposure.conjunction_words exposure in
  let consistent = Exposure.consistent_word exposure in
  let close =
    match mode with
    | Chain -> chain_words (compile_implications xp exposure)
    | Entail | Exact -> entail_words engine xp
  in
  let a = Wordbuf.create () and b = Wordbuf.create () in
  fun v emit ->
    Pet_obs.Span.enter "algorithm1" @@ fun () ->
    Pet_obs.Metrics.incr obs_runs;
    if not (consistent v) then
      invalid_arg "Algorithm1.mas_of: valuation violates the constraints";
    let granted = ref 0 in
    for i = 0 to Array.length conjs - 1 do
      let cs = conjs.(i) in
      for j = 0 to Array.length cs - 1 do
        if Code.conj_holds cs.(j) v then granted := !granted lor (1 lsl i)
      done
    done;
    let granted = !granted in
    let selected =
      if granted = 0 then begin
        Wordbuf.clear a;
        Wordbuf.push a 0;
        a
      end
      else
        match mode with
        | Exact ->
          exact_domains engine n v granted a;
          a
        | Chain | Entail ->
          let c = candidates conjs v granted a b in
          for k = 0 to c.len - 1 do
            c.a.(k) <- close v c.a.(k)
          done;
          Wordbuf.sort_unique c;
          (* The accuracy filter, in place. *)
          let kept = ref 0 in
          for k = 0 to c.len - 1 do
            let dom = c.a.(k) in
            if Engine.benefit_mask engine ~dom ~bits:(v land dom) = granted
            then begin
              c.a.(!kept) <- dom;
              incr kept
            end
          done;
          Wordbuf.truncate c !kept;
          let out = if c == a then b else a in
          minimal_domains c out;
          out
    in
    Pet_obs.Metrics.add obs_mas selected.len;
    for k = 0 to selected.len - 1 do
      emit selected.a.(k)
    done;
    granted

let mas_of ?mode engine =
  let words = mas_words ?mode engine in
  let xp = Exposure.xp (Engine.exposure engine) in
  let xb = Exposure.xb (Engine.exposure engine) in
  fun v ->
    let bits = Total.bits v in
    let selected = ref [] in
    let granted = words bits (fun dom -> selected := dom :: !selected) in
    let benefits =
      List.filteri (fun i _ -> granted land (1 lsl i) <> 0) (Universe.names xb)
    in
    !selected
    |> List.map (fun dom -> Partial.of_masks xp ~dom ~bits:(bits land dom))
    |> List.sort Partial.compare_lex
    |> List.map (fun mas -> { mas; benefits })

(* Benefits proven by direct conjunction satisfaction: some conjunction of
   the benefit's DNF has all its literals bound with the right sign. This
   is the proof notion under which Algorithm 1's Chain/Entail modes are
   minimal: their candidates are products of directly satisfied
   conjunctions, so minimality must be judged against direct proofs, not
   against full entailment (a constraint can make a strictly smaller
   subvaluation entail the same benefits without directly proving them). *)
let directly_proven exposure w =
  let holds (l : Pet_logic.Literal.t) = Partial.value w l.var = Some l.sign in
  List.filter_map
    (fun (r : Rule.t) ->
      if List.exists (List.for_all holds) (Rule.conjunctions r) then
        Some r.benefit
      else None)
    (Exposure.rules exposure)

let same_benefits a b =
  List.equal String.equal
    (List.sort String.compare a)
    (List.sort String.compare b)

let is_minimal ?(mode = Chain) engine w ~benefits =
  let exposure = Engine.exposure engine in
  match mode with
  | Exact ->
    (* Accuracy is interval-closed (benefits grow monotonically with the
       subvaluation), so 1-minimality equals Definition 3.13 minimality. *)
    List.for_all
      (fun p ->
        not
          (same_benefits (Engine.benefits engine (Partial.unset w p)) benefits))
      (Partial.domain w)
  | Chain | Entail ->
    let close =
      match mode with
      | Chain -> chain_close exposure
      | Entail | Exact -> entail_close engine
    in
    List.for_all
      (fun p ->
        let smaller = close (Partial.unset w p) in
        (* A dropped literal the closure rederives does not yield a
           strictly smaller published MAS. *)
        Partial.equal smaller w
        || not (same_benefits (directly_proven exposure smaller) benefits))
      (Partial.domain w)

let potential_players engine m =
  let proves = Engine.benefits engine m in
  List.filter
    (fun v ->
      List.equal String.equal (Engine.benefits_of_total engine v) proves)
    (Partial.extensions m)
