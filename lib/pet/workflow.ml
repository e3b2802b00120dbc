module Engine = Pet_rules.Engine
module Atlas = Pet_minimize.Atlas
module Strategy = Pet_game.Strategy

type t = {
  engine : Engine.t;
  atlas : Atlas.t;
  profile : Pet_game.Profile.t;
  payoff : Pet_game.Payoff.kind;
}

type grant = { form : Pet_valuation.Partial.t; benefits : string list }

let provider ?(backend = Engine.Bdd) ?(payoff = Pet_game.Payoff.Blank) exposure
    =
  Pet_obs.Span.enter "provider.create" @@ fun () ->
  let engine = Engine.create ~backend exposure in
  let atlas = Atlas.build engine in
  let profile = Strategy.compute ~payoff atlas in
  Engine.sync_obs engine;
  (* If a request trace is being captured, record what was built —
     sizes and the backend name, never form contents. *)
  Pet_obs.Trace.annotate "provider.backend"
    (Pet_obs.Trace.String (Engine.backend_name backend));
  Pet_obs.Trace.annotate "provider.players"
    (Pet_obs.Trace.Int (Atlas.player_count atlas));
  { engine; atlas; profile; payoff }

let engine t = t.engine
let atlas t = t.atlas
let profile t = t.profile

let report_for t v =
  match Atlas.find_player t.atlas v with
  | Some _ ->
    let weights = match t.payoff with Pet_game.Payoff.Weighted w -> Some w | _ -> None in
    Ok (Report.build ?weights t.atlas t.profile v)
  | None ->
    if
      not
        (Pet_rules.Exposure.satisfies_constraints
           (Engine.exposure t.engine) v)
    then Error "the filled form contradicts the form's consistency rules"
    else Error "this form grants no benefit; nothing needs to be sent"

let submit t w =
  if not (Engine.consistent t.engine w) then
    Error "submitted form is inconsistent with the rules"
  else
    match Engine.benefits t.engine w with
    | [] -> Error "submitted form proves no benefit"
    | benefits -> Ok { form = w; benefits }

let audit t { form; benefits } =
  Engine.consistent t.engine form
  && List.equal String.equal (Engine.benefits t.engine form) benefits

(* --- Whole-population views ---------------------------------------------------- *)

module Partial = Pet_valuation.Partial
module Profile = Pet_game.Profile
module Equilibrium = Pet_game.Equilibrium

let pp_atlas ppf t =
  Fmt.pf ppf "%a@." Atlas.pp_summary t.atlas;
  Fmt.pf ppf "@.%-20s %9s %8s %8s %9s@." "MAS" "potential" "forced" "plays" "payoff";
  let scorer = Pet_game.Payoff.scorer t.atlas t.payoff in
  for m = 0 to Atlas.mas_count t.atlas - 1 do
    let crowd = Profile.aggregate t.profile m in
    Fmt.pf ppf "%-20s %9d %8d %8d %9.0f@."
      (Partial.to_string (Atlas.mas t.atlas m).mas)
      (Atlas.crowd_size t.atlas m)
      (List.length (Atlas.forced_players_of_mas t.atlas m))
      crowd.count
      (Pet_game.Payoff.of_crowd t.atlas scorer ~mas:m crowd)
  done

let pp_population ~solidarity ppf t =
  let refined, converged = Equilibrium.refine t.profile t.payoff in
  let n = Atlas.player_count t.atlas in
  let xp_size =
    Pet_valuation.Universe.size (Pet_rules.Exposure.xp (Engine.exposure t.engine))
  in
  let blanks =
    List.fold_left
      (fun acc i -> acc + Partial.blank_count (Atlas.mas t.atlas (Profile.move_of refined i)).mas)
      0 (List.init n Fun.id)
  in
  Fmt.pf ppf "population: %d eligible valuations@." n;
  Fmt.pf ppf "equilibrium: Algorithm 2%s, Nash: %b@."
    (if Profile.equal t.profile refined then "" else " + best-response refinement")
    (converged && Equilibrium.is_nash refined t.payoff);
  Fmt.pf ppf "average minimization: %.1f%% of the form left blank@."
    (100. *. float_of_int blanks /. float_of_int (n * xp_size));
  if solidarity then
    for m = 0 to Atlas.mas_count t.atlas - 1 do
      match Pet_game.Solidarity.improve refined ~mas:m with
      | Some r -> Fmt.pf ppf "solidarity: %a@." Pet_game.Solidarity.pp r
      | None -> ()
    done

(* --- Measured runs ------------------------------------------------------------------ *)

let span_profile ppf ~source ~backend ~payoff ~samples exposure =
  Pet_obs.Metrics.enable ();
  let wall0 = Unix.gettimeofday () in
  (* Everything measurable runs under one root span, so the tree's
     per-phase totals account for the whole profiled wall-clock (the
     residue outside the root is the harness's own bookkeeping). *)
  let p =
    Pet_obs.Span.enter "profile" (fun () ->
        let p = provider ~backend ~payoff exposure in
        let n = min samples (Atlas.player_count p.atlas) in
        Pet_obs.Span.enter "reports" (fun () ->
            for i = 0 to n - 1 do
              ignore (report_for p (Atlas.player p.atlas i))
            done);
        p)
  in
  let wall = Unix.gettimeofday () -. wall0 in
  Engine.sync_obs p.engine;
  let profiled = Pet_obs.Span.total () in
  Fmt.pf ppf "profile %s (backend %s)@." source (Engine.backend_name backend);
  Fmt.pf ppf "%s" (Pet_obs.Span.render ~out_total:wall ());
  Fmt.pf ppf "profiled %.6fs of %.6fs wall-clock (%.1f%%)@." profiled wall
    (if wall > 0. then 100. *. profiled /. wall else 100.);
  Fmt.pf ppf "counters: %s@." (Pet_obs.Export.line (Pet_obs.Metrics.snapshot ()))

let trace_once ~source ~backend ~payoff exposure =
  let module Trace = Pet_obs.Trace in
  let id = Trace.generate_id () in
  Trace.run ~id (fun () ->
      Trace.annotate "source" (Trace.String source);
      Trace.annotate "backend" (Trace.String (Engine.backend_name backend));
      let p = provider ~backend ~payoff exposure in
      if Atlas.player_count p.atlas > 0 then ignore (report_for p (Atlas.player p.atlas 0)));
  Trace.find id
