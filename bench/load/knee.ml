(* The knee search: the highest offered rate that passes a probe.

   Probes start at [start] and step up by [step] while they pass (down
   while they fail, if the very first one fails); once a passing and a
   failing rate bracket the knee, the bracket is bisected geometrically
   until its ends are within [resolution] of each other. [max_probes]
   bounds the search when the run's time budget is tight; the answer is
   then the best passing rate seen. *)

type probe = { rate : float; pass : bool }

let search ?(step = 1.25) ?(resolution = 0.04) ~max_probes ~start probe =
  let rec go n ~pass ~fail r acc =
    if n >= max_probes then (pass, List.rev acc)
    else
      let ok = probe r in
      let acc = { rate = r; pass = ok } :: acc in
      let pass = if ok then Some r else pass
      and fail = if ok then fail else Some r in
      match (pass, fail) with
      | Some p, Some f ->
        if f /. p <= 1. +. resolution then (pass, List.rev acc)
        else go (n + 1) ~pass ~fail (Float.sqrt (p *. f)) acc
      | Some p, None -> go (n + 1) ~pass ~fail (p *. step) acc
      | None, Some f -> go (n + 1) ~pass ~fail (f /. step) acc
      | None, None -> assert false
  in
  go 0 ~pass:None ~fail:None start []
