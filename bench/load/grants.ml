(* The grant ids of a write-ahead log, one ledger at a time.

   A (tenant, rules) ledger numbers its grants 0, 1, 2, ... With two
   server domains, two shards take ids from the shared counter and can
   reach the WAL writer in the opposite order; a shard that is preempted
   meanwhile can fall behind by more than one grant. That reordering is
   tolerated. A missing or repeated id is not: it is a lost or
   corrupted grant. *)

(* The number of ids logged after a larger one, or, when the ids are not
   0 .. n-1 in some order, the smallest one missing. *)
let out_of_order ids =
  let n = List.length ids in
  let seen = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then seen.(i) <- true) ids;
  match Array.find_index not seen with
  | Some missing ->
    Error (Printf.sprintf "grant %d is not in the log, which holds %d grants" missing n)
  | None ->
    let late, _ =
      List.fold_left
        (fun (late, top) i -> if i < top then (late + 1, top) else (late, i))
        (0, -1) ids
    in
    Ok late
