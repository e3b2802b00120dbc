module Atlas = Pet_minimize.Atlas

type t = {
  atlas : Atlas.t;
  moves : int array; (* player index -> mas index *)
  (* Per MAS index, the aggregate of its crowd (see {!Crowd}). *)
  ones : int array;
  zeros : int array;
  count : int array;
}

(* Whether MAS [m] is among player [i]'s choices from the [k]-th on. *)
let rec has_choice atlas i m k =
  k < Atlas.choice_count atlas i
  && (Atlas.choice atlas i k = m || has_choice atlas i m (k + 1))

let make atlas moves =
  if Array.length moves <> Atlas.player_count atlas then
    invalid_arg "Profile.make: not one move per player";
  let nm = Atlas.mas_count atlas in
  let ones = Array.make nm 0
  and zeros = Array.make nm 0
  and count = Array.make nm 0 in
  Array.iteri
    (fun i m ->
      if not (has_choice atlas i m 0) then
        invalid_arg
          (Printf.sprintf "Profile.make: MAS %d is not a choice of player %d"
             m i);
      let bits = Atlas.player_bits atlas i in
      ones.(m) <- ones.(m) lor bits;
      zeros.(m) <- zeros.(m) lor lnot bits;
      count.(m) <- count.(m) + 1)
    moves;
  { atlas; moves; ones; zeros; count }

let atlas t = t.atlas

let move_of t i =
  if i < 0 || i >= Array.length t.moves then
    invalid_arg "Profile.move_of: out of range";
  t.moves.(i)

let check_mas t m name =
  if m < 0 || m >= Array.length t.count then
    invalid_arg ("Profile." ^ name ^ ": out of range")

let aggregate t m =
  check_mas t m "aggregate";
  Crowd.make ~ones:t.ones.(m) ~zeros:t.zeros.(m) ~count:t.count.(m)

let crowd_size t m =
  check_mas t m "crowd_size";
  t.count.(m)

let crowd t m =
  check_mas t m "crowd";
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if t.moves.(i) = m then i :: acc else acc)
  in
  go (Array.length t.moves - 1) []

let move_of_valuation t v =
  match Atlas.find_player t.atlas v with
  | Some i -> Atlas.mas t.atlas t.moves.(i)
  | None -> raise Not_found

let equal a b = a.atlas == b.atlas && a.moves = b.moves
