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

let copy t =
  {
    t with
    moves = Array.copy t.moves;
    ones = Array.copy t.ones;
    zeros = Array.copy t.zeros;
    count = Array.copy t.count;
  }

(* The target's crowd is joined in O(1); an OR cannot be undone, so the
   source's is recounted over the players that can play it. *)
let move t i m =
  if i < 0 || i >= Array.length t.moves then
    invalid_arg "Profile.move: out of range";
  if not (has_choice t.atlas i m 0) then
    invalid_arg
      (Printf.sprintf "Profile.move: MAS %d is not a choice of player %d" m i);
  let from = t.moves.(i) in
  if from <> m then begin
    t.moves.(i) <- m;
    let bits = Atlas.player_bits t.atlas i in
    t.ones.(m) <- t.ones.(m) lor bits;
    t.zeros.(m) <- t.zeros.(m) lor lnot bits;
    t.count.(m) <- t.count.(m) + 1;
    let ones = ref 0 and zeros = ref 0 in
    for k = 0 to Atlas.crowd_size t.atlas from - 1 do
      let j = Atlas.crowd_member t.atlas from k in
      if t.moves.(j) = from then begin
        let bits = Atlas.player_bits t.atlas j in
        ones := !ones lor bits;
        zeros := !zeros lor lnot bits
      end
    done;
    t.ones.(from) <- !ones;
    t.zeros.(from) <- !zeros;
    t.count.(from) <- t.count.(from) - 1
  end

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
