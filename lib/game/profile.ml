module Atlas = Pet_minimize.Atlas

type t = {
  atlas : Atlas.t;
  moves : int array; (* player index -> mas index *)
  crowds : int list array; (* mas index -> player indices, ascending *)
}

(* Whether MAS [m] is among player [i]'s choices from the [k]-th on. *)
let rec has_choice atlas i m k =
  k < Atlas.choice_count atlas i
  && (Atlas.choice atlas i k = m || has_choice atlas i m (k + 1))

let make atlas f =
  let n = Atlas.player_count atlas in
  let moves =
    Array.init n (fun i ->
        let m = f i in
        if not (has_choice atlas i m 0) then
          invalid_arg
            (Printf.sprintf "Profile.make: MAS %d is not a choice of player %d"
               m i);
        m)
  in
  let crowds = Array.make (Atlas.mas_count atlas) [] in
  for i = n - 1 downto 0 do
    crowds.(moves.(i)) <- i :: crowds.(moves.(i))
  done;
  { atlas; moves; crowds }

let atlas t = t.atlas

let move_of t i =
  if i < 0 || i >= Array.length t.moves then
    invalid_arg "Profile.move_of: out of range";
  t.moves.(i)

let crowd t m =
  if m < 0 || m >= Array.length t.crowds then
    invalid_arg "Profile.crowd: out of range";
  t.crowds.(m)

let crowd_size t m = List.length (crowd t m)

let move_of_valuation t v =
  match Atlas.find_player t.atlas v with
  | Some i -> Atlas.mas t.atlas t.moves.(i)
  | None -> raise Not_found

let equal a b = a.atlas == b.atlas && a.moves = b.moves
