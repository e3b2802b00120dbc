type t = { ones : int; zeros : int; count : int }

let empty = { ones = 0; zeros = 0; count = 0 }
let make ~ones ~zeros ~count = { ones; zeros; count }

let add c bits =
  { ones = c.ones lor bits; zeros = c.zeros lor lnot bits; count = c.count + 1 }

let join atlas c i = add c (Pet_minimize.Atlas.player_bits atlas i)
let of_players atlas = List.fold_left (join atlas) empty
