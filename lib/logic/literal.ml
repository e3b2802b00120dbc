type t = { var : string; sign : bool }

let pos var = { var; sign = true }
let neg var = { var; sign = false }
let negate l = { l with sign = not l.sign }
let equal a b = String.equal a.var b.var && Bool.equal a.sign b.sign

let compare a b =
  let c = String.compare a.var b.var in
  if c <> 0 then c else Bool.compare a.sign b.sign

let to_formula l = if l.sign then Formula.Var l.var else Formula.Not (Var l.var)

let of_formula = function
  | Formula.Var x -> Some (pos x)
  | Formula.Not (Formula.Var x) -> Some (neg x)
  | _ -> None

let holds rho l = Bool.equal (rho l.var) l.sign

let add_to_buffer b l =
  if not l.sign then Buffer.add_char b '!';
  Buffer.add_string b l.var

let pp ppf l =
  let b = Buffer.create 16 in
  add_to_buffer b l;
  Fmt.string ppf (Buffer.contents b)
