type t = Bytes.t

let max_value = (1 lsl 31) - 1
let create n = Bytes.make (4 * n) '\000'
let length c = Bytes.length c lsr 2

(* One test covers both ends: a negative [x] has its top bits set. *)
let set c i x =
  if x lsr 31 <> 0 then invalid_arg "Cells.set: value out of range";
  Bytes.set_int32_ne c (4 * i) (Int32.of_int x)

external unsafe_get32 : t -> int -> int32 = "%caml_bytes_get32u"

let copy = Bytes.copy

let of_wordbuf (b : Wordbuf.t) =
  let c = create b.len in
  for i = 0 to b.len - 1 do
    set c i b.a.(i)
  done;
  c
