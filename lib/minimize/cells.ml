type t = Bytes.t

let max_value = (1 lsl 31) - 1
let max16 = (1 lsl 16) - 1

(* Byte 0 holds the cell width [w] in bytes, 2 or 4, and cell [i] is
   the [w] bytes at [w * (i + 1)]: the width takes the place of one
   cell, so every cell is aligned to its width. *)
let create ~max n =
  let width =
    if max <= max16 then 2
    else if max <= max_value then 4
    else invalid_arg "Cells.create: value out of range"
  in
  let c = Bytes.make (width * (n + 1)) '\000' in
  Bytes.set c 0 (Char.chr width);
  c

let width c = Char.code (Bytes.get c 0)
let length c = (Bytes.length c / width c) - 1
let capacity c = if width c = 2 then max16 else max_value

(* One test covers both ends of the value: a negative [x] has its top
   bits set. A negative [i] would reach the width, so it is tested;
   [Bytes] checks the other end. *)
let set c i x =
  if i < 0 then invalid_arg "Cells.set: index out of range";
  if width c = 2 then begin
    if x lsr 16 <> 0 then invalid_arg "Cells.set: value out of range";
    Bytes.set_uint16_ne c ((2 * i) + 2) x
  end
  else begin
    if x lsr 31 <> 0 then invalid_arg "Cells.set: value out of range";
    Bytes.set_int32_ne c ((4 * i) + 4) (Int32.of_int x)
  end

let get c i =
  if i < 0 then invalid_arg "Cells.get: index out of range";
  if width c = 2 then Bytes.get_uint16_ne c ((2 * i) + 2)
  else Int32.to_int (Bytes.get_int32_ne c ((4 * i) + 4))

external byte : t -> int -> char = "%bytes_unsafe_get"
external get16 : t -> int -> int = "%caml_bytes_get16u"
external get32 : t -> int -> int32 = "%caml_bytes_get32u"

let copy = Bytes.copy

let of_wordbuf (b : Wordbuf.t) =
  let max = ref 0 in
  for i = 0 to b.len - 1 do
    max := Int.max !max b.a.(i)
  done;
  let c = create ~max:!max b.len in
  for i = 0 to b.len - 1 do
    set c i b.a.(i)
  done;
  c
