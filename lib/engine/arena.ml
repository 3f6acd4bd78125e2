type 'a t = { mutable slots : 'a array; mutable size : int }

let create () = { slots = [||]; size = 0 }
let size t = t.size

let add t x =
  if t.size = Array.length t.slots then begin
    (* [x] seeds the fresh slots so no dummy element is ever needed. *)
    let fresh = Array.make (max 256 (2 * t.size)) x in
    Array.blit t.slots 0 fresh 0 t.size;
    t.slots <- fresh
  end;
  t.slots.(t.size) <- x;
  t.size <- t.size + 1;
  t.size - 1

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Arena.get: index out of range";
  t.slots.(i)

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.slots.(i)
  done
