module Model = Ta.Model
module Expr = Ta.Expr
module Bound = Zones.Bound

(* Entry kinds of a compiled guard. *)
let upper = 0
let lower = 1
let diagonal = 2

type guard = {
  kind : int array;
  ci : int array;
  cj : int array;
  const : float array;
  bound : Bound.t array;
}

let guard (constrs : Model.constr list) =
  let finite = List.filter (fun (c : Model.constr) -> not (Bound.is_inf c.cb)) constrs in
  let field f = Array.of_list (List.map f finite) in
  {
    kind =
      field (fun (c : Model.constr) ->
          if c.ci > 0 && c.cj = 0 then upper
          else if c.ci = 0 && c.cj > 0 then lower
          else diagonal);
    ci = field (fun (c : Model.constr) -> c.ci);
    cj = field (fun (c : Model.constr) -> c.cj);
    const = field (fun (c : Model.constr) -> float_of_int (Bound.constant c.cb));
    bound = field (fun (c : Model.constr) -> c.cb);
  }

(* [Bound.sat] of entry [k] on the real difference [d], inline: the
   encoding is [2m] for [< m] and [2m + 1] for [<= m]. *)
let[@inline] entry_sat g k d =
  if (g.bound.(k) :> int) land 1 = 0 then d < g.const.(k) else d <= g.const.(k)

let sat g (v : float array) =
  let ok = ref true and k = ref 0 in
  let n = Array.length g.kind in
  while !ok && !k < n do
    ok := entry_sat g !k (v.(g.ci.(!k)) -. v.(g.cj.(!k)));
    incr k
  done;
  !ok

type window = { mutable lo : float; mutable hi : float }

(* Upper entries bound the delay from above ([x + d ≺ m], so
   [d <= m - x]), lower entries from below ([-(x + d) ≺ m], so
   [d >= -m - x]); diagonal entries are delay-invariant and either hold
   now or never. [min] and [max] are spelled out as [Stdlib]'s
   ([if a <= b then a else b]), so the window is bit-for-bit theirs. *)
let window g (v : float array) ~slack w =
  let lo = ref 0.0 and hi = ref infinity and ok = ref true and k = ref 0 in
  let n = Array.length g.kind in
  while !ok && !k < n do
    let i = !k in
    let kind = g.kind.(i) in
    if kind = upper then begin
      let x = g.const.(i) -. v.(g.ci.(i)) in
      if not (!hi <= x) then hi := x
    end
    else if kind = lower then begin
      let x = -.g.const.(i) -. v.(g.cj.(i)) in
      if not (!lo >= x) then lo := x
    end
    else ok := entry_sat g i (v.(g.ci.(i)) -. v.(g.cj.(i)));
    incr k
  done;
  w.lo <- !lo;
  w.hi <- !hi;
  !ok && not (!lo > !hi +. slack)

let bound_delay g (v : float array) w =
  for i = 0 to Array.length g.kind - 1 do
    if g.kind.(i) = upper then begin
      let x = g.const.(i) -. v.(g.ci.(i)) in
      if not (w.hi <= x) then w.hi <- x
    end
  done

type state = {
  locs : int array;
  store : int array;
  clocks : float array;
  mutable time : float;
  saved_locs : int array;
  saved_store : int array;
  saved_clocks : float array;
}

let state ~locs ~store ~n_clocks =
  {
    locs;
    store;
    clocks = Array.make (n_clocks + 1) 0.0;
    time = 0.0;
    saved_locs = Array.copy locs;
    saved_store = Array.copy store;
    saved_clocks = Array.make (n_clocks + 1) 0.0;
  }

let advance st d =
  let c = st.clocks in
  for k = 1 to Array.length c - 1 do
    c.(k) <- c.(k) +. d
  done;
  st.time <- st.time +. d

let rec apply_updates store clocks = function
  | [] -> ()
  | Model.Assign (lv, rhs) :: rest ->
    let value = Expr.eval store rhs in
    store.(Expr.lvalue_offset store lv) <- value;
    apply_updates store clocks rest
  | Model.Reset (x, value) :: rest ->
    clocks.(x) <- float_of_int value;
    apply_updates store clocks rest
  | Model.Prim (_, f) :: rest ->
    f store;
    apply_updates store clocks rest

let apply st i ~dst updates =
  st.locs.(i) <- dst;
  apply_updates st.store st.clocks updates

let save st =
  Array.blit st.locs 0 st.saved_locs 0 (Array.length st.locs);
  Array.blit st.store 0 st.saved_store 0 (Array.length st.store);
  Array.blit st.clocks 0 st.saved_clocks 0 (Array.length st.clocks)

let restore st =
  Array.blit st.saved_locs 0 st.locs 0 (Array.length st.locs);
  Array.blit st.saved_store 0 st.store 0 (Array.length st.store);
  Array.blit st.saved_clocks 0 st.clocks 0 (Array.length st.clocks)
