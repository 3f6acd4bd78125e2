type t =
  | P_true
  | P_loc of string * string
  | P_data of Ta.Expr.t
  | P_not of t
  | P_and of t * t
  | P_or of t * t

let rec compile sta = function
  | P_true -> fun _ _ -> true
  | P_loc (pname, lname) ->
    let pi = Sta.proc_index sta pname in
    let li = Sta.loc_index sta pi lname in
    fun locs _ -> locs.(pi) = li
  | P_data e -> fun _ store -> Ta.Expr.eval_bool store e
  | P_not p ->
    let p = compile sta p in
    fun locs store -> not (p locs store)
  | P_and (p, q) ->
    let p = compile sta p and q = compile sta q in
    fun locs store -> p locs store && q locs store
  | P_or (p, q) ->
    let p = compile sta p and q = compile sta q in
    fun locs store -> p locs store || q locs store

let rec to_ta_formula sta net = function
  | P_true -> Ta.Prop.True
  | P_loc (pname, lname) ->
    ignore sta;
    Ta.Prop.loc net pname lname
  | P_data e -> Ta.Prop.Data e
  | P_not p -> Ta.Prop.Not (to_ta_formula sta net p)
  | P_and (p, q) ->
    Ta.Prop.And (to_ta_formula sta net p, to_ta_formula sta net q)
  | P_or (p, q) ->
    Ta.Prop.Or (to_ta_formula sta net p, to_ta_formula sta net q)

let rec pp ppf = function
  | P_true -> Format.pp_print_string ppf "true"
  | P_loc (p, l) -> Format.fprintf ppf "%s.%s" p l
  | P_data e -> Ta.Expr.pp ppf e
  | P_not p -> Format.fprintf ppf "!(%a)" pp p
  | P_and (p, q) -> Format.fprintf ppf "(%a && %a)" pp p pp q
  | P_or (p, q) -> Format.fprintf ppf "(%a || %a)" pp p pp q
