type port = { port_name : string; port_id : int }

type transition = {
  t_src : int;
  t_dst : int;
  t_port : int;
  t_guard : int array -> bool;
  t_has_guard : bool; (* set when a guard was supplied; D-Finder treats
                         guarded transitions as possibly disabled *)
  t_update : int array -> unit;
}

type t = {
  comp_name : string;
  locations : string array;
  ports : port array;
  transitions : transition list array;
  initial_loc : int;
  initial_store : int array;
  var_names : string array;
}

type builder = {
  b_name : string;
  mutable b_locs : string list;
  mutable b_ports : port list;
  mutable b_vars : (string * int) list;
  mutable b_trans : transition list;
  mutable b_init : int;
}

let create name =
  { b_name = name; b_locs = []; b_ports = []; b_vars = []; b_trans = []; b_init = 0 }

let add_location b name =
  b.b_locs <- name :: b.b_locs;
  List.length b.b_locs - 1

let add_port b name =
  let p = { port_name = name; port_id = List.length b.b_ports } in
  b.b_ports <- p :: b.b_ports;
  p

let add_var b ?(init = 0) name =
  b.b_vars <- (name, init) :: b.b_vars;
  List.length b.b_vars - 1

let add_transition b ~src ~dst ~port ?guard ?(update = fun _ -> ()) () =
  let t_has_guard = guard <> None in
  let t_guard = Option.value guard ~default:(fun _ -> true) in
  b.b_trans <-
    {
      t_src = src;
      t_dst = dst;
      t_port = port.port_id;
      t_guard;
      t_has_guard;
      t_update = update;
    }
    :: b.b_trans

let set_initial b l = b.b_init <- l

let build b =
  let locations = Array.of_list (List.rev b.b_locs) in
  if Array.length locations = 0 then
    invalid_arg (Printf.sprintf "Component %s has no locations" b.b_name);
  let n_locs = Array.length locations in
  let transitions = Array.make n_locs [] in
  List.iter
    (fun t ->
      if t.t_src < 0 || t.t_src >= n_locs || t.t_dst < 0 || t.t_dst >= n_locs
      then invalid_arg (Printf.sprintf "Component %s: bad transition" b.b_name);
      transitions.(t.t_src) <- t :: transitions.(t.t_src))
    b.b_trans;
  Array.iteri (fun i l -> transitions.(i) <- l) (Array.map List.rev transitions);
  if b.b_init < 0 || b.b_init >= n_locs then
    invalid_arg (Printf.sprintf "Component %s: bad initial location" b.b_name);
  let vars = List.rev b.b_vars in
  {
    comp_name = b.b_name;
    locations;
    ports = Array.of_list (List.rev b.b_ports);
    transitions;
    initial_loc = b.b_init;
    initial_store = Array.of_list (List.map snd vars);
    var_names = Array.of_list (List.map fst vars);
  }

let transitions_on c ~loc ~store p =
  List.filter
    (fun t -> t.t_port = p && t.t_guard store)
    c.transitions.(loc)

let port_enabled c ~loc ~store p =
  List.exists (fun t -> t.t_port = p && t.t_guard store) c.transitions.(loc)

let loc_index c name =
  let found = ref (-1) in
  Array.iteri (fun i l -> if String.equal l name then found := i) c.locations;
  if !found < 0 then raise Not_found else !found

let port_by_name c name =
  match
    Array.to_list c.ports
    |> List.find_opt (fun p -> String.equal p.port_name name)
  with
  | Some p -> p
  | None -> raise Not_found
