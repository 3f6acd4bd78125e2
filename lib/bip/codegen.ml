let buf_add = Buffer.add_string

let escape s = String.map (fun c -> if c = '"' then '\'' else c) s

let to_ocaml ?(module_comment = "Generated BIP coordination code") sys =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (buf_add b) fmt in
  add "(* %s.\n   Generated by quantlib's BIP code generator — do not edit. *)\n\n"
    (escape module_comment);
  add "type state = { locs : int array; stores : int array array }\n\n";
  add "(* Behaviour hooks: index them as guards.(component).(hook_id). *)\n";
  add "let tt (_ : int array) = true\n";
  add "let nop (_ : int array) = ()\n\n";
  let { System.components; interactions; priorities; wider } = sys in
  (* Component tables. *)
  add "(* components: name, initial location, store size *)\n";
  add "let components = [|\n";
  Array.iter
    (fun (c : Component.t) ->
      add "  (%S, %d, %d);\n" (escape c.Component.comp_name)
        c.Component.initial_loc
        (Array.length c.Component.initial_store))
    components;
  add "|]\n\n";
  add "let initial_stores () = [|\n";
  Array.iter
    (fun (c : Component.t) ->
      let cells =
        Array.to_list (Array.map string_of_int c.Component.initial_store)
      in
      add "  [| %s |];\n" (String.concat "; " cells))
    components;
  add "|]\n\n";
  (* Transitions: (component, src, port, dst, guard hook, update hook).
     Hook ids are dense per component. *)
  add "(* transitions: (component, src, port, dst, hook) *)\n";
  add "let transitions = [|\n";
  Array.iteri
    (fun ci (c : Component.t) ->
      Array.iteri
        (fun src ts ->
          List.iteri
            (fun k (t : Component.transition) ->
              add "  (%d, %d, %d, %d, %d);\n" ci src t.Component.t_port
                t.Component.t_dst
                ((src * 16) + k))
            ts)
        c.Component.transitions)
    components;
  add "|]\n\n";
  add "let guards : (int array -> bool) array array =\n";
  add "  Array.map (fun _ -> Array.make 1024 tt) components\n";
  add "let updates : (int array -> unit) array array =\n";
  add "  Array.map (fun _ -> Array.make 1024 nop) components\n\n";
  (* Interactions. *)
  add "(* interactions: name, [(component, port)] *)\n";
  add "let interactions = [|\n";
  Array.iter
    (fun (i : System.interaction) ->
      let ports =
        List.map
          (fun (ci, (p : Component.port)) ->
            Printf.sprintf "(%d, %d)" ci p.Component.port_id)
          i.System.i_ports
      in
      add "  (%S, [ %s ]);\n" (escape i.System.i_name) (String.concat "; " ports))
    interactions;
  add "|]\n\n";
  (* Priorities by interaction index. *)
  let index_of name =
    let found = ref (-1) in
    Array.iteri
      (fun k (i : System.interaction) ->
        if String.equal i.System.i_name name then found := k)
      interactions;
    !found
  in
  add "let priorities = [ %s ]\n\n"
    (String.concat "; "
       (List.map
          (fun (r : System.priority) ->
            Printf.sprintf "(%d, %d)" (index_of r.System.low)
              (index_of r.System.high))
          priorities));
  add "(* maximal progress: wider.(k) lists the interactions that have\n";
  add "   every port of k and more ports; they inhibit k *)\n";
  add "let wider : int array array = [|\n";
  Array.iter
    (fun row ->
      add "  [| %s |];\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int row))))
    wider;
  add "|]\n\n";
  (* Engine. *)
  add
    {|let initial () =
  { locs = Array.map (fun (_, init, _) -> init) components;
    stores = initial_stores () }

let port_enabled st ci port =
  Array.exists
    (fun (c, src, p, _, hook) ->
      c = ci && src = st.locs.(ci) && p = port
      && guards.(ci).(hook) st.stores.(ci))
    transitions

let interaction_enabled st (_, ports) =
  List.for_all (fun (ci, port) -> port_enabled st ci port) ports

let enabled st =
  let out = ref [] in
  Array.iteri
    (fun k i -> if interaction_enabled st i then out := k :: !out)
    interactions;
  List.rev !out

let filtered st =
  let en = enabled st in
  let on = Array.make (Array.length interactions) false in
  List.iter (fun k -> on.(k) <- true) en;
  let inhibited k =
    List.exists (fun (low, high) -> low = k && on.(high)) priorities
    || Array.exists (fun k' -> on.(k')) wider.(k)
  in
  List.filter (fun k -> not (inhibited k)) en

let fire st k =
  let st' =
    { locs = Array.copy st.locs; stores = Array.map Array.copy st.stores }
  in
  let (_, ports) = interactions.(k) in
  List.iter
    (fun (ci, port) ->
      match
        Array.to_list transitions
        |> List.find_opt (fun (c, src, p, _, hook) ->
               c = ci && src = st'.locs.(ci) && p = port
               && guards.(ci).(hook) st'.stores.(ci))
      with
      | Some (_, _, _, dst, hook) ->
        updates.(ci).(hook) st'.stores.(ci);
        st'.locs.(ci) <- dst
      | None -> failwith "fire: port not enabled")
    ports;
  st'

let step st =
  match filtered st with
  | [] -> None
  | k :: _ -> Some (fst interactions.(k), fire st k)

let run steps =
  let rec loop st k acc =
    if k = 0 then List.rev acc
    else
      match step st with
      | None -> List.rev acc
      | Some (name, st') -> loop st' (k - 1) (name :: acc)
  in
  loop (initial ()) steps []
|};
  Buffer.contents b

let interaction_count_in_source src =
  (* Count entries of the interactions table: lines of the form
     ("name", [ ... ]); between the marker and the closing bracket. *)
  let lines = String.split_on_char '\n' src in
  let rec scan in_table acc = function
    | [] -> acc
    | line :: rest ->
      let trimmed = String.trim line in
      if String.length trimmed >= 16
         && String.sub trimmed 0 16 = "let interactions"
      then scan true acc rest
      else if in_table && trimmed = "|]" then acc
      else if in_table && String.length trimmed > 0 && trimmed.[0] = '(' then
        scan true (acc + 1) rest
      else scan in_table acc rest
  in
  scan false 0 lines
