type interaction = {
  i_name : string;
  i_ports : (int * Component.port) list;
  i_guard : (int array -> int array array -> bool) option;
  i_action : (int array array -> unit) option;
  i_id : int;
}

type connector =
  | Rendezvous of {
      c_name : string;
      members : (int * Component.port) list;
      guard : (int array -> int array array -> bool) option;
      action : (int array array -> unit) option;
    }
  | Broadcast of {
      c_name : string;
      trigger : int * Component.port;
      synchrons : (int * Component.port) list;
      action : (int array array -> unit) option;
    }

type priority = {
  low : string;
  high : string;
  when_ : (int array -> int array array -> bool) option;
}

type t = {
  components : Component.t array;
  interactions : interaction array;
  priorities : priority list;
  wider : int array array;
}

let subsets xs =
  List.fold_left
    (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
    [ [] ] xs

let make ~components ~connectors ?(priorities = []) () =
  let n = Array.length components in
  let check_member (ci, (p : Component.port)) =
    if ci < 0 || ci >= n then invalid_arg "Bip.System.make: bad component index";
    let c = components.(ci) in
    if p.Component.port_id < 0 || p.Component.port_id >= Array.length c.Component.ports
    then invalid_arg "Bip.System.make: bad port"
  in
  let interactions = ref [] in
  let next_id = ref 0 in
  let push name ports guard action =
    List.iter check_member ports;
    let i =
      { i_name = name; i_ports = ports; i_guard = guard; i_action = action; i_id = !next_id }
    in
    incr next_id;
    interactions := i :: !interactions
  in
  List.iter
    (function
      | Rendezvous { c_name; members; guard; action } ->
        if members = [] then invalid_arg "Bip.System.make: empty rendezvous";
        push c_name members guard action
      | Broadcast { c_name; trigger; synchrons; action } ->
        (* One interaction per subset of synchrons (trigger always in). *)
        List.iter
          (fun subset ->
            let suffix =
              match subset with
              | [] -> ""
              | _ ->
                "+"
                ^ String.concat "+"
                    (List.map
                       (fun (ci, (p : Component.port)) ->
                         Printf.sprintf "%s.%s"
                           components.(ci).Component.comp_name
                           p.Component.port_name)
                       subset)
            in
            push (c_name ^ suffix) (trigger :: subset) None action)
          (subsets synchrons))
    connectors;
  let interactions = Array.of_list (List.rev !interactions) in
  (* Unique names (priorities refer to interactions by name). *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      if Hashtbl.mem seen i.i_name then
        invalid_arg
          (Printf.sprintf "Bip.System.make: duplicate interaction %s" i.i_name);
      Hashtbl.replace seen i.i_name ())
    interactions;
  List.iter
    (fun r ->
      if not (Hashtbl.mem seen r.low && Hashtbl.mem seen r.high) then
        invalid_arg
          (Printf.sprintf "Bip.System.make: unknown interaction in priority %s < %s"
             r.low r.high))
    priorities;
  (* Maximal progress: [wider.(a)] lists, ascending, the interactions
     that have every port of [a] and more ports than [a]. *)
  let ports =
    Array.map
      (fun i ->
        List.sort compare
          (List.map
             (fun (ci, (p : Component.port)) -> (ci, p.Component.port_id))
             i.i_ports))
      interactions
  in
  let wider =
    Array.mapi
      (fun a pa ->
        let n_a = List.length pa in
        Array.of_list
          (List.filter
             (fun b ->
               b <> a
               && List.length ports.(b) > n_a
               && List.for_all (fun p -> List.mem p ports.(b)) pa)
             (List.init (Array.length interactions) Fun.id)))
      ports
  in
  { components; interactions; priorities; wider }

let interaction_by_name t name =
  match
    Array.to_list t.interactions
    |> List.find_opt (fun i -> String.equal i.i_name name)
  with
  | Some i -> i
  | None -> raise Not_found
