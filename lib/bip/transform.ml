(* Priority elimination: conjoin each interaction's guard with the
   negation of every inhibitor's enabledness. Enabledness of an
   interaction is evaluated exactly as the engine does: port-enabled on
   every participant plus the original guard. *)

let interaction_enabled (sys : System.t) (i : System.interaction) locs stores =
  List.for_all
    (fun (ci, (p : Component.port)) ->
      Component.port_enabled sys.components.(ci) ~loc:locs.(ci)
        ~store:stores.(ci) p.Component.port_id)
    i.System.i_ports
  && (match i.System.i_guard with None -> true | Some g -> g locs stores)

let compile_priorities (sys : System.t) =
  let inhibitors (a : System.interaction) =
    (* Explicit priority rules. *)
    let by_rule =
      List.filter_map
        (fun (r : System.priority) ->
          if String.equal r.System.low a.System.i_name then
            Array.to_list sys.interactions
            |> List.find_opt (fun (b : System.interaction) ->
                   String.equal b.System.i_name r.System.high)
            |> Option.map (fun b -> (b, r.System.when_))
          else None)
        sys.priorities
    in
    (* Implicit maximal progress: the wider interactions inhibit. *)
    let by_maximality =
      Array.to_list sys.wider.(a.System.i_id)
      |> List.map (fun b -> (sys.interactions.(b), None))
    in
    by_rule @ by_maximality
  in
  let compiled =
    Array.map
      (fun (a : System.interaction) ->
        match inhibitors a with
        | [] -> a
        | inhs ->
          let guard locs stores =
            (match a.System.i_guard with
             | None -> true
             | Some g -> g locs stores)
            && List.for_all
                 (fun ((b : System.interaction), when_) ->
                   let applies =
                     match when_ with
                     | None -> true
                     | Some c -> c locs stores
                   in
                   not (applies && interaction_enabled sys b locs stores))
                 inhs
          in
          { a with System.i_guard = Some guard })
      sys.interactions
  in
  {
    sys with
    System.interactions = compiled;
    priorities = [];
    wider = Array.map (fun _ -> [||]) sys.wider;
  }
