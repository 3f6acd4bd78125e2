type comp = { b_locs : int; b_ports : int; b_trans : (int * int * int) list }
type spec = { b_comps : comp array; b_conns : (int * int) list list }

let generate rng =
  let r = Rng.state rng in
  let int n = Random.State.int r n in
  let n_comps = 1 + int 3 in
  let gen_comp () =
    let locs = 2 + int 2 in
    let ports = 1 + int 2 in
    let n_trans = locs + int 3 in
    let b_trans =
      List.init n_trans (fun _ -> (int locs, int locs, int ports))
    in
    { b_locs = locs; b_ports = ports; b_trans }
  in
  let b_comps = Array.init n_comps (fun _ -> gen_comp ()) in
  let gen_conn () =
    (* Non-empty subset of components, one random port each. *)
    let members =
      List.filter_map
        (fun ci -> if int 2 = 0 then Some (ci, int b_comps.(ci).b_ports) else None)
        (List.init n_comps Fun.id)
    in
    match members with
    | [] ->
      let ci = int n_comps in
      [ (ci, int b_comps.(ci).b_ports) ]
    | ms -> ms
  in
  let n_conns = 1 + int 4 in
  let b_conns = List.init n_conns (fun _ -> gen_conn ()) in
  { b_comps; b_conns }

let build spec =
  let comps =
    Array.mapi
      (fun ci c ->
        let b = Bip.Component.create (Printf.sprintf "C%d" ci) in
        for l = 0 to c.b_locs - 1 do
          ignore (Bip.Component.add_location b (Printf.sprintf "l%d" l))
        done;
        let ports =
          Array.init c.b_ports (fun p ->
              Bip.Component.add_port b (Printf.sprintf "p%d" p))
        in
        List.iter
          (fun (src, dst, p) ->
            Bip.Component.add_transition b ~src ~dst ~port:ports.(p) ())
          c.b_trans;
        Bip.Component.build b)
      spec.b_comps
  in
  let connectors =
    List.mapi
      (fun i members ->
        Bip.System.Rendezvous
          {
            c_name = Printf.sprintf "conn%d" i;
            members =
              List.map (fun (ci, p) -> (ci, comps.(ci).Bip.Component.ports.(p))) members;
            guard = None;
            action = None;
          })
      spec.b_conns
  in
  Bip.System.make ~components:comps ~connectors ()

let shrinks spec =
  let cands = ref [] in
  let add s = cands := s :: !cands in
  let n = Array.length spec.b_comps in
  (* Drop a component (and every connector member referring to it). *)
  if n > 1 then
    for ci = 0 to n - 1 do
      let comps =
        spec.b_comps |> Array.to_list
        |> List.filteri (fun j _ -> j <> ci)
        |> Array.of_list
      in
      let conns =
        List.filter_map
          (fun members ->
            match
              List.filter_map
                (fun (c, p) ->
                  if c = ci then None
                  else Some ((if c > ci then c - 1 else c), p))
                members
            with
            | [] -> None
            | ms -> Some ms)
          spec.b_conns
      in
      if conns <> [] then add { b_comps = comps; b_conns = conns }
    done;
  (* Drop a connector. *)
  if List.length spec.b_conns > 1 then
    List.iteri
      (fun i _ ->
        add
          { spec with b_conns = List.filteri (fun j _ -> j <> i) spec.b_conns })
      spec.b_conns;
  (* Drop a transition. *)
  Array.iteri
    (fun ci c ->
      List.iteri
        (fun ti _ ->
          add
            {
              spec with
              b_comps =
                Array.mapi
                  (fun j c' ->
                    if j <> ci then c'
                    else
                      {
                        c' with
                        b_trans = List.filteri (fun k _ -> k <> ti) c'.b_trans;
                      })
                  spec.b_comps;
            })
        c.b_trans)
    spec.b_comps;
  List.rev !cands

let to_json spec =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "bip");
      ( "comps",
        Obs.Json.Arr
          (Array.to_list
             (Array.map
                (fun c ->
                  Obs.Json.Obj
                    [
                      ("locs", Obs.Json.Int c.b_locs);
                      ("ports", Obs.Json.Int c.b_ports);
                      ( "trans",
                        Obs.Json.Arr
                          (List.map
                             (fun (s, d, p) ->
                               Obs.Json.Arr
                                 [
                                   Obs.Json.Int s; Obs.Json.Int d; Obs.Json.Int p;
                                 ])
                             c.b_trans) );
                    ])
                spec.b_comps)) );
      ( "conns",
        Obs.Json.Arr
          (List.map
             (fun members ->
               Obs.Json.Arr
                 (List.map
                    (fun (c, p) ->
                      Obs.Json.Arr [ Obs.Json.Int c; Obs.Json.Int p ])
                    members))
             spec.b_conns) );
    ]

let to_ocaml spec =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{ Quantlib.Gen.Bip_gen.b_comps = [|";
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf "; ";
      Buffer.add_string buf
        (Printf.sprintf "{ b_locs = %d; b_ports = %d; b_trans = [" c.b_locs
           c.b_ports);
      List.iteri
        (fun j (s, d, p) ->
          if j > 0 then Buffer.add_string buf "; ";
          Buffer.add_string buf (Printf.sprintf "(%d, %d, %d)" s d p))
        c.b_trans;
      Buffer.add_string buf "] }")
    spec.b_comps;
  Buffer.add_string buf "|]; b_conns = [";
  List.iteri
    (fun i members ->
      if i > 0 then Buffer.add_string buf "; ";
      Buffer.add_string buf "[";
      List.iteri
        (fun j (c, p) ->
          if j > 0 then Buffer.add_string buf "; ";
          Buffer.add_string buf (Printf.sprintf "(%d, %d)" c p))
        members;
      Buffer.add_string buf "]")
    spec.b_conns;
  Buffer.add_string buf "] }";
  Buffer.contents buf
