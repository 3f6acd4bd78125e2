type t = { sys : System.t; module_names : string list; controlled : bool }

let module_names =
  [ "RFLEX"; "NDD"; "POM"; "LaserRF"; "Camera"; "Platine"; "Science"; "Antenna"; "Battery" ]

(* Dependencies: a module may be active only while all its suppliers are;
   a supplier's failure must stop it. *)
let dependencies = [ ("NDD", [ "RFLEX"; "POM"; "Battery" ]); ("Camera", [ "Platine" ]) ]

(* Mutual exclusions (resource/safety conflicts). *)
let mutexes = [ ("NDD", "Science"); ("Science", "Antenna") ]

(* Location indices of the generic service component. *)
let idle = 0
let ready = 1
let active = 2
let failed = 3

let service_component name =
  let b = Component.create name in
  let l_idle = Component.add_location b "Idle" in
  let l_ready = Component.add_location b "Ready" in
  let l_active = Component.add_location b "Active" in
  let l_failed = Component.add_location b "Failed" in
  assert (l_idle = idle && l_ready = ready && l_active = active && l_failed = failed);
  let p_init = Component.add_port b "init" in
  let p_start = Component.add_port b "start" in
  let p_stop = Component.add_port b "stop" in
  let p_fail = Component.add_port b "fail" in
  Component.set_initial b l_idle;
  Component.add_transition b ~src:l_idle ~dst:l_ready ~port:p_init ();
  Component.add_transition b ~src:l_ready ~dst:l_active ~port:p_start ();
  Component.add_transition b ~src:l_active ~dst:l_ready ~port:p_stop ();
  (* [stop] is accepted (as a no-op) in Ready so that failure broadcasts
     can always take the dependent along. *)
  Component.add_transition b ~src:l_ready ~dst:l_ready ~port:p_stop ();
  Component.add_transition b ~src:l_ready ~dst:l_failed ~port:p_fail ();
  Component.add_transition b ~src:l_active ~dst:l_failed ~port:p_fail ();
  (* Recovery: re-initialisation repairs a failed module. *)
  Component.add_transition b ~src:l_failed ~dst:l_ready ~port:p_init ();
  Component.build b

let make ?(modules = module_names) ~controlled () =
  let module_names =
    (* Keep canonical order; validate names. *)
    List.filter (fun n -> List.mem n modules) module_names
  in
  if List.length module_names <> List.length modules then
    invalid_arg "Dala.make: unknown module name";
  let dependencies =
    List.filter_map
      (fun (m, deps) ->
        if List.mem m module_names then
          Some (m, List.filter (fun d -> List.mem d module_names) deps)
        else None)
      dependencies
  in
  let mutexes =
    List.filter
      (fun (a, b) -> List.mem a module_names && List.mem b module_names)
      mutexes
  in
  let modules = List.map service_component module_names in
  let index name =
    let rec find k = function
      | [] -> invalid_arg ("Dala: unknown module " ^ name)
      | n :: rest -> if String.equal n name then k else find (k + 1) rest
    in
    find 0 module_names
  in
  let comp_of name = List.nth modules (index name) in
  if not controlled then begin
    (* Baseline: every service is a singleton connector; nothing
       coordinates the modules. *)
    let connectors =
      List.concat_map
        (fun name ->
          let c = comp_of name in
          let ci = index name in
          List.map
            (fun port_name ->
              System.Rendezvous
                {
                  c_name = Printf.sprintf "%s_%s" port_name name;
                  members = [ (ci, Component.port_by_name c port_name) ];
                  guard = None;
                  action = None;
                })
            [ "init"; "start"; "stop"; "fail" ])
        module_names
    in
    {
      sys =
        System.make ~components:(Array.of_list modules) ~connectors ();
      module_names;
      controlled;
    }
  end
  else begin
    (* R2C execution controller: one location, a mirror variable per
       module, one permission port per service. *)
    let n_modules = List.length module_names in
    let r2c_index = n_modules in
    let cb = Component.create "R2C" in
    let l_ctl = Component.add_location cb "Ctl" in
    Component.set_initial cb l_ctl;
    let mirror = List.map (fun name -> (name, Component.add_var cb ("st_" ^ name))) module_names in
    let mirror_of name = List.assoc name mirror in
    let deps_of name = try List.assoc name dependencies with Not_found -> [] in
    let mutex_partners name =
      List.filter_map
        (fun (a, b) ->
          if String.equal a name then Some b
          else if String.equal b name then Some a
          else None)
        mutexes
    in
    let dependants_of name =
      List.filter_map
        (fun (m, deps) -> if List.mem name deps then Some m else None)
        dependencies
    in
    let ports =
      List.map
        (fun name ->
          let v = mirror_of name in
          let p_ok_init = Component.add_port cb ("ok_init_" ^ name) in
          (* Re-initialisation is always permitted; it repairs faults. *)
          Component.add_transition cb ~src:l_ctl ~dst:l_ctl ~port:p_ok_init
            ~update:(fun s -> s.(v) <- ready)
            ();
          let p_ok_start = Component.add_port cb ("ok_start_" ^ name) in
          let deps = List.map mirror_of (deps_of name) in
          let rivals = List.map mirror_of (mutex_partners name) in
          Component.add_transition cb ~src:l_ctl ~dst:l_ctl ~port:p_ok_start
            ~guard:(fun s ->
              List.for_all (fun d -> s.(d) = active) deps
              && List.for_all (fun r -> s.(r) <> active) rivals)
            ~update:(fun s -> s.(v) <- active)
            ();
          let p_ok_stop = Component.add_port cb ("ok_stop_" ^ name) in
          let dependants = List.map mirror_of (dependants_of name) in
          (* A supplier may be stopped only while no dependant runs. *)
          Component.add_transition cb ~src:l_ctl ~dst:l_ctl ~port:p_ok_stop
            ~guard:(fun s -> List.for_all (fun d -> s.(d) <> active) dependants)
            ~update:(fun s -> s.(v) <- ready)
            ();
          let p_note_fail = Component.add_port cb ("note_fail_" ^ name) in
          Component.add_transition cb ~src:l_ctl ~dst:l_ctl ~port:p_note_fail
            ~update:(fun s ->
              s.(v) <- failed;
              (* Dependants are stopped by the same broadcast. *)
              List.iter
                (fun d -> if s.(d) = active then s.(d) <- ready)
                dependants)
            ();
          (name, (p_ok_init, p_ok_start, p_ok_stop, p_note_fail)))
        module_names
    in
    let r2c = Component.build cb in
    let components = Array.of_list (modules @ [ r2c ]) in
    let connectors =
      List.concat_map
        (fun name ->
          let c = comp_of name in
          let ci = index name in
          let p_ok_init, p_ok_start, p_ok_stop, p_note_fail =
            List.assoc name ports
          in
          let rdv cname mport rport =
            System.Rendezvous
              {
                c_name = cname;
                members =
                  [ (ci, Component.port_by_name c mport); (r2c_index, rport) ];
                guard = None;
                action = None;
              }
          in
          [
            rdv (Printf.sprintf "init_%s" name) "init" p_ok_init;
            rdv (Printf.sprintf "start_%s" name) "start" p_ok_start;
            rdv (Printf.sprintf "stop_%s" name) "stop" p_ok_stop;
            (* Failure broadcast: the module fails, R2C records it, and
               every dependent module is stopped in the same interaction
               (maximal progress makes enabled dependants join). *)
            System.Broadcast
              {
                c_name = Printf.sprintf "fail_%s" name;
                trigger = (ci, Component.port_by_name c "fail");
                synchrons =
                  (r2c_index, p_note_fail)
                  :: List.map
                       (fun dep ->
                         ( index dep,
                           Component.port_by_name (comp_of dep) "stop" ))
                       (dependants_of name);
                action = None;
              };
          ])
        module_names
    in
    {
      sys = System.make ~components ~connectors ();
      module_names;
      controlled;
    }
  end

let safety_ok d (st : Exec.state) =
  let index name =
    let rec find k = function
      | [] -> raise Not_found
      | n :: rest -> if String.equal n name then k else find (k + 1) rest
    in
    find 0 d.module_names
  in
  let present name = List.mem name d.module_names in
  let at name = st.Exec.locs.(index name) in
  List.for_all
    (fun (m, deps) ->
      (not (present m))
      || at m <> active
      || List.for_all (fun dep -> (not (present dep)) || at dep = active) deps)
    dependencies
  && List.for_all
       (fun (a, b) ->
         (not (present a && present b)) || not (at a = active && at b = active))
       mutexes

type injection_report = {
  runs : int;
  steps_per_run : int;
  faults_injected : int;
  violations : int;
}

let inject_faults d ~runs ~steps ~seed =
  let faults = ref 0 and violations = ref 0 in
  for k = 1 to runs do
    let rng = Random.State.make [| seed; k |] in
    let trace = Exec.run d.sys (Exec.Random rng) ~steps in
    List.iter
      (fun (name, st) ->
        if String.starts_with ~prefix:"fail_" name then incr faults;
        if not (safety_ok d st) then incr violations)
      trace
  done;
  { runs; steps_per_run = steps; faults_injected = !faults; violations = !violations }
